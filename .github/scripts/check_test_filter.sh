#!/usr/bin/env bash
# Fails when an alternative of a ctest -R filter selects no test.
#
#   check_test_filter.sh BUILD_DIR 'SuiteA|SuiteB\.Case|...'
#
# Each alternative is matched as ctest would match it inside '^(...)', so
# a renamed suite, or one whose test binary the job did not build, is
# reported instead of silently dropping out of the job's run.
set -u
build_dir=$1
status=0
IFS='|' read -ra names <<< "$2"
for name in "${names[@]}"; do
  listing=$(ctest --test-dir "$build_dir" -N -R "^$name")
  if ! [[ $listing =~ Total\ Tests:\ [1-9] ]]; then
    echo "::error::test filter alternative '$name' selects no test"
    status=1
  fi
done
exit $status
