#!/usr/bin/env python3
"""Runs one workload of the cbvlink benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It builds perfbench_workload from
perfbench/CMakeLists.txt (which compiles the library from src/) into
.bench_build/perfbench, runs the workload in its own process, turns the
program's raw samples into medians and percentiles, checks metric names
and units against BENCHMARK.json, and prints every metric on its own line
with unit and sample count.  The last line of standard output is the
result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  The exit code is 0 when every correctness
check passed, 1 when one failed (the result is still printed), and 2 when
the benchmark could not run at all (nothing is printed on stdout).
"""

import argparse
import array
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_BOUND = 0.25
BUILD_TIMEOUT_S = 850
# Every process of one run, set-up processes included, ends by then.
RUN_TIMEOUT_S = 170
# setup_s (set-up CPU time) and setup_wall_s are medians over set-up
# processes, started in two bursts, one before and one after the
# workload's own process, so that they span the run.  Each burst runs at
# least SETUP_MIN_PROCESSES and until SETUP_MIN_SECONDS have passed, at
# most SETUP_MAX_PROCESSES.  The time of set-up moves with the state of
# the host, which changes within seconds, so samples inside one process or
# one short burst do not average it out.
SETUP_MIN_PROCESSES = 3
SETUP_MAX_PROCESSES = 51
SETUP_MIN_SECONDS = 3.0
SETUP_METRICS = ("setup_s", "setup_wall_s")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def percentile(values, q):
    """Nearest-rank q-quantile: the smallest sample with at least a share
    q of all samples at or below it.  Always returns a measured value."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError("quantile must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_supported(n, q):
    """True when a q-quantile of n samples has at least ten samples beyond
    it; a median needs only one sample."""
    if q <= 0.5:
        return n >= 1
    return n * (1 - q) >= 10 - 1e-9


def validate_spec(spec):
    """Returns the problems with a BENCHMARK.json object (empty if none)."""
    problems = []
    seen = set()

    def name_ok(where, name):
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append(f"{where}: bad name {name!r}")
        elif name in seen:
            problems.append(f"{where}: name {name!r} used twice")
        else:
            seen.add(name)

    workloads = spec.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        problems.append("workloads: need 2 to 8")
    for w in workloads:
        name_ok("workloads", w.get("name"))
        why = w.get("why", "")
        if not why or len(why) > 200 or "\n" in why:
            problems.append(f"workloads: bad why for {w.get('name')!r}")
    for section, keys, low, high in (
            ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
            ("per_layer", {"name", "unit", "better"}, 1, 128)):
        metrics = spec.get(section, [])
        if not low <= len(metrics) <= high:
            problems.append(f"{section}: need {low} to {high} metrics")
        for m in metrics:
            if set(m) != keys:
                problems.append(f"{section}: keys of {m.get('name')!r}")
            name_ok(section, m.get("name"))
            if not isinstance(m.get("unit"), str) or not UNIT_RE.match(
                    m["unit"]):
                problems.append(f"{section}: bad unit {m.get('unit')!r}")
            if m.get("better") not in ("lower", "higher"):
                problems.append(f"{section}: bad better for {m.get('name')!r}")
            if "bound" in keys:
                bound = m.get("bound")
                if not isinstance(bound, (int, float)) or not (
                        0 < bound <= MAX_BOUND):
                    problems.append(f"{section}: bad bound {bound!r}")
    setup = [m for m in spec.get("end_to_end", []) if m.get("name") ==
             "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get(
            "better") != "lower":
        problems.append("end_to_end: setup_s (s, lower) is required")
    seconds = spec.get("run_seconds")
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        problems.append("run_seconds: need a whole number from 1 to 60")
    return problems


def resolve_metrics(report, run_dir):
    """Turns the program's metric entries into {name: (value, unit, n, how)}
    where `how` says which statistic of how many samples it is."""
    resolved = {}
    cache = {}
    for name, entry in report["metrics"].items():
        unit = entry["unit"]
        if "samples" in entry:
            file = entry["samples"]
            if file not in cache:
                values = array.array("d")
                path = run_dir / f"{file}.f64"
                with open(path, "rb") as f:
                    values.frombytes(f.read())
                cache[file] = list(values)
            samples = cache[file]
            q = entry["q"]
            if not tail_supported(len(samples), q):
                raise BenchError(
                    f"{name}: q={q} of {len(samples)} samples has fewer than "
                    "ten samples beyond it")
            how = "median" if q == 0.5 else f"p{round(q * 100)}"
            resolved[name] = (percentile(samples, q), unit, len(samples), how)
        else:
            value = entry["value"]
            if value is None:
                raise BenchError(f"{name}: value is not a finite number")
            resolved[name] = (value, unit, entry["n"], "value")
    return resolved


def select_metrics(spec_metrics, resolved):
    """The result's metrics: exactly the listed names, units checked."""
    out = {}
    for m in spec_metrics:
        name = m["name"]
        if name not in resolved:
            raise BenchError(f"perfbench_workload did not report metric {name}")
        value, unit, _, _ = resolved[name]
        if unit != m["unit"]:
            raise BenchError(
                f"{name}: reported unit {unit!r}, BENCHMARK.json {m['unit']!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def check_counts(ledger_path, key, counts):
    """Deterministic counts must repeat exactly for the same program binary,
    workload, seed and run length.  Returns the names that changed."""
    ledger = {}
    if ledger_path.exists():
        ledger = json.loads(ledger_path.read_text())
    previous = ledger.get(key)
    changed = sorted(k for k in counts
                     if previous is not None and k in previous and
                     previous[k] != counts[k])
    if previous is None:
        ledger[key] = counts
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(ledger_path)
    return changed


def build(root, build_dir):
    log = sys.stderr
    if not any((build_dir / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_workload", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=log, stderr=log,
                   timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench_workload"


def run_program(program, args, run_dir, setup, deadline):
    """Runs perfbench_workload once into an empty run_dir, to end by the
    time.monotonic() deadline, and returns (exit code, report, resolved
    metrics)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [str(program), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--setup", "1" if setup else "0", "--out",
             str(run_dir)],
            stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
            check=False)
        report_path = run_dir / "report.json"
        if proc.returncode not in (0, 1) or not report_path.exists():
            raise BenchError(f"perfbench_workload exited with {proc.returncode}")
        report = json.loads(report_path.read_text())
        return proc.returncode, report, resolve_metrics(report, run_dir)
    finally:
        for leftover in run_dir.iterdir():
            if leftover.name != "report.json":
                leftover.unlink()


def setup_burst(program, args, run_dir, deadline):
    """The set-up times reported by one burst of set-up processes: one
    {name: value} per process, for each name in SETUP_METRICS."""
    values = []
    start = time.monotonic()
    while len(values) < SETUP_MAX_PROCESSES and (
            len(values) < SETUP_MIN_PROCESSES or
            time.monotonic() - start < SETUP_MIN_SECONDS):
        code, _, resolved = run_program(program, args, run_dir, True,
                                        deadline)
        if code != 0 or any(name not in resolved for name in SETUP_METRICS):
            raise BenchError("set-up process failed")
        values.append({name: resolved[name][0] for name in SETUP_METRICS})
    return values


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = validate_spec(spec)
    if problems:
        raise BenchError("BENCHMARK.json: " + "; ".join(problems))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload}")

    build_dir = root / ".bench_build" / "perfbench"
    program = build(root, build_dir)
    run_dir = build_dir / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_dir = run_dir.with_name(run_dir.name + "-setup")
    setup = []
    if not args.trace:
        setup += setup_burst(program, args, setup_dir, deadline)
    returncode, report, resolved = run_program(program, args, run_dir, False,
                                               deadline)
    if not args.trace:
        setup += setup_burst(program, args, setup_dir, deadline)
        for name in SETUP_METRICS:
            values = [process[name] for process in setup]
            print(f"# {name} of each process = " +
                  " ".join(f"{v:.6g}" for v in values))
            resolved[name] = (percentile(values, 0.5), "s", len(values),
                              f"median of {len(values)} processes")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = select_metrics(spec[section], resolved)

    attempted = int(report["attempted"])
    failed = int(report["failed"])
    digest = hashlib.sha256(program.read_bytes()).hexdigest()[:16]
    key = f"{digest}:{args.workload}:{args.seed}:{args.seconds}:{args.trace}"
    changed = check_counts(build_dir / "counts.json", key, report["counts"])
    if changed:
        failed += 1
        print(f"# FAILED deterministic counts changed: {', '.join(changed)}")
    correct = returncode == 0 and failed == 0 and attempted >= 1

    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds} trace {args.trace}")
    for name, value in report["info"].items():
        print(f"# info  {name} = {value}")
    gated = set(metrics)
    for name, (value, unit, n, how) in resolved.items():
        tag = section if name in gated else "extra"
        print(f"# {tag:<10} {name} = {fmt(value)} {unit} ({how}, n={n})")
    for name, value in report["counts"].items():
        print(f"# count {name} = {value}")
    for name, ok in report["checks"].items():
        print(f"# check {name} = {'ok' if ok else 'FAILED'}")
    for error in report["errors"]:
        print(f"# error {error}")
    print(f"# error_rate = {failed / max(1, attempted):.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
