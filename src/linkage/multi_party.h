// Multi-party linkage (Section 5.3: "our method is capable of handling an
// arbitrary number of data sets (two or more) belonging to different data
// custodians").
//
// Charlie receives one record set per custodian, embeds them all with the
// same c-vector encoders, indexes everything into one set of blocking
// groups, and reports matches between records of *different* sources.
// The de-duplicating matcher semantics of Algorithm 2 apply per probe.
// One OnlineCbvHbLinker (record-level mode) runs the pass: each party
// probes the parties indexed before it, then is indexed itself.

#ifndef CBVLINK_LINKAGE_MULTI_PARTY_H_
#define CBVLINK_LINKAGE_MULTI_PARTY_H_

#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/embedding/record_encoder.h"
#include "src/linkage/linker.h"
#include "src/rules/rule.h"

namespace cbvlink {

/// Identifier of a data custodian's set.
using PartyId = size_t;

/// A match between records of two different parties.
struct MultiPartyMatch {
  PartyId party_a = 0;
  RecordId id_a = 0;
  PartyId party_b = 0;
  RecordId id_b = 0;

  bool operator==(const MultiPartyMatch&) const = default;
};

/// Configuration for multi-party linkage; parameters mirror CbvHbConfig's
/// record-level mode.
struct MultiPartyConfig {
  Schema schema;
  /// Classification rule on attribute-level Hamming distances.
  Rule rule = Rule::Pred(0, 0);
  size_t record_K = 30;
  size_t record_theta = 4;
  double delta = 0.1;
  OptimalSizeOptions sizing;
  /// Expected q-grams per attribute; estimated from the first party's
  /// records when empty.
  std::vector<double> expected_qgrams;
  size_t estimation_sample = 1000;
  uint64_t seed = 19;
};

/// Result of a multi-party run.
struct MultiPartyResult {
  std::vector<MultiPartyMatch> matches;
  MatchStats stats;
  size_t blocking_groups = 0;
};

/// Links any number of record sets pairwise in a single pass.
class MultiPartyLinker {
 public:
  /// Validates the configuration.
  static Result<MultiPartyLinker> Create(MultiPartyConfig config);

  /// Links all parties.  Record ids must be unique *within* a party; the
  /// (party, id) pair identifies a record globally.  Requires >= 2
  /// parties, each non-empty.
  Result<MultiPartyResult> Link(
      const std::vector<std::vector<Record>>& parties);

 private:
  explicit MultiPartyLinker(MultiPartyConfig config)
      : config_(std::move(config)) {}

  MultiPartyConfig config_;
};

}  // namespace cbvlink

#endif  // CBVLINK_LINKAGE_MULTI_PARTY_H_
