// The Linker interface: one end-to-end blocking/matching pipeline per
// method of the paper's evaluation (cBV-HB plus the three baselines).

#ifndef CBVLINK_LINKAGE_LINKER_H_
#define CBVLINK_LINKAGE_LINKER_H_

#include <string_view>
#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/execution.h"
#include "src/common/record.h"
#include "src/common/status.h"

namespace cbvlink {

/// Outcome of one linkage run.
struct LinkageResult {
  /// Matched (A, B) id pairs, duplicates possible only across methods
  /// that re-discover pairs (the matcher itself de-duplicates per probe).
  std::vector<IdPair> matches;
  /// Matcher counters (|CR| = stats.comparisons).
  MatchStats stats;
  /// Wall-clock split: embedding the records, building the blocking
  /// structures + inserting A, and probing/matching B.  cBV-HB encodes
  /// A into its arena rows in embed_seconds (beside sizing and set-up),
  /// and B chunk by chunk inside match_seconds, as it streams B through
  /// the matcher; the other embedding linkers encode both sets in
  /// embed_seconds.
  double embed_seconds = 0.0;
  double index_seconds = 0.0;
  double match_seconds = 0.0;
  /// Total blocking groups used (sum over structures for attribute-level
  /// blocking).
  size_t blocking_groups = 0;
  /// Worker threads the run actually executed on (1 = serial), so bench
  /// JSON can record real parallelism next to the timings.
  size_t threads_used = 1;

  double total_seconds() const {
    return embed_seconds + index_seconds + match_seconds;
  }
};

/// An end-to-end record-linkage method.
class Linker {
 public:
  virtual ~Linker();

  /// Human-readable method name ("cBV-HB", "BfH", ...).
  virtual std::string_view name() const = 0;

  /// Links data sets A and B under `options`' execution policy,
  /// returning matches and statistics.  Every implementation produces
  /// byte-identical matches and counters at any thread count.
  virtual Result<LinkageResult> Link(const std::vector<Record>& a,
                                     const std::vector<Record>& b,
                                     const ExecutionOptions& options) = 0;

  /// Convenience overload: serial execution.
  virtual Result<LinkageResult> Link(const std::vector<Record>& a,
                                     const std::vector<Record>& b);
};

}  // namespace cbvlink

#endif  // CBVLINK_LINKAGE_LINKER_H_
