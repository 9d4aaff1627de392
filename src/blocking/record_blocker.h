// Standard record-level HB blocking (Section 4.2).
//
// The blocker samples K bit positions uniformly from the *whole*
// record-level vector for each of L blocking groups, inserts data set A's
// vectors into the groups' hash tables, and serves candidate Ids for each
// probe vector from data set B.  This is the baseline that Section 5.4's
// attribute-level blocking improves upon.

#ifndef CBVLINK_BLOCKING_RECORD_BLOCKER_H_
#define CBVLINK_BLOCKING_RECORD_BLOCKER_H_

#include <functional>
#include <span>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/function_ref.h"
#include "src/common/random.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/embedding/record_encoder.h"
#include "src/lsh/blocking_table.h"
#include "src/lsh/hamming_lsh.h"

namespace cbvlink {

class ThreadPool;

/// Source of candidate Ids for a probe vector; implemented by both the
/// record-level and the attribute-level blockers so the matcher is
/// agnostic to the blocking strategy.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Invokes `cb` for every candidate Id of `probe`, in blocking-group
  /// order.  Ids may repeat across groups (the matcher de-duplicates, as
  /// in Algorithm 2).
  virtual void ForEachCandidate(
      const BitVector& probe,
      const std::function<void(RecordId)>& cb) const = 0;

  /// Bucket-span variant of ForEachCandidate: invokes `cb` once per
  /// candidate group with a view of that group's Ids, in the same order
  /// ForEachCandidate would deliver them, so the matching engine iterates
  /// raw bucket storage with one indirect call per *group* instead of one
  /// std::function invocation per Id.  Spans are only valid for the
  /// duration of the callback.  The default adapter wraps
  /// ForEachCandidate with single-Id spans (exact same Ids and order);
  /// sources whose buckets are contiguous in memory override it.
  virtual void ForEachCandidateSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const RecordId>)> cb) const {
    ForEachCandidate(probe, [&cb](RecordId id) {
      cb(std::span<const RecordId>(&id, 1));
    });
  }
};

/// Record-level Hamming LSH blocker.
class RecordLevelBlocker : public CandidateSource {
 public:
  /// Creates a blocker for `num_bits`-wide record vectors with `K` base
  /// hashes per group; L is derived from Equation 2 for Hamming threshold
  /// `theta` and miss probability `delta`.
  static Result<RecordLevelBlocker> Create(size_t num_bits, size_t K,
                                           size_t theta, double delta,
                                           Rng& rng);

  /// Creates a blocker with an explicit number of groups L.
  static Result<RecordLevelBlocker> CreateWithL(size_t num_bits, size_t K,
                                                size_t L, Rng& rng);

  /// An empty blocker over `family`'s L composite keys whose buckets hold
  /// at most `bucket_cap` Ids each (0 = unlimited; see BlockingTable).
  explicit RecordLevelBlocker(HammingLshFamily family, size_t bucket_cap = 0)
      : family_(std::move(family)),
        tables_(family_.L(), BlockingTable(bucket_cap)) {}

  /// Inserts every record of data set A.  May be called repeatedly to add
  /// more records.
  void Index(const std::vector<EncodedRecord>& records);

  /// Bulk Index with a two-phase parallel build: phase 1 computes the
  /// L-wide blocking-key matrix sharded over `pool` (per-slot writes, so
  /// chunking cannot reorder anything); phase 2 merges each table's key
  /// column in record order.  The resulting tables are identical to
  /// Index() at any thread count — same buckets, same per-bucket id
  /// order, same counters.  Null `pool` (or a single worker) runs both
  /// phases inline; `min_chunk` only bounds phase-1 scheduling overhead.
  /// Into empty tables the merge sizes every bucket exactly
  /// (BlockingTable::BulkInsert).
  void BulkInsert(std::span<const EncodedRecord> records,
                  ThreadPool* pool = nullptr, size_t min_chunk = 0);

  /// Inserts a single record (streaming ingestion).
  void Insert(const EncodedRecord& record);

  void ForEachCandidate(
      const BitVector& probe,
      const std::function<void(RecordId)>& cb) const override;

  /// Emits each probed bucket as one span over the table's own storage —
  /// no per-Id callback, no copying.
  void ForEachCandidateSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const RecordId>)> cb) const override;

  /// True when one of the buckets `probe` maps to dropped Ids at the
  /// cap, so its candidates are incomplete.  Free while no bucket has
  /// overflowed; otherwise recomputes the L keys.
  bool ProbeOverflowed(const BitVector& probe) const;

  size_t L() const { return tables_.size(); }
  size_t K() const { return family_.K(); }

  /// Aggregate statistics over the L tables, for diagnostics.
  size_t TotalBuckets() const;
  size_t MaxBucketSize() const;

  /// The L blocking tables, for distribution diagnostics
  /// (eval/block_stats.h).
  const std::vector<BlockingTable>& tables() const { return tables_; }

  /// Snapshot restore of one bucket of group `group` (< L()); see
  /// BlockingTable::RestoreBucket.
  void RestoreBucket(size_t group, uint64_t key,
                     std::span<const RecordId> ids, bool overflowed) {
    tables_[group].RestoreBucket(key, ids, overflowed);
  }

 private:
  HammingLshFamily family_;
  std::vector<BlockingTable> tables_;
};

}  // namespace cbvlink

#endif  // CBVLINK_BLOCKING_RECORD_BLOCKER_H_
