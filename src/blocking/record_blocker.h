// Standard record-level HB blocking (Section 4.2).
//
// The blocker samples K bit positions uniformly from the *whole*
// record-level vector for each of L blocking groups, inserts data set A's
// vectors into the groups' hash tables, and serves candidate Ids for each
// probe vector from data set B.  This is the baseline that Section 5.4's
// attribute-level blocking improves upon.

#ifndef CBVLINK_BLOCKING_RECORD_BLOCKER_H_
#define CBVLINK_BLOCKING_RECORD_BLOCKER_H_

#include <algorithm>
#include <cstdint>
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

  /// Bucket-span variant of ForEachCandidate: invokes `cb` with views of
  /// the candidate Ids, in the same order ForEachCandidate would deliver
  /// them, so a caller pays one indirect call per span instead of one
  /// std::function invocation per Id.  Spans are only valid for the
  /// duration of the callback.  The default adapter wraps
  /// ForEachCandidate with single-Id spans (exact same Ids and order).
  virtual void ForEachCandidateSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const RecordId>)> cb) const {
    ForEachCandidate(probe, [&cb](RecordId id) {
      cb(std::span<const RecordId>(&id, 1));
    });
  }
};

/// A candidate source whose tables hold arena slots (the blockers): the
/// slot of a record is its VectorStore dense index, so the matcher stamps
/// and gathers by the value it reads from a bucket.  Every writer passes
/// the slot VectorStore::Add / AddAll gave its record, so the store alone
/// decides slots (a repeated id keeps its first slot).  A slot -> id
/// column keeps the Id-addressed CandidateSource interface callable as a
/// thin view.
class SlotCandidateSource : public CandidateSource {
 public:
  /// Invokes `cb` once per non-empty probed bucket with that bucket's
  /// slots, in blocking-group order (repeats across groups included).
  /// Returns true when a probed bucket has dropped entries at its cap,
  /// so the candidates are incomplete.
  virtual bool ForEachSlotSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const = 0;

  /// False when a pair can collide in the probed tables without being
  /// formulated by the source's rule (a compound rule's NOT, or an AND
  /// of structures of which only one is probed).  The matcher then runs
  /// FilterFormulated once per probe over its fresh candidates.
  virtual bool FormulatesEveryPair() const { return true; }

  /// For each i, sets keep[i] to 1 when the vector in row
  /// rows + slots[i] * stride (`stride` words) forms a pair with `probe`
  /// that the rule formulates, and to 0 otherwise.  Called only when
  /// FormulatesEveryPair() is false.
  virtual void FilterFormulated(const BitVector& /*probe*/,
                                const uint64_t* /*rows*/, size_t /*stride*/,
                                std::span<const uint32_t> slots,
                                uint8_t* keep) const {
    std::fill(keep, keep + slots.size(), uint8_t{1});
  }

  /// ForEachSlotSpan with every slot mapped to its RecordId.
  void ForEachCandidate(
      const BitVector& probe,
      const std::function<void(RecordId)>& cb) const final;

  /// ForEachSlotSpan mapped to RecordIds through a small stack buffer: a
  /// bucket may arrive as several consecutive spans.
  void ForEachCandidateSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const RecordId>)> cb) const final;

  /// One past the largest slot written so far; every slot in the tables
  /// is below it.
  size_t num_slots() const { return slot_ids_.size(); }

  /// The RecordId written with `slot` (< num_slots()).
  RecordId SlotId(uint32_t slot) const { return slot_ids_[slot]; }

 protected:
  /// Records that `slots[i]` holds `records[i]`'s id, growing the column
  /// as needed.  Every writer calls it.
  void AssignSlots(std::span<const EncodedRecord> records,
                   std::span<const uint32_t> slots);

  /// The slots [num_slots(), num_slots() + n), for the id-taking
  /// BulkInsert shims.
  std::vector<uint32_t> NextSlots(size_t n) const;

 private:
  /// slot -> RecordId; slots never written read as 0.
  std::vector<RecordId> slot_ids_;
};

/// Record-level Hamming LSH blocker.
class RecordLevelBlocker : public SlotCandidateSource {
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
  /// at most `bucket_cap` slots each (0 = unlimited; see BlockingTable).
  explicit RecordLevelBlocker(HammingLshFamily family, size_t bucket_cap = 0)
      : family_(std::move(family)),
        tables_(family_.L(), BlockingTable(bucket_cap)) {}

  /// An empty blocker over the same family whose buckets hold at most
  /// `bucket_cap` slots.
  RecordLevelBlocker EmptyCopy(size_t bucket_cap) const {
    return RecordLevelBlocker(family_, bucket_cap);
  }

  /// Inserts data set A's records, record i at `slots[i]` (the slot
  /// VectorStore::Add / AddAll returned for it), with a two-phase
  /// parallel build: phase 1 (KeyMatrix) computes the L-wide
  /// blocking-key matrix sharded over `pool` (per-cell writes, so
  /// chunking cannot reorder anything); phase 2 (InsertKeys) merges each
  /// table's key column in record order.  The resulting tables are
  /// identical to an Insert() loop at any thread count — same buckets,
  /// same per-bucket order, same counters.  Null `pool` (or a single
  /// worker) runs both phases inline; `min_chunk` only bounds phase-1
  /// scheduling overhead.  Into empty tables the merge sizes every
  /// bucket exactly (BlockingTable::BulkInsert).  May be called
  /// repeatedly to add more records.
  void BulkInsert(std::span<const EncodedRecord> records,
                  std::span<const uint32_t> slots, ThreadPool* pool = nullptr,
                  size_t min_chunk = 0);

  /// Id-only shim for callers that fill the store on their own: record
  /// i goes to slot num_slots() + i.  That equals VectorStore::AddAll's
  /// slots only when every id is distinct; a repeated id gets its first
  /// slot from the store but a fresh one here, the tables then outrun
  /// the store, and Matcher::Probe aborts.  Pass the store's slots to
  /// the overload above whenever ids may repeat.
  void BulkInsert(std::span<const EncodedRecord> records,
                  ThreadPool* pool = nullptr, size_t min_chunk = 0);

  /// Phase 1 of BulkInsert: the key matrix of `records`, one contiguous
  /// column per table (keys[l * n + i]).  Reads only the hash family, so
  /// it may run while another thread writes the tables.
  std::vector<uint64_t> KeyMatrix(std::span<const EncodedRecord> records,
                                  ThreadPool* pool = nullptr,
                                  size_t min_chunk = 0) const;

  /// Phase 2 of BulkInsert: merges `keys`, the KeyMatrix of `records`,
  /// with record i at `slots[i]`, one table per pool chunk (inline when
  /// `pool` is null).
  void InsertKeys(std::span<const EncodedRecord> records,
                  std::span<const uint64_t> keys,
                  std::span<const uint32_t> slots, ThreadPool* pool = nullptr);

  /// Inserts a single record (streaming ingestion) at `slot`.
  void Insert(const EncodedRecord& record, uint32_t slot);

  /// The probe computes the L keys in one pass, then runs key-first
  /// (BlockingTable's ProbeBatch): the home-slot prefetches of a block of
  /// tables, then the buckets, then the spans.  Each span views the
  /// table's own storage.
  bool ForEachSlotSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override;

  size_t L() const { return tables_.size(); }
  size_t K() const { return family_.K(); }

  /// Aggregate statistics over the L tables, for diagnostics.
  size_t TotalBuckets() const;
  size_t MaxBucketSize() const;

  /// The L blocking tables, for distribution diagnostics
  /// (eval/block_stats.h).
  const std::vector<BlockingTable>& tables() const { return tables_; }

 private:
  HammingLshFamily family_;
  std::vector<BlockingTable> tables_;
};

}  // namespace cbvlink

#endif  // CBVLINK_BLOCKING_RECORD_BLOCKER_H_
