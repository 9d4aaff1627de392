// The blocking hash table T_l (Section 4.2).
//
// A BlockingTable maps 64-bit composite blocking keys to buckets of record
// identifiers.  Per footnote 2 of the paper, only Ids are stored — the
// vectors themselves live with their owner.  The table also exposes bucket
// statistics, which the evaluation uses to diagnose the "few overpopulated
// buckets" failure mode of sparse q-gram vectors (Section 5.2).
//
// Layout (DESIGN.md §9): one open-addressing slot array of
// {key, offset, size, capacity} over a single contiguous RecordId array.
// A bucket is the range ids_[offset, offset + size).  BulkInsert into an
// empty table counts every key first, then gives each bucket exactly its
// size and fills it, so a bulk-built table is two flat allocations with
// no slack in the id array.  Insert grows a full bucket by relocating it
// to the end of the id array with doubled capacity (in place when it
// already sits at the end).  Probing is one hash, a short linear scan and
// a span over the id array; freeing the table frees two buffers.  Ids in
// a bucket stay in insertion order on every path.
//
// An optional bucket cap bounds the Section 5.2 "few overpopulated
// buckets" failure mode: once a bucket holds `bucket_cap` Ids, further
// Ids for its key are dropped and counted, and the slot's overflow bit
// is set so a caller can compensate (the service's scan fallback).  The
// bit lives in the slot's capacity word, so the cap costs no slot space
// and an uncapped table pays one predictable branch.  Insert and
// BulkInsert keep the first `bucket_cap` Ids in insertion order.

#ifndef CBVLINK_LSH_BLOCKING_TABLE_H_
#define CBVLINK_LSH_BLOCKING_TABLE_H_

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "src/common/hashing.h"
#include "src/common/record.h"

namespace cbvlink {

/// One blocking group's hash table: key -> bucket of Ids.
class BlockingTable {
 public:
  BlockingTable() = default;

  /// A table whose buckets hold at most `bucket_cap` Ids (0 = unlimited).
  explicit BlockingTable(size_t bucket_cap) : bucket_cap_(bucket_cap) {}

  /// Appends `id` to the bucket for `key`; when the bucket is at the cap,
  /// drops it instead and sets the bucket's overflow bit.
  void Insert(uint64_t key, RecordId id);

  /// Bulk merge primitive for the two-phase parallel index build:
  /// inserts ids[i] under keys[i] for i in [0, ids.size()), with the same
  /// contents as that sequence of Insert() calls (same per-bucket id
  /// order, same overflow bits, same counters).  `keys` holds at least
  /// ids.size() entries.  On an empty table it sizes every bucket exactly
  /// (count, then fill); on a non-empty one it falls back to Insert().
  void BulkInsert(std::span<const uint64_t> keys,
                  std::span<const RecordId> ids);

  /// Snapshot restore: appends `ids` to the bucket for `key` without
  /// applying the cap, and sets its overflow bit when `overflowed`.  An
  /// empty `ids` leaves the table unchanged (there is nothing to probe).
  void RestoreBucket(uint64_t key, std::span<const RecordId> ids,
                     bool overflowed);

  /// True when the bucket for `key` has dropped Ids at the cap.
  bool Overflowed(uint64_t key) const {
    if (num_overflowed_ == 0) return false;
    for (size_t pos = HomeSlot(key);; pos = (pos + 1) & slot_mask_) {
      const Slot& slot = slots_[pos];
      if (slot.capacity == 0) return false;
      if (slot.key == key) return slot.overflowed != 0;
    }
  }

  /// The bucket for `key`; empty when no record hashed there.  The span
  /// is valid until the next Insert/BulkInsert.
  std::span<const RecordId> Get(uint64_t key) const {
    if (slots_.empty()) return {};
    for (size_t pos = HomeSlot(key);; pos = (pos + 1) & slot_mask_) {
      const Slot& slot = slots_[pos];
      if (slot.capacity == 0) return {};
      if (slot.key == key) return {ids_.data() + slot.offset, slot.size};
    }
  }

  /// Number of non-empty buckets.
  size_t NumBuckets() const { return num_buckets_; }

  /// Total stored Ids across buckets.  O(1): maintained incrementally, so
  /// per-record diagnostics stay cheap on hot paths.
  size_t NumEntries() const { return num_entries_; }

  /// Size of the largest bucket (0 for an empty table).  O(1).
  size_t MaxBucketSize() const { return max_bucket_size_; }

  /// Buckets whose overflow bit is set, and Ids the cap dropped.  O(1).
  size_t NumOverflowed() const { return num_overflowed_; }
  size_t NumDropped() const { return num_dropped_; }

  /// Mean entries per non-empty bucket (0 for an empty table).  The
  /// Eq. 2 health signal: under the paper's model each table should
  /// spread records near-uniformly, so a mean far below the max flags
  /// the Section 5.2 "few overpopulated buckets" skew.
  double MeanBucketSize() const {
    return num_buckets_ == 0 ? 0
                             : static_cast<double>(num_entries_) /
                                   static_cast<double>(num_buckets_);
  }

  /// Log2 bucket-occupancy histogram: slot i counts buckets whose size
  /// s satisfies 2^i <= s < 2^(i+1) (slot 0 holds size-1 buckets; the
  /// last slot also absorbs anything larger).  This is the distribution
  /// blocking-method comparisons report, exported per table by the
  /// telemetry layer.
  std::vector<uint64_t> OccupancyHistogram(size_t slots = 16) const;

  /// Calls f(key, bucket) — or f(key, bucket, overflowed) when `f` takes
  /// three arguments — once per non-empty bucket, in slot order (not key
  /// or insertion order).  Each bucket's Ids are in insertion order.
  template <typename F>
  void ForEachBucket(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.capacity == 0) continue;
      const std::span<const RecordId> bucket(ids_.data() + slot.offset,
                                             slot.size);
      if constexpr (std::is_invocable_v<F, uint64_t,
                                        std::span<const RecordId>, bool>) {
        f(slot.key, bucket, slot.overflowed != 0);
      } else {
        f(slot.key, bucket);
      }
    }
  }

  /// Equal by content: the same keys, each with the same Ids in the same
  /// order and the same overflow bit, and the same drop count.  Slot
  /// placement and id-array slack do not matter.
  friend bool operator==(const BlockingTable& x, const BlockingTable& y);

 private:
  /// A claimed slot has capacity > 0; its bucket is
  /// ids_[offset, offset + size).  Sizes are 31-bit (a single bucket
  /// above 2^31 - 1 Ids aborts); offsets are 64-bit.  The top bit of the
  /// capacity word is the overflow bit.
  struct Slot {
    uint64_t key = 0;
    uint64_t offset = 0;
    uint32_t size = 0;
    uint32_t capacity : 31 = 0;
    uint32_t overflowed : 1 = 0;
  };

  size_t HomeSlot(uint64_t key) const {
    // Keys from bit-sampling families can be low-entropy in their low
    // bits; mix before masking.
    return static_cast<size_t>(Mix64(key)) & slot_mask_;
  }

  /// The slot holding `key`, claiming an empty one (capacity 0, key set)
  /// when absent; the caller gives a claimed slot capacity > 0 before
  /// the next call.  The slot array doubles only when a new key would
  /// pass the load limit.
  size_t FindOrClaimSlot(uint64_t key);

  /// Rehashes every claimed slot into `num_slots` (a power of two).
  void Rehash(size_t num_slots);

  /// Appends `id` to the bucket of the slot at `pos`, growing it as
  /// needed (the cap is the caller's business).
  void Append(size_t pos, RecordId id);

  /// Sets the overflow bit of the slot at `pos`.
  void MarkOverflowed(size_t pos);

  std::vector<Slot> slots_;
  size_t slot_mask_ = 0;
  std::vector<RecordId> ids_;
  size_t bucket_cap_ = 0;
  size_t num_buckets_ = 0;
  size_t num_entries_ = 0;
  size_t max_bucket_size_ = 0;
  size_t num_overflowed_ = 0;
  size_t num_dropped_ = 0;
};

}  // namespace cbvlink

#endif  // CBVLINK_LSH_BLOCKING_TABLE_H_
