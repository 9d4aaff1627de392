// The blocking hash table T_l (Section 4.2).
//
// A BlockingTable maps 64-bit composite blocking keys to buckets of
// record slots.  Per footnote 2 of the paper only references are stored —
// the vectors live with their owner.  A slot is a uint32_t position in
// the owner's storage: for the blockers it is the record's VectorStore
// arena slot (its dense index), so the matcher stamps and reads a
// candidate's row by the value it reads from the bucket, with no id hash
// on the way; HARRA and SMEB store positions in their input vectors.  The
// table also exposes bucket statistics, which the evaluation uses to
// diagnose the "few overpopulated buckets" failure mode of sparse q-gram
// vectors (Section 5.2).
//
// Layout (DESIGN.md §9): one open-addressing array of 16-byte slots
// {key, offset, size, flags} over a single contiguous uint32_t entry
// array (4 B per entry).  A bucket is the range entries_[offset, offset +
// size).  A key's home slot is the top log2(slots) bits of its mixed
// hash, so the keys that share their top b bits own one contiguous range
// of home slots.  BulkInsert into an empty table builds on that: one
// stable scatter groups the entries by the top bits of their hashes into
// partitions of about 2,048 entries, a cache-sized table per partition
// counts its distinct keys, the slot array is allocated once at the size
// Insert's doubling would reach, and each partition's keys are then
// placed and its buckets filled, each exactly its size, while its range
// of both arrays stays in cache.  A bulk-built table is two flat
// allocations with no slack in the entry array.  Insert grows a full
// bucket by relocating it to the end of the entry array with
// power-of-two capacity (in place when it already sits at the end).  A
// bucket's capacity is therefore never stored: it is its size when the
// bucket was laid out exactly, else the next power of two.  Entries in a
// bucket stay in insertion order on every path.
//
// Probing is one hash, a short linear scan and a span over the entry
// array.  ProbeBatch runs it key-first over a block of tables: all keys
// and home-slot prefetches first, then every bucket resolved with its
// first entry prefetched, then the spans in table order — so the L
// slot-array and entry-array misses of one probe overlap instead of
// running one after the other.
//
// An optional bucket cap bounds the Section 5.2 "few overpopulated
// buckets" failure mode: once a bucket holds `bucket_cap` entries, further
// entries for its key are dropped and counted, and the slot's overflow bit
// is set so a caller can compensate (the service's scan fallback).  The
// bit lives in the slot's size word, so the cap costs no slot space
// and an uncapped table pays one predictable branch.  Insert and
// BulkInsert keep the first `bucket_cap` entries in insertion order.

#ifndef CBVLINK_LSH_BLOCKING_TABLE_H_
#define CBVLINK_LSH_BLOCKING_TABLE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "src/common/hashing.h"

namespace cbvlink {

/// One blocking group's hash table: key -> bucket of slots.
class BlockingTable {
 public:
  BlockingTable() = default;

  /// A table whose buckets hold at most `bucket_cap` entries (0 =
  /// unlimited).
  explicit BlockingTable(size_t bucket_cap) : bucket_cap_(bucket_cap) {}

  /// Appends `slot` to the bucket for `key`; when the bucket is at the
  /// cap, drops it instead and sets the bucket's overflow bit.
  void Insert(uint64_t key, uint32_t slot);

  /// Bulk merge primitive for the two-phase parallel index build:
  /// inserts slots[i] under keys[i] for i in [0, slots.size()), with the
  /// same contents as that sequence of Insert() calls (same per-bucket
  /// order, same overflow bits, same counters).  `keys` holds at least
  /// slots.size() entries.  On an empty table it builds partition by
  /// partition (see the file comment), sizing every bucket exactly; on a
  /// non-empty one it falls back to Insert().
  void BulkInsert(std::span<const uint64_t> keys,
                  std::span<const uint32_t> slots);

  /// True when the bucket for `key` has dropped entries at the cap.
  bool Overflowed(uint64_t key) const {
    if (num_overflowed_ == 0) return false;
    for (size_t pos = HomeSlot(key);; pos = (pos + 1) & slot_mask_) {
      const Slot& slot = slots_[pos];
      if (slot.claimed == 0) return false;
      if (slot.key == key) return slot.overflowed != 0;
    }
  }

  /// The bucket for `key`; empty when no record hashed there.  The span
  /// is valid until the next Insert/BulkInsert.
  std::span<const uint32_t> Get(uint64_t key) const {
    bool overflowed = false;
    return Get(key, &overflowed);
  }

  /// Get(key), also setting `*overflowed` when the bucket has dropped
  /// entries at the cap (left as is otherwise).
  std::span<const uint32_t> Get(uint64_t key, bool* overflowed) const {
    if (slots_.empty()) return {};
    for (size_t pos = HomeSlot(key);; pos = (pos + 1) & slot_mask_) {
      const Slot& slot = slots_[pos];
      if (slot.claimed == 0) return {};
      if (slot.key == key) {
        *overflowed |= slot.overflowed != 0;
        return {entries_.data() + slot.offset, slot.size};
      }
    }
  }

  /// Prefetches the home slot of `key`, the first line a Get(key) reads.
  void PrefetchHome(uint64_t key) const {
    if (!slots_.empty()) __builtin_prefetch(slots_.data() + HomeSlot(key));
  }

  /// Number of non-empty buckets.
  size_t NumBuckets() const { return num_claimed_; }

  /// Total stored entries across buckets.  O(1): maintained incrementally, so
  /// per-record diagnostics stay cheap on hot paths.
  size_t NumEntries() const { return num_entries_; }

  /// Size of the largest bucket (0 for an empty table).  O(1).
  size_t MaxBucketSize() const { return max_bucket_size_; }

  /// Buckets whose overflow bit is set, and entries the cap dropped.
  /// O(1).
  size_t NumOverflowed() const { return num_overflowed_; }
  size_t NumDropped() const { return num_dropped_; }

  /// Mean entries per non-empty bucket (0 for an empty table).  The
  /// Eq. 2 health signal: under the paper's model each table should
  /// spread records near-uniformly, so a mean far below the max flags
  /// the Section 5.2 "few overpopulated buckets" skew.
  double MeanBucketSize() const {
    return NumBuckets() == 0 ? 0
                             : static_cast<double>(num_entries_) /
                                   static_cast<double>(NumBuckets());
  }

  /// Log2 bucket-occupancy histogram: slot i counts buckets whose size
  /// s satisfies 2^i <= s < 2^(i+1) (slot 0 holds size-1 buckets; the
  /// last slot also absorbs anything larger).  This is the distribution
  /// blocking-method comparisons report, exported per table by the
  /// telemetry layer.
  std::vector<uint64_t> OccupancyHistogram(size_t slots = 16) const;

  /// Calls f(key, bucket) — or f(key, bucket, overflowed) when `f` takes
  /// three arguments — once per bucket, in slot order (not key or
  /// insertion order).  Each bucket's entries are in insertion order.
  template <typename F>
  void ForEachBucket(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.claimed == 0) continue;
      const std::span<const uint32_t> bucket(entries_.data() + slot.offset,
                                             slot.size);
      if constexpr (std::is_invocable_v<F, uint64_t,
                                        std::span<const uint32_t>, bool>) {
        f(slot.key, bucket, slot.overflowed != 0);
      } else {
        f(slot.key, bucket);
      }
    }
  }

  /// Equal by content: the same keys, each with the same entries in the
  /// same order and the same overflow bit, and the same drop count.  Slot
  /// placement and entry-array slack do not matter.
  friend bool operator==(const BlockingTable& x, const BlockingTable& y);

 private:
  /// A claimed slot holds a bucket: entries_[offset, offset + size),
  /// with room for Capacity() entries.  Sizes are 29-bit (a single
  /// bucket above 2^29 - 1 entries aborts) and offsets 32-bit (an entry
  /// array past 2^32 - 1 entries aborts), so a slot fills 16 bytes and
  /// four share a cache line.
  struct Slot {
    uint64_t key = 0;
    uint32_t offset = 0;
    uint32_t size : 29 = 0;
    uint32_t claimed : 1 = 0;
    /// Capacity is exactly `size` (a bucket laid out by BulkInsert, or
    /// one claimed but not yet given room), not the next power of two.
    uint32_t exact : 1 = 0;
    uint32_t overflowed : 1 = 0;
  };
  static_assert(sizeof(Slot) == 16);

  /// Entries the bucket of `slot` has room for.
  static uint64_t Capacity(const Slot& slot) {
    return slot.exact != 0 ? slot.size : std::bit_ceil(uint64_t{slot.size});
  }

  size_t HomeSlot(uint64_t key) const {
    // Keys from bit-sampling families can be low-entropy; mix them.  The
    // top bits choose the slot, so the keys that share their top b bits
    // own one contiguous range of home slots (what BulkInsert's
    // partitions rely on).
    return static_cast<size_t>(Mix64(key) >> slot_shift_);
  }

  /// The slot holding `key`, claiming an empty one (an exact bucket of
  /// size 0) when absent.  The slot array doubles only when a new key
  /// would pass the load limit.
  size_t FindOrClaimSlot(uint64_t key);

  /// Rehashes every claimed slot into `num_slots` (a power of two).
  void Rehash(size_t num_slots);

  /// Appends `entry` to the bucket of the slot at `pos`, growing it as
  /// needed (the cap is the caller's business).
  void Append(size_t pos, uint32_t entry);

  /// Sets the overflow bit of the slot at `pos`.
  void MarkOverflowed(size_t pos);

  std::vector<Slot> slots_;
  size_t slot_mask_ = 0;
  /// 64 - log2(slots_.size()): HomeSlot keeps the top bits.
  int slot_shift_ = 64;
  std::vector<uint32_t> entries_;
  size_t bucket_cap_ = 0;
  /// Claimed slots: the buckets, and what the load limit counts.
  size_t num_claimed_ = 0;
  size_t num_entries_ = 0;
  size_t max_bucket_size_ = 0;
  size_t num_overflowed_ = 0;
  size_t num_dropped_ = 0;
};

/// A key-first probe over a block of tables: Add() computes nothing but
/// records a (table, key) pair and prefetches the table's home slot;
/// Flush() resolves every recorded bucket, prefetching its first entry,
/// and only then calls cb(bucket) for each non-empty one in Add order.
/// Holds at most kCapacity pairs on the stack, so a probe over any number
/// of tables allocates nothing: callers Flush() whenever full().  Flush()
/// returns true when one of the buckets it resolved has dropped entries
/// at its table's cap, so its candidates are incomplete.
class ProbeBatch {
 public:
  static constexpr size_t kCapacity = 16;

  bool full() const { return size_ == kCapacity; }

  void Add(const BlockingTable& table, uint64_t key) {
    table.PrefetchHome(key);
    tables_[size_] = &table;
    keys_[size_] = key;
    ++size_;
  }

  template <typename F>
  bool Flush(F&& cb) {
    bool overflowed = false;
    for (size_t i = 0; i < size_; ++i) {
      buckets_[i] = tables_[i]->Get(keys_[i], &overflowed);
      if (!buckets_[i].empty()) __builtin_prefetch(buckets_[i].data());
    }
    for (size_t i = 0; i < size_; ++i) {
      if (!buckets_[i].empty()) cb(buckets_[i]);
    }
    size_ = 0;
    return overflowed;
  }

 private:
  size_t size_ = 0;
  const BlockingTable* tables_[kCapacity];
  uint64_t keys_[kCapacity];
  std::span<const uint32_t> buckets_[kCapacity];
};

}  // namespace cbvlink

#endif  // CBVLINK_LSH_BLOCKING_TABLE_H_
