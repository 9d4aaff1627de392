#include "src/lsh/blocking_table.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace cbvlink {

namespace {

/// Smallest slot array; grows by doubling.
constexpr size_t kMinSlots = 8;

/// Entries per partition a bulk build into an empty table aims for, so
/// that a partition's range of the slot array and its counting table
/// stay cache-resident.  Up to this many entries make one partition.
constexpr size_t kBulkPartitionEntries = 2048;

/// Most hash bits a bulk build partitions by: each partition is one
/// stream the scatter writes to.
constexpr int kMaxPartitionBits = 10;

/// Slot-array load limit: at most 3/4 of the slots hold a bucket.
bool OverLoaded(size_t buckets, size_t num_slots) {
  return buckets * 4 > num_slots * 3;
}

/// Largest bucket a slot's 29-bit size field can describe.
constexpr uint64_t kMaxBucketEntries = (uint64_t{1} << 29) - 1;

/// Largest entry array a slot's 32-bit offset field can address.
constexpr uint64_t kMaxEntries = UINT32_MAX;

/// Aborts when a bucket would outgrow the size field or the entry array
/// the offset field.
void CheckLimits(uint64_t bucket_size, uint64_t entries) {
  if (bucket_size > kMaxBucketEntries || entries > kMaxEntries) {
    std::fprintf(stderr,
                 "cbvlink: blocking table exceeds %llu entries per bucket "
                 "or %llu in all; aborting\n",
                 static_cast<unsigned long long>(kMaxBucketEntries),
                 static_cast<unsigned long long>(kMaxEntries));
    std::abort();
  }
}

/// `value`, hidden from the optimizer.  A bulk build's "is this key
/// new?" is a coin flip; tested through Opaque it stays one predictable
/// loop branch and a conditional move, where jump threading would make it
/// a branch per comparison that mispredicts on about half the entries.
template <typename T>
T Opaque(T value) {
  asm("" : "+r"(value));
  return value;
}

}  // namespace

void BlockingTable::Rehash(size_t num_slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(num_slots, Slot{});
  slot_mask_ = num_slots - 1;
  slot_shift_ = 64 - std::countr_zero(num_slots);
  for (const Slot& slot : old) {
    if (slot.claimed == 0) continue;
    size_t pos = HomeSlot(slot.key);
    while (slots_[pos].claimed != 0) pos = (pos + 1) & slot_mask_;
    slots_[pos] = slot;
  }
}

size_t BlockingTable::FindOrClaimSlot(uint64_t key) {
  size_t pos = 0;
  if (!slots_.empty()) {
    for (pos = HomeSlot(key); slots_[pos].claimed != 0;
         pos = (pos + 1) & slot_mask_) {
      if (slots_[pos].key == key) return pos;
    }
  }
  // A new key.  Grow only now, so the slot array tracks the number of
  // distinct keys.
  if (slots_.empty() || OverLoaded(num_claimed_ + 1, slots_.size())) {
    Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    for (pos = HomeSlot(key); slots_[pos].claimed != 0;
         pos = (pos + 1) & slot_mask_) {
    }
  }
  Slot& slot = slots_[pos];
  slot.key = key;
  slot.claimed = 1;
  slot.exact = 1;
  ++num_claimed_;
  return pos;
}

void BlockingTable::Append(size_t pos, uint32_t entry) {
  Slot& slot = slots_[pos];
  const uint64_t capacity = Capacity(slot);
  if (slot.size == capacity) {
    const uint64_t grown = std::bit_ceil(uint64_t{slot.size} + 1);
    if (capacity != 0 && slot.offset + capacity == entries_.size()) {
      // Already the last region of the entry array: extend in place.
      CheckLimits(slot.size + 1, slot.offset + grown);
      entries_.resize(slot.offset + grown);
    } else {
      // Relocate to the end; the old region is left as slack.
      const uint64_t offset = entries_.size();
      CheckLimits(slot.size + 1, offset + grown);
      entries_.resize(offset + grown);
      std::copy_n(entries_.begin() + static_cast<ptrdiff_t>(slot.offset),
                  slot.size,
                  entries_.begin() + static_cast<ptrdiff_t>(offset));
      slot.offset = static_cast<uint32_t>(offset);
    }
    slot.exact = 0;
  }
  entries_[slot.offset + slot.size] = entry;
  ++slot.size;
  ++num_entries_;
  max_bucket_size_ = std::max<size_t>(max_bucket_size_, slot.size);
}

void BlockingTable::MarkOverflowed(size_t pos) {
  Slot& slot = slots_[pos];
  if (slot.overflowed == 0) {
    slot.overflowed = 1;
    ++num_overflowed_;
  }
}

void BlockingTable::Insert(uint64_t key, uint32_t slot) {
  const size_t pos = FindOrClaimSlot(key);
  if (bucket_cap_ != 0 && slots_[pos].size >= bucket_cap_) {
    MarkOverflowed(pos);
    ++num_dropped_;
    return;
  }
  Append(pos, slot);
}

void BlockingTable::BulkInsert(std::span<const uint64_t> keys,
                               std::span<const uint32_t> slots) {
  const size_t n = slots.size();
  // An input past kMaxEntries (which a build keeps only under the cap)
  // would overflow the partition bounds: it takes the Insert() path.
  if (num_claimed_ != 0 || n > kMaxEntries) {
    for (size_t i = 0; i < n; ++i) Insert(keys[i], slots[i]);
    return;
  }
  if (n == 0) return;
  // Scatter: group the entries by the top `bits` of their keys' mixed
  // hash, which are also the top bits of their home slots, so a
  // partition's keys own one contiguous range of the slot array.  The
  // scatter is stable: a partition keeps its entries in input order.
  // The slots go to the entry array itself: a partition's buckets later
  // fill at or below its range there, after it copies the range out.
  const int bits = std::min(
      kMaxPartitionBits,
      static_cast<int>(std::bit_width((n - 1) / kBulkPartitionEntries)));
  const auto part_of = [bits](uint64_t key) -> size_t {
    return bits == 0 ? 0 : Mix64(key) >> (64 - bits);
  };
  std::vector<uint32_t> bounds((size_t{1} << bits) + 1, 0);
  for (size_t i = 0; i < n; ++i) ++bounds[part_of(keys[i]) + 1];
  size_t largest = 0;
  for (size_t p = 1; p < bounds.size(); ++p) {
    largest = std::max<size_t>(largest, bounds[p]);
    bounds[p] += bounds[p - 1];
  }
  entries_.resize(n);
  std::vector<uint64_t> part_keys(n);
  {
    std::vector<uint32_t> next(bounds.begin(), bounds.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      const size_t at = next[part_of(keys[i])]++;
      part_keys[at] = keys[i];
      entries_[at] = slots[i];
    }
  }
  // A cache-sized table of one partition's keys at a time: a key is in
  // it while its stamp is the current one, so it is never cleared.
  struct Seen {
    uint64_t key = 0;
    uint32_t value = 0;  // first pass: entries so far; second: bucket id
    uint32_t stamp = 0;
  };
  std::vector<Seen> seen(
      std::bit_ceil(2 * std::min(largest, kBulkPartitionEntries)));
  uint32_t stamp = 1;  // a fresh Seen{} is in no partition
  // Finds the key's entry in `seen` (or the free one where it goes) and
  // returns it with whether the key is new.  The loop branch is taken
  // only on a collision; newness is left to the caller as a value.
  const auto find = [&](uint64_t key) -> std::pair<Seen&, uint32_t> {
    const size_t mask = seen.size() - 1;
    size_t pos = Mix64(key) & mask;
    while (Opaque<uint32_t>((seen[pos].stamp == stamp) &
                            (seen[pos].key != key))) {
      pos = (pos + 1) & mask;
    }
    return {seen[pos], Opaque<uint32_t>(seen[pos].stamp != stamp)};
  };
  // First pass: count each partition's distinct keys and the entries
  // the cap keeps, which size the arrays.  A partition with more
  // distinct keys than `seen` holds at half load doubles it and is
  // counted again, so the second pass never outgrows it.
  size_t distinct = 0;
  uint64_t kept = 0;
  for (size_t p = 0; p + 1 < bounds.size(); ++p) {
    uint32_t partition_distinct = 0;
    uint64_t partition_kept = 0;
    for (size_t j = bounds[p]; j < bounds[p + 1]; ++j) {
      const auto [entry, fresh] = find(part_keys[j]);
      const uint32_t count = (entry.value & (fresh - 1)) + 1;
      entry = Seen{part_keys[j], count, stamp};
      partition_distinct += fresh;
      partition_kept += bucket_cap_ == 0 || count <= bucket_cap_;
      if (partition_distinct * 2 > seen.size()) break;
    }
    ++stamp;
    if (partition_distinct * 2 > seen.size()) {
      seen.assign(seen.size() * 2, Seen{});
      --p;
      continue;
    }
    distinct += partition_distinct;
    kept += partition_kept;
  }
  size_t num_slots = kMinSlots;
  while (OverLoaded(distinct, num_slots)) num_slots *= 2;
  Rehash(num_slots);
  // Second pass, one partition at a time, so its probes stay in its
  // range of the slot array and its writes in its range of the entry
  // array: number the partition's distinct keys in the order they first
  // appear, place them, and fill their buckets back to back, each
  // exactly its size.  A bucket lies in one partition, so it fills in
  // input order and the cap keeps its first `bucket_cap_` entries.  The
  // entries fill below the partition's end, so its own range is copied
  // out first.
  struct Bucket {
    uint64_t key;
    uint32_t count;  // entries; once placed, those still to fill
    uint32_t next;   // once placed, where the next entry goes
  };
  std::vector<Bucket> buckets(largest + 1);
  std::vector<uint32_t> bucket_of(largest);
  std::vector<uint32_t> part_slots(largest);
  uint64_t offset = 0;
  for (size_t p = 0; p + 1 < bounds.size(); ++p) {
    const size_t begin = bounds[p];
    const size_t size = bounds[p + 1] - begin;
    uint32_t partition_distinct = 0;
    for (size_t t = 0; t < size; ++t) {
      const uint64_t key = part_keys[begin + t];
      const auto [entry, fresh] = find(key);
      const uint32_t bucket = (entry.value & (fresh - 1)) |
                              (partition_distinct & (0 - fresh));
      entry = Seen{key, bucket, stamp};
      buckets[partition_distinct] = Bucket{key, 0, 0};
      ++buckets[bucket].count;
      bucket_of[t] = bucket;
      partition_distinct += fresh;
    }
    ++stamp;
    for (size_t b = 0; b < partition_distinct; ++b) {
      Bucket& bucket = buckets[b];
      const uint64_t kept_size =
          bucket_cap_ == 0 ? bucket.count
                           : std::min<uint64_t>(bucket.count, bucket_cap_);
      CheckLimits(kept_size, offset + kept_size);
      // Each key is new to the slot array: take the first free slot.
      size_t pos = HomeSlot(bucket.key);
      while (slots_[pos].claimed != 0) pos = (pos + 1) & slot_mask_;
      Slot& slot = slots_[pos];
      slot.key = bucket.key;
      slot.offset = static_cast<uint32_t>(offset);
      slot.size = static_cast<uint32_t>(kept_size);
      slot.claimed = 1;
      slot.exact = 1;
      if (kept_size < bucket.count) {
        slot.overflowed = 1;
        ++num_overflowed_;
        num_dropped_ += bucket.count - kept_size;
      }
      max_bucket_size_ = std::max<size_t>(max_bucket_size_, kept_size);
      bucket.count = static_cast<uint32_t>(kept_size);
      bucket.next = static_cast<uint32_t>(offset);
      offset += kept_size;
    }
    num_claimed_ += partition_distinct;
    std::copy_n(entries_.begin() + static_cast<ptrdiff_t>(begin), size,
                part_slots.begin());
    for (size_t t = 0; t < size; ++t) {
      Bucket& bucket = buckets[bucket_of[t]];
      if (bucket.count == 0) continue;  // past the cap
      --bucket.count;
      entries_[bucket.next++] = part_slots[t];
    }
  }
  num_entries_ = kept;
  if (kept < n) {
    // The cap dropped entries: give back the room they held.
    entries_.resize(kept);
    entries_.shrink_to_fit();
  }
}

std::vector<uint64_t> BlockingTable::OccupancyHistogram(size_t slots) const {
  std::vector<uint64_t> histogram(std::max<size_t>(slots, 1), 0);
  ForEachBucket([&](uint64_t, std::span<const uint32_t> bucket) {
    const size_t slot = std::min(
        histogram.size() - 1,
        static_cast<size_t>(std::bit_width(bucket.size()) - 1));
    ++histogram[slot];
  });
  return histogram;
}

bool operator==(const BlockingTable& x, const BlockingTable& y) {
  if (x.NumBuckets() != y.NumBuckets() || x.NumEntries() != y.NumEntries() ||
      x.NumOverflowed() != y.NumOverflowed() ||
      x.NumDropped() != y.NumDropped()) {
    return false;
  }
  bool equal = true;
  x.ForEachBucket(
      [&](uint64_t key, std::span<const uint32_t> bucket, bool overflowed) {
        if (!equal) return;
        const std::span<const uint32_t> other = y.Get(key);
        equal = std::equal(bucket.begin(), bucket.end(), other.begin(),
                           other.end()) &&
                y.Overflowed(key) == overflowed;
      });
  return equal;
}

}  // namespace cbvlink
