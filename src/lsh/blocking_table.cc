#include "src/lsh/blocking_table.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace cbvlink {

namespace {

/// Smallest slot array; grows by doubling.
constexpr size_t kMinSlots = 8;

/// Slot-array load limit: at most 3/4 of the slots hold a bucket.
bool OverLoaded(size_t buckets, size_t num_slots) {
  return buckets * 4 > num_slots * 3;
}

/// Largest bucket a slot's 31-bit capacity field can describe.
constexpr uint64_t kMaxBucketIds = (uint64_t{1} << 31) - 1;

/// Aborts when a bucket would outgrow the 31-bit capacity field.
void CheckBucketSize(uint64_t size) {
  if (size > kMaxBucketIds) {
    std::fprintf(stderr,
                 "cbvlink: blocking bucket exceeds %llu Ids; aborting\n",
                 static_cast<unsigned long long>(kMaxBucketIds));
    std::abort();
  }
}

}  // namespace

void BlockingTable::Rehash(size_t num_slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(num_slots, Slot{});
  slot_mask_ = num_slots - 1;
  for (const Slot& slot : old) {
    if (slot.capacity == 0) continue;
    size_t pos = HomeSlot(slot.key);
    while (slots_[pos].capacity != 0) pos = (pos + 1) & slot_mask_;
    slots_[pos] = slot;
  }
}

size_t BlockingTable::FindOrClaimSlot(uint64_t key) {
  size_t pos = 0;
  if (!slots_.empty()) {
    for (pos = HomeSlot(key); slots_[pos].capacity != 0;
         pos = (pos + 1) & slot_mask_) {
      if (slots_[pos].key == key) return pos;
    }
  }
  // A new key.  Grow only now, so the slot array tracks the number of
  // distinct keys.
  if (slots_.empty() || OverLoaded(num_buckets_ + 1, slots_.size())) {
    Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    for (pos = HomeSlot(key); slots_[pos].capacity != 0;
         pos = (pos + 1) & slot_mask_) {
    }
  }
  slots_[pos].key = key;
  ++num_buckets_;
  return pos;
}

void BlockingTable::Append(size_t pos, RecordId id) {
  Slot& slot = slots_[pos];
  if (slot.size == slot.capacity) {
    const uint64_t grown =
        slot.capacity == 0 ? 1 : uint64_t{slot.capacity} * 2;
    CheckBucketSize(grown);
    if (slot.capacity != 0 && slot.offset + slot.capacity == ids_.size()) {
      // Already the last region of the id array: extend in place.
      ids_.resize(slot.offset + grown);
    } else {
      // Relocate to the end with doubled capacity; the old region is
      // left as slack.
      const uint64_t offset = ids_.size();
      ids_.resize(offset + grown);
      std::copy_n(ids_.begin() + static_cast<ptrdiff_t>(slot.offset),
                  slot.size, ids_.begin() + static_cast<ptrdiff_t>(offset));
      slot.offset = offset;
    }
    slot.capacity = static_cast<uint32_t>(grown);
  }
  ids_[slot.offset + slot.size] = id;
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

void BlockingTable::Insert(uint64_t key, RecordId id) {
  const size_t pos = FindOrClaimSlot(key);
  if (bucket_cap_ != 0 && slots_[pos].size >= bucket_cap_) {
    MarkOverflowed(pos);
    ++num_dropped_;
    return;
  }
  Append(pos, id);
}

void BlockingTable::BulkInsert(std::span<const uint64_t> keys,
                               std::span<const RecordId> ids) {
  if (num_entries_ != 0) {
    for (size_t i = 0; i < ids.size(); ++i) {
      Insert(keys[i], ids[i]);
    }
    return;
  }
  // Count: claim one slot per distinct key, tallying its size into
  // capacity (the slot array grows to fit the distinct keys only).  An
  // Id past the cap is dropped here, so the fill below keeps each
  // bucket's first `bucket_cap_` Ids.
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t pos = FindOrClaimSlot(keys[i]);
    Slot& slot = slots_[pos];
    if (bucket_cap_ != 0 && slot.capacity >= bucket_cap_) {
      MarkOverflowed(pos);
      ++num_dropped_;
      continue;
    }
    CheckBucketSize(uint64_t{slot.capacity} + 1);
    slot.capacity = slot.capacity + 1;
  }
  // Size: lay the buckets out back to back, each exactly its count.
  uint64_t offset = 0;
  for (Slot& slot : slots_) {
    if (slot.capacity == 0) continue;
    slot.offset = offset;
    offset += slot.capacity;
    max_bucket_size_ = std::max<size_t>(max_bucket_size_, slot.capacity);
  }
  // Fill, in input order, so each bucket keeps insertion order.  A full
  // bucket only happens under the cap: its later Ids were dropped above.
  ids_.resize(offset);
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint64_t key = keys[i];
    // The key's slot comes before any empty slot on its probe path.
    size_t pos = HomeSlot(key);
    while (slots_[pos].key != key) pos = (pos + 1) & slot_mask_;
    Slot& slot = slots_[pos];
    if (slot.size == slot.capacity) continue;
    ids_[slot.offset + slot.size] = ids[i];
    ++slot.size;
  }
  num_entries_ = offset;
}

void BlockingTable::RestoreBucket(uint64_t key,
                                  std::span<const RecordId> ids,
                                  bool overflowed) {
  if (ids.empty()) return;
  const size_t pos = FindOrClaimSlot(key);
  for (const RecordId id : ids) Append(pos, id);
  if (overflowed) MarkOverflowed(pos);
}

std::vector<uint64_t> BlockingTable::OccupancyHistogram(size_t slots) const {
  std::vector<uint64_t> histogram(std::max<size_t>(slots, 1), 0);
  ForEachBucket([&](uint64_t, std::span<const RecordId> bucket) {
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
      [&](uint64_t key, std::span<const RecordId> bucket, bool overflowed) {
        if (!equal) return;
        const std::span<const RecordId> other = y.Get(key);
        equal = std::equal(bucket.begin(), bucket.end(), other.begin(),
                           other.end()) &&
                y.Overflowed(key) == overflowed;
      });
  return equal;
}

}  // namespace cbvlink
