#include "src/lsh/blocking_table.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace cbvlink {

namespace {

/// Smallest slot array; grows by doubling.
constexpr size_t kMinSlots = 8;

/// Slot-array load limit: at most 3/4 of the slots hold a bucket.
bool OverLoaded(size_t buckets, size_t num_slots) {
  return buckets * 4 > num_slots * 3;
}

/// Aborts when a bucket would outgrow the 32-bit size field.
void CheckBucketSize(uint64_t size) {
  if (size > std::numeric_limits<uint32_t>::max()) {
    std::fprintf(stderr,
                 "cbvlink: blocking bucket exceeds %u Ids; aborting\n",
                 std::numeric_limits<uint32_t>::max());
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

void BlockingTable::Insert(uint64_t key, RecordId id) {
  const size_t pos = FindOrClaimSlot(key);
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

void BlockingTable::BulkInsert(std::span<const uint64_t> keys,
                               std::span<const RecordId> ids) {
  if (num_entries_ != 0) {
    for (size_t i = 0; i < ids.size(); ++i) {
      Insert(keys[i], ids[i]);
    }
    return;
  }
  // Count: claim one slot per distinct key, tallying its size into
  // capacity (the slot array grows to fit the distinct keys only).
  for (size_t i = 0; i < ids.size(); ++i) {
    Slot& slot = slots_[FindOrClaimSlot(keys[i])];
    CheckBucketSize(uint64_t{slot.capacity} + 1);
    ++slot.capacity;
  }
  // Size: lay the buckets out back to back, each exactly its count.
  uint64_t offset = 0;
  for (Slot& slot : slots_) {
    if (slot.capacity == 0) continue;
    slot.offset = offset;
    offset += slot.capacity;
    max_bucket_size_ = std::max<size_t>(max_bucket_size_, slot.capacity);
  }
  // Fill, in input order, so each bucket keeps insertion order.
  ids_.resize(offset);
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint64_t key = keys[i];
    // The key's slot comes before any empty slot on its probe path.
    size_t pos = HomeSlot(key);
    while (slots_[pos].key != key) pos = (pos + 1) & slot_mask_;
    Slot& slot = slots_[pos];
    ids_[slot.offset + slot.size] = ids[i];
    ++slot.size;
  }
  num_entries_ = ids.size();
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
  if (x.NumBuckets() != y.NumBuckets() || x.NumEntries() != y.NumEntries()) {
    return false;
  }
  bool equal = true;
  x.ForEachBucket([&](uint64_t key, std::span<const RecordId> bucket) {
    if (!equal) return;
    const std::span<const RecordId> other = y.Get(key);
    equal = std::equal(bucket.begin(), bucket.end(), other.begin(),
                       other.end());
  });
  return equal;
}

}  // namespace cbvlink
