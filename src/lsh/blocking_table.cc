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

}  // namespace

void BlockingTable::Rehash(size_t num_slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(num_slots, Slot{});
  slot_mask_ = num_slots - 1;
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
    // An empty bucket kept for its overflow bit counts again from here.
    if (slot.size == 0 && slot.overflowed != 0) --num_kept_empty_;
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
  if (num_claimed_ != 0) {
    for (size_t i = 0; i < slots.size(); ++i) {
      Insert(keys[i], slots[i]);
    }
    return;
  }
  // Count: claim one slot per distinct key, tallying its size (the slot
  // array grows to fit the distinct keys only).  An entry past the cap
  // is dropped here, so the fill below keeps each bucket's first
  // `bucket_cap_` entries.
  for (size_t i = 0; i < slots.size(); ++i) {
    const size_t pos = FindOrClaimSlot(keys[i]);
    Slot& slot = slots_[pos];
    if (bucket_cap_ != 0 && slot.size >= bucket_cap_) {
      MarkOverflowed(pos);
      ++num_dropped_;
      continue;
    }
    CheckLimits(slot.size + 1, 0);
    ++slot.size;
  }
  // Size: lay the buckets out back to back, each exactly its count, and
  // start every bucket's fill cursor at its first entry.
  uint64_t offset = 0;
  std::vector<uint32_t> cursor(slots_.size(), 0);
  for (size_t pos = 0; pos < slots_.size(); ++pos) {
    Slot& slot = slots_[pos];
    if (slot.claimed == 0) continue;
    CheckLimits(0, offset + slot.size);
    slot.offset = static_cast<uint32_t>(offset);
    cursor[pos] = static_cast<uint32_t>(offset);
    offset += slot.size;
    max_bucket_size_ = std::max<size_t>(max_bucket_size_, slot.size);
  }
  // Fill, in input order, so each bucket keeps insertion order.  A full
  // bucket only happens under the cap: its later entries were dropped
  // above.
  entries_.resize(offset);
  for (size_t i = 0; i < slots.size(); ++i) {
    const uint64_t key = keys[i];
    // The key's slot comes before any empty slot on its probe path.
    size_t pos = HomeSlot(key);
    while (slots_[pos].key != key) pos = (pos + 1) & slot_mask_;
    const Slot& slot = slots_[pos];
    if (cursor[pos] == slot.offset + slot.size) continue;
    entries_[cursor[pos]++] = slots[i];
  }
  num_entries_ = offset;
}

void BlockingTable::RestoreBucket(uint64_t key,
                                  std::span<const uint32_t> slots,
                                  bool overflowed) {
  if (slots.empty() && !overflowed) return;
  const size_t pos = FindOrClaimSlot(key);
  for (const uint32_t slot : slots) Append(pos, slot);
  if (overflowed) {
    if (slots_[pos].size == 0 && slots_[pos].overflowed == 0) {
      ++num_kept_empty_;
    }
    MarkOverflowed(pos);
  }
}

std::vector<uint64_t> BlockingTable::OccupancyHistogram(size_t slots) const {
  std::vector<uint64_t> histogram(std::max<size_t>(slots, 1), 0);
  ForEachBucket([&](uint64_t, std::span<const uint32_t> bucket) {
    if (bucket.empty()) return;
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
