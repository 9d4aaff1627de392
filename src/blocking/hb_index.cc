#include "src/blocking/hb_index.h"

namespace cbvlink {

HbIndex::HbIndex(HbBlocker blocker)
    : blocker_(std::move(blocker)), matcher_(MakeMatcher()) {}

HbIndex::HbIndex(HbIndex&& other) noexcept
    : store_(std::move(other.store_)),
      blocker_(std::move(other.blocker_)),
      matcher_(MakeMatcher()) {}

HbIndex& HbIndex::operator=(HbIndex&& other) noexcept {
  store_ = std::move(other.store_);
  blocker_ = std::move(other.blocker_);
  matcher_ = MakeMatcher();
  return *this;
}

Matcher HbIndex::MakeMatcher() const {
  return Matcher(&blocker_, &store_);
}

HbIndex HbIndex::EmptyCopy(size_t bucket_cap) const {
  return HbIndex(blocker_.EmptyCopy(bucket_cap));
}

void HbIndex::Insert(const EncodedRecord& record) {
  const uint32_t slot = store_.Add(record);
  blocker_.Insert(record, slot);
}

void HbIndex::InsertAll(const std::vector<EncodedRecord>& records,
                        ThreadPool* pool, size_t min_chunk) {
  std::vector<uint32_t> slots;
  store_.AddAll(records, &slots);
  blocker_.BulkInsert(records, slots, pool, min_chunk);
}

void HbIndex::Put(const EncodedRecord& record) {
  store_.Remove(record.id);
  const uint32_t slot = store_.Add(record);
  blocker_.Insert(record, slot);
}

std::vector<uint64_t> HbIndex::KeyMatrix(
    std::span<const EncodedRecord> records, ThreadPool* pool) const {
  return blocker_.KeyMatrix(records, pool);
}

void HbIndex::PutAll(std::span<const EncodedRecord> records,
                     std::span<const uint64_t> keys) {
  std::vector<uint32_t> slots(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    store_.Remove(records[i].id);
    slots[i] = store_.Add(records[i]);
  }
  blocker_.InsertKeys(records, keys, slots);
}

size_t HbIndex::blocking_groups() const {
  size_t groups = 0;
  for (size_t s = 0; s < blocker_.num_structures(); ++s) {
    groups += blocker_.structure_L(s);
  }
  return groups;
}

}  // namespace cbvlink
