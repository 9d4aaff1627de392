#include "src/blocking/hb_index.h"

namespace cbvlink {

HbIndex::HbIndex(Blocker blocker)
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
  return Matcher(
      std::visit([](const auto& b) -> const CandidateSource* { return &b; },
                 blocker_),
      &store_);
}

HbIndex HbIndex::EmptyCopy(size_t bucket_cap) const {
  return HbIndex(std::visit(
      [&](const auto& b) -> Blocker { return b.EmptyCopy(bucket_cap); },
      blocker_));
}

void HbIndex::Insert(const EncodedRecord& record) {
  const uint32_t slot = store_.Add(record);
  std::visit([&](auto& b) { b.Insert(record, slot); }, blocker_);
}

void HbIndex::InsertAll(const std::vector<EncodedRecord>& records,
                        ThreadPool* pool, size_t min_chunk) {
  std::vector<uint32_t> slots;
  store_.AddAll(records, &slots);
  std::visit([&](auto& b) { b.BulkInsert(records, slots, pool, min_chunk); },
             blocker_);
}

void HbIndex::Put(const EncodedRecord& record) {
  store_.Remove(record.id);
  const uint32_t slot = store_.Add(record);
  std::visit([&](auto& b) { b.Insert(record, slot); }, blocker_);
}

std::vector<uint64_t> HbIndex::KeyMatrix(
    std::span<const EncodedRecord> records, ThreadPool* pool) const {
  return std::visit([&](const auto& b) { return b.KeyMatrix(records, pool); },
                    blocker_);
}

void HbIndex::PutAll(std::span<const EncodedRecord> records,
                     std::span<const uint64_t> keys) {
  std::vector<uint32_t> slots(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    store_.Remove(records[i].id);
    slots[i] = store_.Add(records[i]);
  }
  std::visit([&](auto& b) { b.InsertKeys(records, keys, slots); }, blocker_);
}

size_t HbIndex::blocking_groups() const {
  if (const auto* b = std::get_if<RecordLevelBlocker>(&blocker_)) {
    return b->L();
  }
  const auto& b = std::get<AttributeLevelBlocker>(blocker_);
  size_t groups = 0;
  for (size_t s = 0; s < b.num_structures(); ++s) groups += b.structure_L(s);
  return groups;
}

}  // namespace cbvlink
