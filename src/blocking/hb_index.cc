#include "src/blocking/hb_index.h"

#include <algorithm>

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
  std::vector<RecordId> ids(records.size());
  for (size_t i = 0; i < records.size(); ++i) ids[i] = records[i].id;
  InsertRows(
      ids, records.empty() ? 0 : records.front().bits.size(),
      [&](std::span<uint64_t* const> rows) {
        for (size_t i = 0; i < rows.size(); ++i) {
          // A row holds exactly the store's width.
          store_.CheckWidth(records[i].bits.size(), records[i].id);
          const std::vector<uint64_t>& words = records[i].bits.words();
          std::copy(words.begin(), words.end(), rows[i]);
        }
      },
      pool, min_chunk);
}

void HbIndex::InsertRows(std::span<const RecordId> ids, size_t num_bits,
                         RowsWriter write, ThreadPool* pool,
                         size_t min_chunk) {
  std::vector<uint32_t> slots;
  std::vector<uint64_t*> rows = store_.AddRows(ids, num_bits, &slots);
  const size_t stride = store_.words_per_record();
  const size_t spares = static_cast<size_t>(
      std::count(rows.begin(), rows.end(), nullptr));
  std::vector<uint64_t> spare(spares * stride, 0);
  uint64_t* next_spare = spare.data();
  for (uint64_t*& row : rows) {
    if (row != nullptr) continue;
    row = next_spare;
    next_spare += stride;
  }
  write(rows);
  blocker_.BulkInsert(ids, rows, slots, pool, min_chunk);
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
  std::vector<RecordId> ids(records.size());
  std::vector<uint32_t> slots(records.size());
  store_.Reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ids[i] = records[i].id;
    store_.Remove(ids[i]);
    slots[i] = store_.Add(records[i]);
  }
  blocker_.InsertKeys(ids, keys, slots);
}

size_t HbIndex::blocking_groups() const {
  size_t groups = 0;
  for (size_t s = 0; s < blocker_.num_structures(); ++s) {
    groups += blocker_.structure_L(s);
  }
  return groups;
}

}  // namespace cbvlink
