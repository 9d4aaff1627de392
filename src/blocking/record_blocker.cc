#include "src/blocking/record_blocker.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "src/common/thread_pool.h"
#include "src/lsh/params.h"
#include "src/telemetry/metrics.h"

namespace cbvlink {

namespace {

/// Effective K for an m-bit space.  Distinct sampling cannot draw more
/// positions than the range holds; a larger configured K never added
/// selectivity anyway (the extra draws were guaranteed duplicates under
/// the old with-replacement sampling), so it is clamped with a notice
/// rather than rejected.
size_t ClampK(size_t K, size_t num_bits, const char* what) {
  if (K <= num_bits) return K;
  std::fprintf(stderr,
               "cbvlink: %s K = %zu exceeds the %zu-bit space; clamping "
               "to %zu (distinct bit positions)\n",
               what, K, num_bits, num_bits);
  return num_bits;
}

}  // namespace

Result<RecordLevelBlocker> RecordLevelBlocker::Create(size_t num_bits,
                                                      size_t K, size_t theta,
                                                      double delta, Rng& rng) {
  K = ClampK(K, num_bits, "record-level");
  Result<double> p = HammingBaseProbability(theta, num_bits);
  if (!p.ok()) return p.status();
  Result<size_t> L = OptimalGroups(p.value(), K, delta);
  if (!L.ok()) return L.status();
  return CreateWithL(num_bits, K, L.value(), rng);
}

Result<RecordLevelBlocker> RecordLevelBlocker::CreateWithL(size_t num_bits,
                                                           size_t K, size_t L,
                                                           Rng& rng) {
  K = ClampK(K, num_bits, "record-level");
  Result<HammingLshFamily> family =
      HammingLshFamily::CreateFull(K, L, num_bits, rng);
  if (!family.ok()) return family.status();
  return RecordLevelBlocker(std::move(family).value());
}

void SlotCandidateSource::ForEachCandidate(
    const BitVector& probe, const std::function<void(RecordId)>& cb) const {
  ForEachSlotSpan(probe, [&](std::span<const uint32_t> bucket) {
    for (const uint32_t slot : bucket) cb(slot_ids_[slot]);
  });
}

void SlotCandidateSource::ForEachCandidateSpan(
    const BitVector& probe,
    FunctionRef<void(std::span<const RecordId>)> cb) const {
  constexpr size_t kChunk = 64;
  RecordId ids[kChunk];
  ForEachSlotSpan(probe, [&](std::span<const uint32_t> bucket) {
    for (size_t first = 0; first < bucket.size(); first += kChunk) {
      const size_t n = std::min(kChunk, bucket.size() - first);
      for (size_t i = 0; i < n; ++i) ids[i] = slot_ids_[bucket[first + i]];
      cb(std::span<const RecordId>(ids, n));
    }
  });
}

void SlotCandidateSource::AssignSlots(std::span<const EncodedRecord> records,
                                      std::span<const uint32_t> slots) {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] >= slot_ids_.size()) slot_ids_.resize(size_t{slots[i]} + 1);
    slot_ids_[slots[i]] = records[i].id;
  }
}

std::vector<uint32_t> SlotCandidateSource::NextSlots(size_t n) const {
  std::vector<uint32_t> slots(n);
  std::iota(slots.begin(), slots.end(),
            static_cast<uint32_t>(slot_ids_.size()));
  return slots;
}

void RecordLevelBlocker::BulkInsert(std::span<const EncodedRecord> records,
                                    ThreadPool* pool, size_t min_chunk) {
  BulkInsert(records, NextSlots(records.size()), pool, min_chunk);
}

void RecordLevelBlocker::BulkInsert(std::span<const EncodedRecord> records,
                                    std::span<const uint32_t> slots,
                                    ThreadPool* pool, size_t min_chunk) {
  telemetry::Registry& reg = telemetry::Registry::Global();
  telemetry::ScopedTimer timer(
      reg.GetHistogram("index_build_batch_latency_us"));
  InsertKeys(records, KeyMatrix(records, pool, min_chunk), slots, pool);
  reg.GetCounter("index_build_records_total")->Add(records.size());
}

std::vector<uint64_t> RecordLevelBlocker::KeyMatrix(
    std::span<const EncodedRecord> records, ThreadPool* pool,
    size_t min_chunk) const {
  // One contiguous column per table (keys[l * n + i]), sharded over
  // records.  Every cell is written by exactly one chunk, so the matrix
  // is independent of the chunking.
  const size_t L = tables_.size();
  const size_t n = records.size();
  std::vector<uint64_t> keys(n * L);
  ParallelForOrInline(pool, n, min_chunk,
                      [&](size_t, size_t begin, size_t end) {
                        KeyBuffer row(L);
                        for (size_t i = begin; i < end; ++i) {
                          family_.Keys(records[i].bits, row.span());
                          for (size_t l = 0; l < L; ++l) {
                            keys[l * n + i] = row[l];
                          }
                        }
                      });
  return keys;
}

void RecordLevelBlocker::InsertKeys(std::span<const EncodedRecord> records,
                                    std::span<const uint64_t> keys,
                                    std::span<const uint32_t> slots,
                                    ThreadPool* pool) {
  AssignSlots(records, slots);
  // Per-table merge in record order — each table is owned by one chunk,
  // and the column walk reproduces the serial insertion sequence
  // exactly.
  const size_t n = slots.size();
  ParallelForOrInline(n <= 1 ? nullptr : pool, tables_.size(), 0,
                      [&](size_t, size_t begin, size_t end) {
                        for (size_t l = begin; l < end; ++l) {
                          tables_[l].BulkInsert(keys.subspan(l * n, n),
                                                slots);
                        }
                      });
}

void RecordLevelBlocker::Insert(const EncodedRecord& record, uint32_t slot) {
  AssignSlots({&record, 1}, {&slot, 1});
  KeyBuffer keys(tables_.size());
  family_.Keys(record.bits, keys.span());
  for (size_t l = 0; l < tables_.size(); ++l) {
    tables_[l].Insert(keys[l], slot);
  }
}

bool RecordLevelBlocker::ForEachSlotSpan(
    const BitVector& probe,
    FunctionRef<void(std::span<const uint32_t>)> cb) const {
  KeyBuffer keys(tables_.size());
  family_.Keys(probe, keys.span());
  ProbeBatch batch;
  bool overflowed = false;
  for (size_t l = 0; l < tables_.size(); ++l) {
    batch.Add(tables_[l], keys[l]);
    if (batch.full()) overflowed |= batch.Flush(cb);
  }
  return batch.Flush(cb) || overflowed;
}

size_t RecordLevelBlocker::TotalBuckets() const {
  size_t total = 0;
  for (const BlockingTable& table : tables_) total += table.NumBuckets();
  return total;
}

size_t RecordLevelBlocker::MaxBucketSize() const {
  size_t best = 0;
  for (const BlockingTable& table : tables_) {
    best = std::max(best, table.MaxBucketSize());
  }
  return best;
}

}  // namespace cbvlink
