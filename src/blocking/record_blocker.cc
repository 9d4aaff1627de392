#include "src/blocking/record_blocker.h"

#include <cstdio>

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

void RecordLevelBlocker::Index(const std::vector<EncodedRecord>& records) {
  for (const EncodedRecord& record : records) Insert(record);
}

void RecordLevelBlocker::BulkInsert(std::span<const EncodedRecord> records,
                                    ThreadPool* pool, size_t min_chunk) {
  telemetry::Registry& reg = telemetry::Registry::Global();
  telemetry::ScopedTimer timer(
      reg.GetHistogram("index_build_batch_latency_us"));
  const size_t L = tables_.size();
  const bool serial =
      pool == nullptr || pool->num_threads() <= 1 || records.size() <= 1;
  const auto parallel_for =
      [&](size_t total, size_t chunk,
          const std::function<void(size_t, size_t, size_t)>& fn) {
        if (serial) {
          fn(0, 0, total);
        } else {
          pool->ParallelFor(total, chunk, fn);
        }
      };
  // Phase 1: the key matrix, one contiguous column per table
  // (keys[l * n + i]), sharded over records.  Every slot is written by
  // exactly one chunk, so the matrix is independent of the chunking.
  const size_t n = records.size();
  std::vector<uint64_t> keys(n * L);
  std::vector<RecordId> ids(n);
  parallel_for(n, min_chunk, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ids[i] = records[i].id;
      for (size_t l = 0; l < L; ++l) {
        keys[l * n + i] = family_.Key(records[i].bits, l);
      }
    }
  });
  // Phase 2: per-table merge in record order — each table is owned by
  // one chunk, and the column walk reproduces the serial insertion
  // sequence exactly.
  parallel_for(L, 0, [&](size_t, size_t begin, size_t end) {
    for (size_t l = begin; l < end; ++l) {
      tables_[l].BulkInsert({keys.data() + l * n, n}, ids);
    }
  });
  reg.GetCounter("index_build_records_total")->Add(records.size());
}

void RecordLevelBlocker::Insert(const EncodedRecord& record) {
  for (size_t l = 0; l < tables_.size(); ++l) {
    tables_[l].Insert(family_.Key(record.bits, l), record.id);
  }
}

void RecordLevelBlocker::ForEachCandidate(
    const BitVector& probe, const std::function<void(RecordId)>& cb) const {
  for (size_t l = 0; l < tables_.size(); ++l) {
    for (RecordId id : tables_[l].Get(family_.Key(probe, l))) {
      cb(id);
    }
  }
}

void RecordLevelBlocker::ForEachCandidateSpan(
    const BitVector& probe,
    FunctionRef<void(std::span<const RecordId>)> cb) const {
  for (size_t l = 0; l < tables_.size(); ++l) {
    const std::span<const RecordId> bucket =
        tables_[l].Get(family_.Key(probe, l));
    if (!bucket.empty()) cb(bucket);
  }
}

bool RecordLevelBlocker::ProbeOverflowed(const BitVector& probe) const {
  for (size_t l = 0; l < tables_.size(); ++l) {
    if (tables_[l].NumOverflowed() != 0 &&
        tables_[l].Overflowed(family_.Key(probe, l))) {
      return true;
    }
  }
  return false;
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
