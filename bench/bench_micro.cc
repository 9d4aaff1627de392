// Microbenchmarks (google-benchmark) of the hot paths: Hamming distance
// on compact vectors, c-vector encoding of one attribute and of a whole
// record, edit distance, and LSH key computation.  These are the per-pair / per-record costs behind the
// figure-level results.

#include <benchmark/benchmark.h>

#include "src/common/bitvector.h"
#include "src/common/random.h"
#include "src/datagen/generators.h"
#include "src/embedding/cvector.h"
#include "src/embedding/bloom_filter.h"
#include "src/embedding/record_encoder.h"
#include "src/lsh/hamming_lsh.h"
#include "src/metrics/edit_distance.h"
#include "src/text/qgram.h"

namespace cbvlink {
namespace {

BitVector RandomVector(size_t bits, Rng& rng, double density = 0.2) {
  BitVector bv(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(density)) bv.Set(i);
  }
  return bv;
}

void BM_HammingDistance(benchmark::State& state) {
  Rng rng(1);
  const size_t bits = static_cast<size_t>(state.range(0));
  const BitVector a = RandomVector(bits, rng);
  const BitVector b = RandomVector(bits, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.HammingDistance(b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HammingDistance)->Arg(120)->Arg(267)->Arg(2000);

void BM_HammingDistanceRange(benchmark::State& state) {
  Rng rng(2);
  const BitVector a = RandomVector(120, rng);
  const BitVector b = RandomVector(120, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.HammingDistanceRange(b, 30, 68));
  }
}
BENCHMARK(BM_HammingDistanceRange);

void BM_CVectorEncode(benchmark::State& state) {
  Rng rng(3);
  Result<QGramExtractor> extractor =
      QGramExtractor::Create(Alphabet::Uppercase(), {.q = 2, .pad = false});
  const CVectorEncoder encoder =
      CVectorEncoder::Create(std::move(extractor).value(), 5.1, rng).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode("KARAPIPERIS"));
  }
}
BENCHMARK(BM_CVectorEncode);

// The record-level path that batch Link, the online linker and the
// service all take: one 120-bit cBV per 4-field NCVR-shaped record.
void BM_RecordEncode(benchmark::State& state) {
  const NcvrGenerator gen = NcvrGenerator::Create().value();
  Rng rng(5);
  const CVectorRecordEncoder encoder =
      CVectorRecordEncoder::Create(gen.schema(), {5.1, 5.0, 20.0, 7.2}, rng)
          .value();
  std::vector<Record> records;
  for (RecordId id = 0; id < 1024; ++id) {
    records.push_back(gen.Generate(id, rng));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(records[next]));
    next = (next + 1) % records.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RecordEncode);

void BM_BloomEncode(benchmark::State& state) {
  Result<QGramExtractor> extractor =
      QGramExtractor::Create(Alphabet::Uppercase(), {.q = 2, .pad = false});
  const BloomFilterEncoder encoder =
      BloomFilterEncoder::Create(std::move(extractor).value()).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode("KARAPIPERIS"));
  }
}
BENCHMARK(BM_BloomEncode);

void BM_EditDistance(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance("WASHINGTON", "WASHANGTON"));
  }
}
BENCHMARK(BM_EditDistance);

void BM_EditDistanceWithin(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistanceWithin("WASHINGTON", "WASHANGTON", 2));
  }
}
BENCHMARK(BM_EditDistanceWithin);

// One record's blocking keys: every group's key under a family in one
// Keys pass.  PL: record-level K = 30, L = 6 over 120 bits.  C1: the rule's
// three attribute families over the NCVR c-vector segments f1 = [0, 15),
// f2 = [15, 30), f3 = [30, 98) with K = 5, 5, 10 and the structure's
// L = 178.
void BM_HammingLshKeysPl(benchmark::State& state) {
  Rng rng(4);
  const HammingLshFamily family =
      HammingLshFamily::CreateFull(30, 6, 120, rng).value();
  const BitVector bv = RandomVector(120, rng);
  KeyBuffer keys(family.L());
  for (auto _ : state) {
    family.Keys(bv, keys.span());
    benchmark::DoNotOptimize(keys.span().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HammingLshKeysPl);

void BM_HammingLshKeysC1(benchmark::State& state) {
  Rng rng(4);
  constexpr size_t kL = 178;
  const HammingLshFamily families[] = {
      HammingLshFamily::Create(5, kL, 0, 15, rng).value(),
      HammingLshFamily::Create(5, kL, 15, 15, rng).value(),
      HammingLshFamily::Create(10, kL, 30, 68, rng).value(),
  };
  const BitVector bv = RandomVector(120, rng);
  KeyBuffer keys(kL);
  for (auto _ : state) {
    for (const HammingLshFamily& family : families) {
      family.Keys(bv, keys.span());
      benchmark::DoNotOptimize(keys.span().data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HammingLshKeysC1);

}  // namespace
}  // namespace cbvlink
