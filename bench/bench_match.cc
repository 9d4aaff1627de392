// Matching-engine benchmark: the seed engine (map-based vector store,
// per-probe unordered_set dedup, std::function classifier) vs the arena
// engine, serial and sharded over a thread pool.  Verifies that every
// engine produces byte-identical pairs and stats before reporting
// throughput, and emits BENCH_match.json for the perf-history artifacts.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench/bench_util.h"
#include "src/blocking/matcher.h"
#include "src/blocking/record_blocker.h"
#include "src/common/hamming_kernels.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"

namespace cbvlink {
namespace {

/// The kernel sets this build AND this CPU can execute; scalar is always
/// first so it doubles as the equivalence reference.
std::vector<const KernelSet*> RunnableKernelSets() {
  std::vector<const KernelSet*> sets = {&ScalarKernels()};
  if (Avx2Kernels() != nullptr && CpuSupportsAvx2()) {
    sets.push_back(Avx2Kernels());
  }
  if (Avx512Kernels() != nullptr && CpuSupportsAvx512Popcnt()) {
    sets.push_back(Avx512Kernels());
  }
  return sets;
}

/// RAII restore for the forced-kernel override.
struct ScopedForcedKernels {
  explicit ScopedForcedKernels(const KernelSet* k) { ForceKernelsForTest(k); }
  ~ScopedForcedKernels() { ForceKernelsForTest(nullptr); }
};

/// The pre-arena matching engine, reproduced verbatim as the baseline:
/// node-based id -> BitVector map, a freshly allocated unordered_set per
/// probe, and a type-erased classifier call per candidate pair.
class LegacyEngine {
 public:
  LegacyEngine(const CandidateSource* source,
               const std::unordered_map<RecordId, BitVector>* store,
               std::function<bool(const BitVector&, const BitVector&)>
                   classifier)
      : source_(source), store_(store), classifier_(std::move(classifier)) {}

  std::vector<IdPair> MatchAll(const std::vector<EncodedRecord>& b_records,
                               MatchStats* stats) const {
    std::vector<IdPair> out;
    for (const EncodedRecord& b : b_records) {
      std::unordered_set<RecordId> compared;
      source_->ForEachCandidate(b.bits, [&](RecordId a_id) {
        ++stats->candidate_occurrences;
        if (!compared.insert(a_id).second) {
          ++stats->dedup_skipped;
          return;
        }
        const auto it = store_->find(a_id);
        if (it == store_->end()) return;
        ++stats->comparisons;
        if (classifier_(it->second, b.bits)) {
          ++stats->matches;
          out.push_back(IdPair{a_id, b.id});
        }
      });
    }
    return out;
  }

 private:
  const CandidateSource* source_;
  const std::unordered_map<RecordId, BitVector>* store_;
  std::function<bool(const BitVector&, const BitVector&)> classifier_;
};

bool SameStats(const MatchStats& x, const MatchStats& y) {
  return x.candidate_occurrences == y.candidate_occurrences &&
         x.comparisons == y.comparisons && x.matches == y.matches &&
         x.dedup_skipped == y.dedup_skipped;
}

void Run() {
  const size_t n = RecordsFromEnv(3000);
  const int reps = static_cast<int>(RepetitionsFromEnv(3));
  bench::Banner("Matching engine: seed vs arena, serial vs sharded");
  std::printf("records=%zu reps=%d\n\n", n, reps);

  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  bench::DieOnError(gen.ok() ? Status::OK() : gen.status(), "generator");
  const Schema& schema = gen.value().schema();

  LinkagePairOptions options;
  options.num_records = n;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  bench::DieOnError(data.ok() ? Status::OK() : data.status(), "data");

  Rng enc_rng(7);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      schema, EstimateExpectedQGrams(schema, data.value().a), enc_rng);
  bench::DieOnError(encoder.ok() ? Status::OK() : encoder.status(),
                    "encoder");

  std::vector<EncodedRecord> enc_a, enc_b;
  for (const Record& r : data.value().a) {
    enc_a.push_back(encoder.value().Encode(r).value());
  }
  for (const Record& r : data.value().b) {
    enc_b.push_back(encoder.value().Encode(r).value());
  }

  Rng blk_rng(100);
  Result<RecordLevelBlocker> blocker = RecordLevelBlocker::Create(
      encoder.value().total_bits(), 30, 4, 0.1, blk_rng);
  bench::DieOnError(blocker.ok() ? Status::OK() : blocker.status(),
                    "blocker");
  VectorStore store;
  std::vector<uint32_t> slots_a;
  store.AddAll(enc_a, &slots_a);
  blocker.value().BulkInsert(enc_a, slots_a);

  // --- Seed engine -------------------------------------------------------
  std::unordered_map<RecordId, BitVector> legacy_store;
  for (const EncodedRecord& r : enc_a) legacy_store.emplace(r.id, r.bits);
  const Rule rule = bench::PlRule();
  const RecordLayout& layout = encoder.value().layout();
  std::vector<RecordLayout::Segment> segments;
  for (size_t i = 0; i < layout.num_attributes(); ++i) {
    segments.push_back(layout.segment(i));
  }
  LegacyEngine legacy(
      &blocker.value(), &legacy_store,
      [&rule, segments](const BitVector& a, const BitVector& b) {
        return rule.Evaluate([&](size_t attr) {
          return a.HammingDistanceRange(b, segments[attr].offset,
                                        segments[attr].size);
        });
      });

  MatchStats legacy_stats;
  std::vector<IdPair> legacy_pairs;
  double legacy_secs = 1e300;
  for (int r = 0; r < reps; ++r) {
    MatchStats stats;
    Stopwatch watch;
    std::vector<IdPair> pairs = legacy.MatchAll(enc_b, &stats);
    legacy_secs = std::min(legacy_secs, watch.ElapsedSeconds());
    legacy_stats = stats;
    legacy_pairs = std::move(pairs);
  }

  // --- Arena engine ------------------------------------------------------
  Matcher matcher(&blocker.value(), &store);
  const PairClassifier classifier =
      MakeRuleClassifier(rule, encoder.value().layout());

  const auto run_engine = [&](ThreadPool* pool, MatchStats* stats,
                              std::vector<IdPair>* pairs) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      MatchStats s;
      Stopwatch watch;
      std::vector<IdPair> p = matcher.MatchAll(enc_b, classifier, &s, pool);
      best = std::min(best, watch.ElapsedSeconds());
      *stats = s;
      *pairs = std::move(p);
    }
    return best;
  };

  MatchStats serial_stats, t2_stats, t8_stats;
  std::vector<IdPair> serial_pairs, t2_pairs, t8_pairs;
  const double serial_secs = run_engine(nullptr, &serial_stats, &serial_pairs);
  ThreadPool pool2(2);
  const double t2_secs = run_engine(&pool2, &t2_stats, &t2_pairs);
  ThreadPool pool8(8);
  const double t8_secs = run_engine(&pool8, &t8_stats, &t8_pairs);

  // --- Equivalence gate --------------------------------------------------
  // Per rep the stats of one engine are deterministic; across engines the
  // pairs and every counter must agree before throughput means anything.
  if (serial_pairs != legacy_pairs || !SameStats(serial_stats, legacy_stats)) {
    std::fprintf(stderr, "FATAL: arena serial output diverges from seed\n");
    std::exit(1);
  }
  if (t2_pairs != serial_pairs || !SameStats(t2_stats, serial_stats) ||
      t8_pairs != serial_pairs || !SameStats(t8_stats, serial_stats)) {
    std::fprintf(stderr, "FATAL: parallel output diverges from serial\n");
    std::exit(1);
  }
  std::printf("equivalence: all engines agree (%zu pairs, %llu comparisons)\n\n",
              serial_pairs.size(),
              static_cast<unsigned long long>(serial_stats.comparisons));

  const double qps = static_cast<double>(enc_b.size());
  std::printf("%-22s %10s %14s %10s\n", "engine", "seconds", "records/s",
              "speedup");
  const auto row = [&](const char* name, double secs) {
    std::printf("%-22s %10.4f %14.0f %9.2fx\n", name, secs, qps / secs,
                legacy_secs / secs);
  };
  row("seed serial", legacy_secs);
  row("arena serial", serial_secs);
  row("arena 2 threads", t2_secs);
  row("arena 8 threads", t8_secs);

  // --- Kernels dimension: serial matcher under each runnable set --------
  // Forces one KernelSet at a time through the same serial MatchAll and
  // gates on byte-identical pairs+stats before timing counts; a SIMD
  // kernel that diverges from scalar is a correctness bug, not a slow run.
  bench::Banner("Hamming kernel dimension (serial matcher)");
  const std::vector<const KernelSet*> kernel_sets = RunnableKernelSets();
  std::vector<std::pair<std::string, bench::BenchValue>> json;
  std::vector<double> kernel_secs;
  for (const KernelSet* set : kernel_sets) {
    ScopedForcedKernels forced(set);
    MatchStats k_stats;
    std::vector<IdPair> k_pairs;
    const double k_secs = run_engine(nullptr, &k_stats, &k_pairs);
    if (k_pairs != serial_pairs || !SameStats(k_stats, serial_stats)) {
      std::fprintf(stderr, "FATAL: kernel %s diverges from scalar matcher\n",
                   set->name);
      std::exit(1);
    }
    kernel_secs.push_back(k_secs);
    std::printf("%-22s %10.4f %14.0f %9.2fx\n",
                (std::string("kernel ") + set->name).c_str(), k_secs,
                qps / k_secs, kernel_secs.front() / k_secs);
    json.emplace_back(std::string("match_serial_qps_") + set->name,
                      qps / k_secs);
  }

  // --- 120-bit cBV batch workload (Table 3) ------------------------------
  // The paper's compact record shape: 2 words per row, one probe swept
  // over a contiguous candidate arena through the masked-conjunction
  // kernel.  Two predicate lists: a whole-record threshold (one
  // predicate) and the PL rule's four attribute segments (15/15/68/22,
  // every attribute within 4) — the shape the engines actually run.
  // This isolates raw comparison throughput, which is where the SIMD
  // sets must earn their keep.
  bench::Banner("120-bit cBV batch kernel (Table 3 shape)");
  constexpr size_t kCbvWords = 2;
  constexpr size_t kCbvBits = 120;
  const size_t cbv_rows = 1 << 16;
  const size_t cbv_probes = 64;
  Rng cbv_rng(2016);
  std::vector<uint64_t> arena(cbv_rows * kCbvWords);
  for (size_t i = 0; i < arena.size(); ++i) {
    arena[i] = cbv_rng();
    if (i % kCbvWords == 1) arena[i] &= (uint64_t{1} << 56) - 1;  // 120 bits
  }
  std::vector<std::vector<uint64_t>> probes(cbv_probes);
  for (auto& p : probes) {
    p = {cbv_rng(), cbv_rng() & ((uint64_t{1} << 56) - 1)};
  }
  // Table 3's NCVR cBV layout: 15/15/68/22 bits.
  std::vector<MaskedPredicate> pl_predicates;
  size_t offset = 0;
  for (const size_t size : {15u, 15u, 68u, 22u}) {
    pl_predicates.push_back(MaskedPredicate::ForRange(offset, size, 4));
    offset += size;
  }
  const struct {
    const char* key;
    std::vector<MaskedPredicate> predicates;
  } shapes[] = {
      {"cbv", {MaskedPredicate::ForRange(0, kCbvBits, 40)}},
      {"pl", pl_predicates},
  };
  std::vector<uint8_t> verdicts(cbv_rows), ref_verdicts(cbv_rows);
  const KernelSet& active = ActiveKernels();
  const double cbv_cmp = static_cast<double>(cbv_rows * cbv_probes);
  for (const auto& shape : shapes) {
    const std::string key = shape.key;
    const auto time_kernel = [&](const KernelSet& set) {
      double best = 1e300;
      for (int r = 0; r < reps; ++r) {
        Stopwatch watch;
        for (const auto& p : probes) {
          set.batch_conjunction(p.data(), arena.data(), kCbvWords,
                                /*dense=*/nullptr, cbv_rows,
                                shape.predicates.data(),
                                shape.predicates.size(), verdicts.data());
        }
        best = std::min(best, watch.ElapsedSeconds());
      }
      return best;
    };
    const double scalar_secs = time_kernel(ScalarKernels());
    ref_verdicts = verdicts;
    std::printf("%-22s %10.4f %14.0f\n", (key + " scalar").c_str(),
                scalar_secs, cbv_cmp / scalar_secs);
    json.emplace_back(key + "_scalar_cps", cbv_cmp / scalar_secs);
    double active_secs = scalar_secs;
    for (const KernelSet* set : kernel_sets) {
      if (set == &ScalarKernels()) continue;
      const double secs = time_kernel(*set);
      if (verdicts != ref_verdicts) {
        std::fprintf(stderr, "FATAL: %s kernel %s diverges from scalar\n",
                     shape.key, set->name);
        std::exit(1);
      }
      if (set == &active) active_secs = secs;
      std::printf("%-22s %10.4f %14.0f %9.2fx\n",
                  (key + " " + set->name).c_str(), secs, cbv_cmp / secs,
                  scalar_secs / secs);
      json.emplace_back(key + "_cps_" + set->name, cbv_cmp / secs);
      json.emplace_back(key + "_speedup_" + set->name, scalar_secs / secs);
    }
    // The set auto-dispatch picks on this machine (CBVLINK_KERNEL
    // honored), and its speedup over scalar on this shape.
    json.emplace_back(key + "_speedup_active", scalar_secs / active_secs);
    std::printf("active kernel: %s (%s speedup %.2fx)\n\n", active.name,
                shape.key, scalar_secs / active_secs);
  }

  // Shard speedup is bounded by physical parallelism: on a single-core
  // runner the 2t/8t rows time-share one core and only the arena gain
  // shows; the sharded rows need real cores to separate.
  std::vector<std::pair<std::string, bench::BenchValue>> out = {
      {"hardware_threads",
       static_cast<double>(std::thread::hardware_concurrency())},
      {"records", static_cast<double>(n)},
      {"pairs", static_cast<double>(serial_pairs.size())},
      {"comparisons", static_cast<double>(serial_stats.comparisons)},
      {"seed_serial_qps", qps / legacy_secs},
      {"arena_serial_qps", qps / serial_secs},
      {"arena_2t_qps", qps / t2_secs},
      {"arena_8t_qps", qps / t8_secs},
      {"arena_serial_speedup", legacy_secs / serial_secs},
      {"arena_8t_speedup", legacy_secs / t8_secs},
      {"kernel_active", active.name}};
  out.insert(out.end(), json.begin(), json.end());
  bench::EmitBenchJson("BENCH_match.json", out);
}

}  // namespace
}  // namespace cbvlink

int main() {
  cbvlink::Run();
  return 0;
}
