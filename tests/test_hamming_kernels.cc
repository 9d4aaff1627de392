// Equivalence gate for the runtime-dispatched Hamming kernels: every
// implementation (scalar, AVX2, AVX-512) must return results
// byte-identical to a naive bit-by-bit oracle — and therefore to each
// other — on any input, including word-boundary edge cases, multi-word
// ranges, and the paper's 120-bit two-word cBV shape (Table 3).  SIMD
// sets the host CPU cannot execute are skipped with a notice instead of
// faulting.  The masked-conjunction batch kernel is checked the same way,
// and the matcher built on it against an independent per-pair engine.

#include "src/common/hamming_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/blocking/matcher.h"
#include "src/common/bitvector.h"
#include "src/embedding/record_encoder.h"
#include "src/common/random.h"
#include "src/common/thread_pool.h"

namespace cbvlink {
namespace {

/// Restores automatic kernel resolution when a test that forced a set
/// exits (including via an assertion failure).
class ScopedForcedKernels {
 public:
  explicit ScopedForcedKernels(const KernelSet* kernels) {
    ForceKernelsForTest(kernels);
  }
  ~ScopedForcedKernels() { ForceKernelsForTest(nullptr); }
};

/// The kernel sets this build *and* this CPU can execute.  Scalar is
/// always present; unavailable SIMD sets are reported once.
std::vector<const KernelSet*> RunnableKernelSets() {
  std::vector<const KernelSet*> sets;
  sets.push_back(&ScalarKernels());
  if (Avx2Kernels() != nullptr && CpuSupportsAvx2()) {
    sets.push_back(Avx2Kernels());
  } else {
    std::fprintf(stderr,
                 "NOTICE: avx2 kernels not runnable on this host "
                 "(build=%d cpu=%d); skipping\n",
                 Avx2Kernels() != nullptr ? 1 : 0, CpuSupportsAvx2() ? 1 : 0);
  }
  if (Avx512Kernels() != nullptr && CpuSupportsAvx512Popcnt()) {
    sets.push_back(Avx512Kernels());
  } else {
    std::fprintf(stderr,
                 "NOTICE: avx512 kernels not runnable on this host "
                 "(build=%d cpu=%d); skipping\n",
                 Avx512Kernels() != nullptr ? 1 : 0,
                 CpuSupportsAvx512Popcnt() ? 1 : 0);
  }
  return sets;
}

/// Naive oracle: bit-by-bit comparison over [offset, offset + length).
size_t OracleRangeDistance(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b, size_t offset,
                           size_t length) {
  size_t dist = 0;
  for (size_t i = offset; i < offset + length; ++i) {
    const uint64_t abit = (a[i >> 6] >> (i & 63)) & 1;
    const uint64_t bbit = (b[i >> 6] >> (i & 63)) & 1;
    dist += static_cast<size_t>(abit != bbit);
  }
  return dist;
}

/// Random zero-padded word vector of `num_bits` logical bits.
std::vector<uint64_t> RandomWords(size_t num_bits, Rng& rng) {
  std::vector<uint64_t> words((num_bits + 63) / 64, 0);
  for (uint64_t& w : words) w = rng();
  const size_t tail = num_bits & 63;
  if (tail != 0 && !words.empty()) {
    words.back() &= (uint64_t{1} << tail) - 1;
  }
  return words;
}

// The widths the equivalence sweep covers: around every word boundary,
// the paper's 120-bit cBV shape, and wide Bloom-filter shapes that
// exercise the vector main loops and their tails.
const size_t kWidths[] = {1,   63,  64,  65,  120, 127, 128,  129,
                          191, 192, 256, 500, 831, 960, 1000, 2048};

TEST(HammingKernelsTest, DistanceMatchesOracleAcrossWidths) {
  Rng rng(1);
  for (const KernelSet* kernels : RunnableKernelSets()) {
    for (const size_t bits : kWidths) {
      for (int trial = 0; trial < 8; ++trial) {
        const std::vector<uint64_t> a = RandomWords(bits, rng);
        const std::vector<uint64_t> b = RandomWords(bits, rng);
        const size_t expected = OracleRangeDistance(a, b, 0, bits);
        EXPECT_EQ(kernels->distance(a.data(), b.data(), a.size()), expected)
            << kernels->name << " width " << bits << " trial " << trial;
      }
    }
  }
}

TEST(HammingKernelsTest, DistanceEdgeCases) {
  for (const KernelSet* kernels : RunnableKernelSets()) {
    EXPECT_EQ(kernels->distance(nullptr, nullptr, 0), 0u) << kernels->name;
    const uint64_t a = ~uint64_t{0};
    const uint64_t b = 0;
    EXPECT_EQ(kernels->distance(&a, &b, 1), 64u) << kernels->name;
    EXPECT_EQ(kernels->distance(&a, &a, 1), 0u) << kernels->name;
  }
}

TEST(HammingKernelsTest, RangeDistanceMatchesOracle) {
  Rng rng(2);
  for (const KernelSet* kernels : RunnableKernelSets()) {
    for (const size_t bits : kWidths) {
      const std::vector<uint64_t> a = RandomWords(bits, rng);
      const std::vector<uint64_t> b = RandomWords(bits, rng);
      for (int trial = 0; trial < 32; ++trial) {
        const size_t offset = rng.Below(bits);
        const size_t length = rng.Below(bits - offset + 1);
        EXPECT_EQ(kernels->range_distance(a.data(), b.data(), offset, length),
                  OracleRangeDistance(a, b, offset, length))
            << kernels->name << " width " << bits << " range [" << offset
            << ", " << offset + length << ")";
      }
    }
  }
}

TEST(HammingKernelsTest, RangeDistanceWordBoundaryEdges) {
  Rng rng(3);
  constexpr size_t kBits = 1024;
  const std::vector<uint64_t> a = RandomWords(kBits, rng);
  const std::vector<uint64_t> b = RandomWords(kBits, rng);
  // Deliberate edges: empty range, single bit at both word edges,
  // word-aligned ranges, ranges spanning >= 3 words, and ranges whose
  // last bit lands exactly on bit 63 of a word (the trail == 63 branch).
  const struct {
    size_t offset, length;
  } kCases[] = {{0, 0},    {63, 0},   {0, 1},    {63, 1},   {64, 1},
                {0, 64},   {64, 64},  {64, 128}, {1, 63},   {1, 64},
                {63, 2},   {63, 66},  {0, 192},  {1, 190},  {65, 300},
                {127, 513}, {0, kBits}, {1, kBits - 1}, {960, 64}};
  for (const KernelSet* kernels : RunnableKernelSets()) {
    for (const auto& c : kCases) {
      EXPECT_EQ(
          kernels->range_distance(a.data(), b.data(), c.offset, c.length),
          OracleRangeDistance(a, b, c.offset, c.length))
          << kernels->name << " range [" << c.offset << ", "
          << c.offset + c.length << ")";
    }
  }
}

/// Builds a strided arena of `n` random rows, zero-padded to `num_bits`.
std::vector<uint64_t> RandomArena(size_t n, size_t num_bits, Rng& rng) {
  const size_t stride = (num_bits + 63) / 64;
  std::vector<uint64_t> arena;
  arena.reserve(n * stride);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<uint64_t> row = RandomWords(num_bits, rng);
    arena.insert(arena.end(), row.begin(), row.end());
  }
  return arena;
}

/// One predicate as the tests state it: distance over [offset,
/// offset + length) must be at most theta.
struct RangePredicate {
  size_t offset = 0;
  size_t length = 0;
  size_t theta = 0;
};

/// Naive oracle for the masked-conjunction kernel: every predicate's
/// bit-by-bit distance against its theta.
uint8_t OracleConjunction(const std::vector<uint64_t>& probe,
                          const uint64_t* row, size_t stride,
                          const std::vector<RangePredicate>& preds) {
  const std::vector<uint64_t> r(row, row + stride);
  for (const RangePredicate& p : preds) {
    if (OracleRangeDistance(probe, r, p.offset, p.length) > p.theta) return 0;
  }
  return 1;
}

std::vector<MaskedPredicate> Compile(const std::vector<RangePredicate>& in) {
  std::vector<MaskedPredicate> out;
  for (const RangePredicate& p : in) {
    out.push_back(MaskedPredicate::ForRange(p.offset, p.length, p.theta));
  }
  return out;
}

/// Runs `preds` through every runnable set over both row modes — rows
/// named by a dense index list into `arena`, and the first `n` arena rows
/// copied into a buffer of exactly n rows (`dense == nullptr`) — and
/// compares each verdict with the oracle.  Also checks that nothing is
/// written past out[n - 1].
void ExpectConjunctionMatchesOracle(const std::vector<uint64_t>& arena,
                                    size_t stride,
                                    const std::vector<uint32_t>& dense,
                                    const std::vector<uint64_t>& probe,
                                    const std::vector<RangePredicate>& preds,
                                    const std::string& what) {
  const size_t n = dense.size();
  const std::vector<MaskedPredicate> compiled = Compile(preds);
  const std::vector<uint64_t> contiguous(arena.begin(),
                                         arena.begin() + n * stride);
  std::vector<uint8_t> expected_dense(n + 4, 0xee);
  std::vector<uint8_t> expected_seq(n + 4, 0xee);
  for (size_t i = 0; i < n; ++i) {
    expected_dense[i] = OracleConjunction(
        probe, arena.data() + dense[i] * stride, stride, preds);
    expected_seq[i] =
        OracleConjunction(probe, contiguous.data() + i * stride, stride, preds);
  }
  for (const KernelSet* kernels : RunnableKernelSets()) {
    std::vector<uint8_t> out(n + 4, 0xee);
    kernels->batch_conjunction(probe.data(), arena.data(), stride,
                               dense.data(), n, compiled.data(),
                               compiled.size(), out.data());
    EXPECT_EQ(out, expected_dense) << kernels->name << " dense rows, " << what;
    std::fill(out.begin(), out.end(), 0xee);
    kernels->batch_conjunction(probe.data(), contiguous.data(), stride,
                               nullptr, n, compiled.data(), compiled.size(),
                               out.data());
    EXPECT_EQ(out, expected_seq)
        << kernels->name << " contiguous rows, " << what;
  }
}

/// `probe` with each bit flipped with probability 1/`one_in` — rows near
/// the probe, so predicates both hold and fail.
std::vector<uint64_t> Perturbed(const std::vector<uint64_t>& probe,
                                size_t num_bits, size_t one_in, Rng& rng) {
  std::vector<uint64_t> row = probe;
  for (size_t i = 0; i < num_bits; ++i) {
    if (rng.Below(one_in) == 0) row[i >> 6] ^= uint64_t{1} << (i & 63);
  }
  return row;
}

TEST(HammingKernelsTest, BatchConjunctionMatchesOracle) {
  // Every tail mod 4 (n = 0..9), both row modes, widths around word
  // boundaries up to a 4x500-bit Bloom record, and 1 to 12 predicates
  // (past the packed kernels' register budget) with empty segments,
  // theta = 0 and theta >= segment length.
  Rng rng(6);
  for (const size_t bits : {64u, 120u, 129u, 2000u}) {
    const size_t stride = (bits + 63) / 64;
    const std::vector<uint64_t> probe = RandomWords(bits, rng);
    constexpr size_t kArenaRows = 13;
    std::vector<uint64_t> arena;
    for (size_t i = 0; i < kArenaRows; ++i) {
      const std::vector<uint64_t> row =
          i % 3 == 0 ? RandomWords(bits, rng)
                     : Perturbed(probe, bits, 8 + 8 * (i % 4), rng);
      arena.insert(arena.end(), row.begin(), row.end());
    }
    for (size_t num_preds = 1; num_preds <= 12; ++num_preds) {
      std::vector<RangePredicate> preds;
      for (size_t p = 0; p < num_preds; ++p) {
        RangePredicate pred;
        pred.offset = rng.Below(bits);
        pred.length = rng.Below(6) == 0 ? 0 : rng.Below(bits - pred.offset + 1);
        switch (rng.Below(4)) {
          case 0:
            pred.theta = 0;
            break;
          case 1:
            pred.theta = pred.length + rng.Below(3);  // always holds
            break;
          default:
            pred.theta = pred.length / 8 + rng.Below(pred.length / 8 + 1);
        }
        preds.push_back(pred);
      }
      for (size_t n = 0; n <= 9; ++n) {
        std::vector<uint32_t> dense;
        for (size_t i = 0; i < n; ++i) {
          dense.push_back(static_cast<uint32_t>(rng.Below(kArenaRows)));
        }
        ExpectConjunctionMatchesOracle(
            arena, stride, dense, probe, preds,
            "width " + std::to_string(bits) + ", " +
                std::to_string(num_preds) + " predicates, n=" +
                std::to_string(n));
      }
    }
  }
}

TEST(HammingKernelsTest, BatchConjunctionPaperLayouts) {
  // The NCVR cBV layout at 120 bits (15/15/68/22): the 68-bit segment at
  // offset 30 straddles the word boundary.  The PL rule (every attribute
  // within 4), rule C1's three predicates, and an empty list.
  Rng rng(7);
  constexpr size_t kBits = 120;
  const std::vector<uint64_t> probe = RandomWords(kBits, rng);
  std::vector<uint64_t> arena;
  constexpr size_t kArenaRows = 40;
  for (size_t i = 0; i < kArenaRows; ++i) {
    const std::vector<uint64_t> row = Perturbed(probe, kBits, 24 + i, rng);
    arena.insert(arena.end(), row.begin(), row.end());
  }
  std::vector<uint32_t> dense;
  for (uint32_t i = 0; i < kArenaRows; ++i) dense.push_back(kArenaRows - 1 - i);
  const std::vector<RangePredicate> pl = {
      {0, 15, 4}, {15, 15, 4}, {30, 68, 4}, {98, 22, 4}};
  const std::vector<RangePredicate> c1 = {{0, 15, 4}, {15, 15, 4}, {30, 68, 8}};
  for (size_t n : {1u, 4u, 7u, 40u}) {
    const std::vector<uint32_t> first(dense.begin(), dense.begin() + n);
    ExpectConjunctionMatchesOracle(arena, 2, first, probe, pl,
                                   "PL, n=" + std::to_string(n));
    ExpectConjunctionMatchesOracle(arena, 2, first, probe, c1,
                                   "C1, n=" + std::to_string(n));
    ExpectConjunctionMatchesOracle(arena, 2, first, probe, {},
                                   "empty list, n=" + std::to_string(n));
  }
}

TEST(HammingKernelsTest, BatchConjunctionWholeRecordGatheredAndContiguous) {
  // A whole-record threshold is the one-predicate list spanning every
  // word; 153 rows is not a multiple of any unroll width.
  Rng rng(4);
  for (const size_t bits : {64u, 120u, 120u, 500u, 831u}) {
    const size_t stride = (bits + 63) / 64;
    constexpr size_t kRows = 153;
    const std::vector<uint64_t> arena = RandomArena(kRows, bits, rng);
    const std::vector<uint64_t> probe = RandomWords(bits, rng);
    // A gathered (shuffled, duplicated) dense list.
    std::vector<uint32_t> dense;
    for (size_t i = 0; i < kRows; ++i) {
      dense.push_back(static_cast<uint32_t>(rng.Below(kRows)));
    }
    for (const size_t theta : {0ul, 3ul, bits / 4, bits / 2, bits}) {
      ExpectConjunctionMatchesOracle(
          arena, stride, dense, probe, {{0, bits, theta}},
          "width " + std::to_string(bits) + " theta " +
              std::to_string(theta));
    }
  }
}

TEST(HammingKernelsTest, ResolveKernelsSelection) {
  const bool have_avx2 = Avx2Kernels() != nullptr;
  const bool have_avx512 = Avx512Kernels() != nullptr;
  const char* notice = nullptr;

  // Auto: best available set wins, no notice.
  const KernelSet& autoset =
      ResolveKernels(nullptr, have_avx2, have_avx512, &notice);
  EXPECT_EQ(notice, nullptr);
  if (have_avx512) {
    EXPECT_STREQ(autoset.name, "avx512");
  } else if (have_avx2) {
    EXPECT_STREQ(autoset.name, "avx2");
  } else {
    EXPECT_STREQ(autoset.name, "scalar");
  }
  EXPECT_STREQ(ResolveKernels("", have_avx2, have_avx512, &notice).name,
               autoset.name);

  // Explicit scalar always honoured.
  EXPECT_STREQ(ResolveKernels("scalar", true, true, &notice).name, "scalar");
  EXPECT_EQ(notice, nullptr);

  // An unsupported explicit request falls back *down*, never up, with a
  // notice — the dispatcher must not execute an ISA the CPU lacks.
  notice = nullptr;
  const KernelSet& no2 = ResolveKernels("avx2", false, false, &notice);
  EXPECT_STREQ(no2.name, "scalar");
  EXPECT_NE(notice, nullptr);
  notice = nullptr;
  const KernelSet& no512 = ResolveKernels("avx512", have_avx2, false, &notice);
  EXPECT_STREQ(no512.name, have_avx2 ? "avx2" : "scalar");
  EXPECT_NE(notice, nullptr);

  // Supported explicit requests are honoured exactly.
  if (have_avx2) {
    notice = nullptr;
    EXPECT_STREQ(ResolveKernels("avx2", true, true, &notice).name, "avx2");
    EXPECT_EQ(notice, nullptr);
  }
  if (have_avx512) {
    notice = nullptr;
    EXPECT_STREQ(ResolveKernels("avx512", true, true, &notice).name,
                 "avx512");
    EXPECT_EQ(notice, nullptr);
  }

  // Unknown value: best available, with a notice.
  notice = nullptr;
  EXPECT_STREQ(ResolveKernels("sse9", have_avx2, have_avx512, &notice).name,
               autoset.name);
  EXPECT_NE(notice, nullptr);
}

TEST(HammingKernelsTest, ForceKernelsOverridesActive) {
  {
    ScopedForcedKernels force(&ScalarKernels());
    EXPECT_STREQ(ActiveKernels().name, "scalar");
  }
  // After the override is lifted, resolution follows the environment and
  // CPU again (whatever that is, it must be a runnable set).
  const KernelSet& active = ActiveKernels();
  if (std::string(active.name) == "avx2") {
    EXPECT_TRUE(CpuSupportsAvx2());
  } else if (std::string(active.name) == "avx512") {
    EXPECT_TRUE(CpuSupportsAvx512Popcnt());
  }
}

// ---------------------------------------------------------------------
// End-to-end byte-equivalence: the full matcher must produce identical
// pairs and stats under every runnable kernel set, at 1, 2, and 8
// threads — the acceptance gate for the dispatch layer.

/// A probe-dependent slot source over the store it fills: `a` goes into
/// `store`, and each probe maps to a mix of bucket spans of its slots
/// with cross-bucket duplicates.
class SpanSource : public SlotCandidateSource {
 public:
  SpanSource(VectorStore* store, const std::vector<EncodedRecord>& a,
             size_t num_buckets) {
    std::vector<uint32_t> slots;
    store->AddAll(a, &slots);
    std::vector<RecordId> ids;
    for (const EncodedRecord& r : a) ids.push_back(r.id);
    AssignSlots(ids, slots);
    buckets_.resize(num_buckets);
    for (size_t b = 0; b < num_buckets; ++b) {
      const size_t len = 1 + (b * 7) % 13;
      for (size_t k = 0; k < len; ++k) {
        buckets_[b].push_back(slots[(b * 31 + k * 17) % slots.size()]);
      }
    }
  }

  bool ForEachSlotSpan(
      const uint64_t* probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override {
    const uint64_t h = probe[0];
    const size_t groups = 1 + h % 5;
    for (size_t g = 0; g < groups; ++g) {
      cb(buckets_[(h + g * 13) % buckets_.size()]);
    }
    return false;
  }

 private:
  std::vector<std::vector<uint32_t>> buckets_;
};

bool SameStats(const MatchStats& x, const MatchStats& y) {
  return x.candidate_occurrences == y.candidate_occurrences &&
         x.comparisons == y.comparisons && x.matches == y.matches &&
         x.dedup_skipped == y.dedup_skipped;
}

std::vector<EncodedRecord> RandomRecords(size_t n, size_t bits,
                                         RecordId first_id, Rng& rng) {
  std::vector<EncodedRecord> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    EncodedRecord r;
    r.id = first_id + i;
    r.bits = BitVector(bits);
    for (size_t b = 0; b < bits; ++b) {
      if (rng.Below(3) == 0) r.bits.Set(b);
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// Algorithm 2 with one classification per pair, written independently
/// of the matcher: a std::unordered_set for C, `classify` per candidate.
/// The per-pair engine the batched matcher must reproduce exactly.
std::vector<IdPair> PerPairOracle(
    const CandidateSource& source, const std::vector<EncodedRecord>& a,
    const std::vector<EncodedRecord>& b,
    const std::function<bool(const BitVector&, const BitVector&)>& classify,
    MatchStats* stats) {
  std::unordered_map<RecordId, const BitVector*> store;
  for (const EncodedRecord& r : a) store.emplace(r.id, &r.bits);
  std::vector<IdPair> out;
  for (const EncodedRecord& probe : b) {
    std::unordered_set<RecordId> seen;
    source.ForEachCandidate(probe.bits, [&](RecordId id) {
      ++stats->candidate_occurrences;
      if (!seen.insert(id).second) {
        ++stats->dedup_skipped;
        return;
      }
      const auto it = store.find(id);
      if (it == store.end()) return;
      ++stats->comparisons;
      if (classify(*it->second, probe.bits)) {
        ++stats->matches;
        out.push_back(IdPair{id, probe.id});
      }
    });
  }
  return out;
}

/// The per-pair rule semantics: Rule::Evaluate over BitVector range
/// distances.
std::function<bool(const BitVector&, const BitVector&)> RuleOracle(
    const Rule& rule, const RecordLayout& layout) {
  return [rule, layout](const BitVector& x, const BitVector& y) {
    return rule.Evaluate([&](size_t attr) {
      return x.HammingDistanceRange(y, layout.segment(attr).offset,
                                    layout.segment(attr).size);
    });
  };
}

/// B records near A records: each is a copy of a random A record with
/// each bit flipped with probability 1/`one_in`, so rules with tight
/// thresholds still see matches.
std::vector<EncodedRecord> NearRecords(const std::vector<EncodedRecord>& a,
                                       size_t n, size_t one_in,
                                       RecordId first_id, Rng& rng) {
  std::vector<EncodedRecord> out;
  for (size_t i = 0; i < n; ++i) {
    EncodedRecord r = a[rng.Below(a.size())];
    r.id = first_id + i;
    for (size_t bit = 0; bit < r.bits.size(); ++bit) {
      if (rng.Below(one_in) != 0) continue;
      if (r.bits.Test(bit)) {
        r.bits.Clear(bit);
      } else {
        r.bits.Set(bit);
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// The matcher under `classifier` must equal the per-pair oracle, and
/// every runnable kernel set at 1, 2 and 8 threads must equal the scalar
/// set: pairs in order and every MatchStats field.
void ExpectMatcherEquivalence(
    size_t bits, const PairClassifier& classifier,
    const std::function<bool(const BitVector&, const BitVector&)>& oracle) {
  Rng rng(97);
  const size_t kNumA = 64;
  std::vector<EncodedRecord> a = RandomRecords(kNumA, bits, 0, rng);
  std::vector<EncodedRecord> b = RandomRecords(120, bits, 1000, rng);
  const std::vector<EncodedRecord> near =
      NearRecords(a, 91, 12, 2000, rng);
  b.insert(b.end(), near.begin(), near.end());
  VectorStore store;
  SpanSource source(&store, a, 19);
  Matcher matcher(&source, &store);

  MatchStats ref_stats;
  std::vector<IdPair> reference;
  {
    ScopedForcedKernels force(&ScalarKernels());
    reference = matcher.MatchAll(b, classifier, &ref_stats);
  }
  ASSERT_GT(ref_stats.matches, 0u) << "test needs a non-trivial workload";
  ASSERT_LT(ref_stats.matches, ref_stats.comparisons)
      << "test needs non-matches too";
  MatchStats oracle_stats;
  EXPECT_EQ(PerPairOracle(source, a, b, oracle, &oracle_stats), reference);
  EXPECT_TRUE(SameStats(oracle_stats, ref_stats));

  for (const KernelSet* kernels : RunnableKernelSets()) {
    ScopedForcedKernels force(kernels);
    for (const size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      MatchStats stats;
      const std::vector<IdPair> pairs =
          matcher.MatchAll(b, classifier, &stats, &pool);
      EXPECT_EQ(pairs, reference)
          << kernels->name << " diverges at " << threads << " threads, "
          << bits << " bits";
      EXPECT_TRUE(SameStats(stats, ref_stats))
          << kernels->name << " stats diverge at " << threads << " threads";
    }
  }
}

/// Whole-record threshold classifier plus its per-pair oracle.
void ExpectThresholdEquivalence(size_t bits, size_t theta) {
  ExpectMatcherEquivalence(
      bits, MakeRecordThresholdClassifier(theta),
      [theta](const BitVector& x, const BitVector& y) {
        return x.HammingDistance(y) <= theta;
      });
}

void ExpectRuleEquivalence(const Rule& rule, const RecordLayout& layout) {
  ExpectMatcherEquivalence(layout.total_bits(),
                           MakeRuleClassifier(rule, layout),
                           RuleOracle(rule, layout));
}

/// The NCVR cBV layout at 120 bits (Table 3): 15/15/68/22.
RecordLayout NcvrLayout() {
  RecordLayout layout;
  for (const size_t size : {15u, 15u, 68u, 22u}) layout.Add(size);
  return layout;
}

TEST(HammingKernelsMatcherTest, ByteIdentical120BitCbv) {
  // The paper's Table 3 shape: 2-word records through the packed kernel.
  ExpectThresholdEquivalence(120, 40);
}

TEST(HammingKernelsMatcherTest, ByteIdenticalWideRecords) {
  // Bloom-filter-width records through the row-at-a-time kernel.  With
  // density-1/3 random records the pairwise distance concentrates near
  // 2 * (1/3) * (2/3) * 500 ~ 222, so theta 225 splits the workload into
  // real matches and real non-matches.
  ExpectThresholdEquivalence(500, 225);
}

TEST(HammingKernelsMatcherTest, ByteIdenticalOddWidth) {
  // A width straddling word boundaries (3 words, 65 used bits in word 2).
  ExpectThresholdEquivalence(129, 44);
}

TEST(HammingKernelsMatcherTest, ByteIdenticalPlRule) {
  // The paper's PL rule: every attribute within 4.
  ExpectRuleEquivalence(Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                                   Rule::Pred(2, 4), Rule::Pred(3, 4)}),
                        NcvrLayout());
}

TEST(HammingKernelsMatcherTest, ByteIdenticalRuleC1) {
  // Rule C1: f1 <= 4 AND f2 <= 4 AND f3 <= 8.
  ExpectRuleEquivalence(
      Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)}),
      NcvrLayout());
}

TEST(HammingKernelsMatcherTest, ByteIdenticalBloomRule) {
  // BfH's shape: four 500-bit Bloom filters (32 words), one predicate per
  // filter, each reading only the words its segment spans.
  RecordLayout layout;
  for (int i = 0; i < 4; ++i) layout.Add(500);
  ExpectRuleEquivalence(Rule::And({Rule::Pred(0, 200), Rule::Pred(1, 200),
                                   Rule::Pred(2, 200), Rule::Pred(3, 200)}),
                        layout);
}

TEST(HammingKernelsMatcherTest, ByteIdenticalOrNotRule) {
  // OR and NOT take the per-row node program inside ClassifyBatch.
  ExpectRuleEquivalence(
      Rule::Or({Rule::And({Rule::Pred(0, 4), Rule::Pred(2, 8)}),
                Rule::And({Rule::Pred(3, 3), Rule::Not(Rule::Pred(1, 2))})}),
      NcvrLayout());
}

}  // namespace
}  // namespace cbvlink
