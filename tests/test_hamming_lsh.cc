#include "src/lsh/hamming_lsh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/blocking/hb_blocker.h"
#include "src/common/hashing.h"
#include "src/lsh/params.h"

namespace cbvlink {
namespace {

/// Pinned-key vectors of `bits` bits: all-zero, all-one, then two drawn
/// from a fixed seed.
std::vector<BitVector> PinnedVectors(size_t bits) {
  std::vector<BitVector> out(4, BitVector(bits));
  for (size_t i = 0; i < bits; ++i) out[1].Set(i);
  Rng rng(99);
  for (size_t v = 2; v < 4; ++v) {
    for (size_t i = 0; i < bits; ++i) {
      if (rng() & 1) out[v].Set(i);
    }
  }
  return out;
}

TEST(HammingHashFunctionTest, SamplesWithinRange) {
  Rng rng(1);
  const HammingHashFunction h = HammingHashFunction::Sample(30, 10, 50, rng);
  EXPECT_EQ(h.positions().size(), 30u);
  std::unordered_set<uint32_t> seen;
  for (uint32_t p : h.positions()) {
    EXPECT_GE(p, 10u);
    EXPECT_LT(p, 60u);
    EXPECT_TRUE(seen.insert(p).second) << "position " << p << " repeated";
  }
}

TEST(HammingHashFunctionTest, SamplesDistinctPositions) {
  // Regression: sampling with replacement silently weakened K — an h_l
  // with d duplicate positions behaves like K - d.  Exhaustive sampling
  // (K == range) is the sharpest check: the result must be a permutation
  // of the whole range, which with-replacement sampling essentially
  // never produces.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const HammingHashFunction h = HammingHashFunction::Sample(50, 10, 50, rng);
    std::vector<uint32_t> sorted = h.positions();
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(sorted.size(), 50u);
    for (size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(sorted[i], 10u + i) << "seed " << seed;
    }
  }
}

TEST(HammingHashFunctionTest, DistinctSamplingIsUniform) {
  // Every position of the range should be chosen about equally often —
  // a skew would mean Floyd's replacement branch biases the subset.
  constexpr size_t kRange = 40;
  constexpr size_t kK = 10;
  constexpr size_t kTrials = 4000;
  Rng rng(11);
  std::vector<size_t> counts(kRange, 0);
  for (size_t t = 0; t < kTrials; ++t) {
    const HammingHashFunction h = HammingHashFunction::Sample(kK, 0, kRange, rng);
    for (uint32_t p : h.positions()) ++counts[p];
  }
  const double expected =
      static_cast<double>(kTrials) * kK / static_cast<double>(kRange);
  for (size_t pos = 0; pos < kRange; ++pos) {
    EXPECT_NEAR(static_cast<double>(counts[pos]), expected, expected * 0.15)
        << "position " << pos;
  }
}

/// A family of one composite function: the smallest unit with a key.
HammingLshFamily OneFunction(size_t K, size_t offset, size_t range_bits,
                             Rng& rng) {
  return HammingLshFamily::Create(K, 1, offset, range_bits, rng).value();
}

TEST(HammingHashFunctionTest, EqualVectorsEqualKeys) {
  Rng rng(2);
  const HammingLshFamily h = OneFunction(20, 0, 120, rng);
  BitVector a(120);
  a.Set(3);
  a.Set(77);
  BitVector b = a;
  EXPECT_EQ(h.Key(a, 0), h.Key(b, 0));
}

TEST(HammingHashFunctionTest, KeyReflectsSampledBitsOnly) {
  Rng rng(3);
  const HammingLshFamily h = OneFunction(10, 0, 64, rng);
  BitVector a(128);
  BitVector b(128);
  b.Set(100);  // outside the sampled range [0, 64)
  EXPECT_EQ(h.Key(a, 0), h.Key(b, 0));
}

TEST(HammingHashFunctionTest, LargeKHandled) {
  // K > 64 exercises the multi-chunk path.
  Rng rng(5);
  const HammingLshFamily h = OneFunction(130, 0, 512, rng);
  BitVector a(512);
  BitVector b(512);
  EXPECT_EQ(h.Key(a, 0), h.Key(b, 0));
  // Flip one sampled position; keys must diverge.
  a.Set(h.function(0).positions()[0]);
  EXPECT_NE(h.Key(a, 0), h.Key(b, 0));
}

TEST(HammingLshFamilyTest, CreateValidation) {
  Rng rng(6);
  EXPECT_FALSE(HammingLshFamily::Create(0, 3, 0, 64, rng).ok());
  EXPECT_FALSE(HammingLshFamily::Create(5, 0, 0, 64, rng).ok());
  EXPECT_FALSE(HammingLshFamily::Create(5, 3, 0, 0, rng).ok());
  // Distinct sampling cannot draw more positions than the range holds.
  EXPECT_FALSE(HammingLshFamily::Create(65, 3, 0, 64, rng).ok());
  EXPECT_TRUE(HammingLshFamily::Create(64, 3, 0, 64, rng).ok());
  Result<HammingLshFamily> family = HammingLshFamily::CreateFull(5, 3, 64, rng);
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family.value().K(), 5u);
  EXPECT_EQ(family.value().L(), 3u);
}

TEST(HammingLshFamilyTest, CollisionProbabilityMatchesDefinition3) {
  // Empirical check of Pr[h(a) = h(b)].  With K *distinct* positions the
  // exact probability is hypergeometric — C(m-u, K) / C(m, K) — which is
  // at most Definition 3's with-replacement (1 - u/m)^K; both are
  // asserted so reintroducing replacement (whose mean sits visibly above
  // the hypergeometric value) trips the bound.
  Rng rng(7);
  constexpr size_t kM = 120;
  constexpr size_t kK = 10;
  constexpr size_t kTrials = 3000;
  constexpr size_t kDist = 12;

  BitVector a(kM);
  for (size_t i = 0; i < kM; i += 3) a.Set(i);
  BitVector b = a;
  // Flip exactly kDist bits.
  for (size_t i = 0; i < kDist; ++i) {
    if (b.Test(i)) {
      b.Clear(i);
    } else {
      b.Set(i);
    }
  }
  ASSERT_EQ(a.HammingDistance(b), kDist);

  size_t collisions = 0;
  for (size_t t = 0; t < kTrials; ++t) {
    const HammingLshFamily h = OneFunction(kK, 0, kM, rng);
    if (h.Key(a, 0) == h.Key(b, 0)) ++collisions;
  }
  // Hypergeometric: prod_{i=0}^{K-1} (m - u - i) / (m - i).
  double expected = 1.0;
  for (size_t i = 0; i < kK; ++i) {
    expected *= static_cast<double>(kM - kDist - i) / static_cast<double>(kM - i);
  }
  const double definition3 = std::pow(
      1.0 - static_cast<double>(kDist) / kM, static_cast<double>(kK));
  ASSERT_LT(expected, definition3);  // distinct sampling is the sharper bound
  const double observed = static_cast<double>(collisions) / kTrials;
  EXPECT_NEAR(observed, expected, 0.02);
  EXPECT_LE(observed, definition3 + 0.02);
}

TEST(HammingLshFamilyTest, FamilyGuaranteeWithOptimalL) {
  // End-to-end Definition 3 + Equation 2: a pair within theta collides in
  // at least one of the L groups with frequency >= 1 - delta.
  Rng rng(8);
  constexpr size_t kM = 120;
  constexpr size_t kK = 30;
  constexpr size_t kTheta = 4;
  constexpr double kDelta = 0.1;
  const double p = HammingBaseProbability(kTheta, kM).value();
  const size_t L = OptimalGroups(p, kK, kDelta).value();
  EXPECT_EQ(L, 6u);  // the paper's PL value

  BitVector a(kM);
  for (size_t i = 0; i < kM; i += 2) a.Set(i);

  constexpr size_t kRounds = 600;
  size_t found = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    BitVector b = a;
    // Perturb exactly theta bits.
    for (size_t i = 0; i < kTheta; ++i) {
      const size_t pos = rng.Below(kM);
      if (b.Test(pos)) {
        b.Clear(pos);
      } else {
        b.Set(pos);
      }
    }
    Result<HammingLshFamily> family =
        HammingLshFamily::CreateFull(kK, L, kM, rng);
    ASSERT_TRUE(family.ok());
    for (size_t l = 0; l < L; ++l) {
      if (family.value().Key(a, l) == family.value().Key(b, l)) {
        ++found;
        break;
      }
    }
  }
  const double hit_rate = static_cast<double>(found) / kRounds;
  EXPECT_GE(hit_rate, 1.0 - kDelta - 0.04);
}

TEST(HammingLshFamilyTest, RangeRestrictedFamilyIgnoresOtherAttributes) {
  // Attribute-level h_l^(f_i) must be insensitive to bits outside its
  // segment (Section 5.4).
  Rng rng(9);
  Result<HammingLshFamily> family = HammingLshFamily::Create(8, 4, 30, 68, rng);
  ASSERT_TRUE(family.ok());
  BitVector a(120);
  BitVector b(120);
  b.Set(0);    // attribute f1
  b.Set(110);  // attribute f4
  for (size_t l = 0; l < 4; ++l) {
    EXPECT_EQ(family.value().Key(a, l), family.value().Key(b, l));
  }
  b.Set(35);  // inside [30, 98)
  bool any_diff = false;
  for (size_t l = 0; l < 4; ++l) {
    if (family.value().Key(a, l) != family.value().Key(b, l)) any_diff = true;
  }
  // With 4 groups of 8 samples over 68 bits, the flipped bit is sampled
  // with probability 1 - (67/68)^32 ~ 0.38; not guaranteed, so only check
  // that keys *can* change — re-roll until the bit is sampled.
  if (!any_diff) {
    bool sampled_somewhere = false;
    for (size_t l = 0; l < 4 && !sampled_somewhere; ++l) {
      for (uint32_t pos : family.value().function(l).positions()) {
        if (pos == 35) sampled_somewhere = true;
      }
    }
    EXPECT_FALSE(sampled_somewhere);
  }
}

// Bucket keys are persisted: a snapshot stores every bucket under its key,
// so a change in how keys are computed would silently empty the buckets
// of every index restored from disk.  The literals below are the keys of
// the original per-bit key loop; every way of computing keys must
// reproduce them.

TEST(HammingLshFamilyTest, PinnedKeysPlShape) {
  // The PL record-level shape: K = 30, L = 6 over 120 bits.
  Rng rng(2016);
  Result<HammingLshFamily> family =
      HammingLshFamily::CreateFull(30, 6, 120, rng);
  ASSERT_TRUE(family.ok());
  constexpr uint64_t kExpected[4][6] = {
      {0x9e3779b97f4a7c15ULL, 0x9e3779b97f4a7c15ULL, 0x9e3779b97f4a7c15ULL,
       0x9e3779b97f4a7c15ULL, 0x9e3779b97f4a7c15ULL, 0x9e3779b97f4a7c15ULL},
      {0x0ee136fcdad96d7bULL, 0x0ee136fcdad96d7bULL, 0x0ee136fcdad96d7bULL,
       0x0ee136fcdad96d7bULL, 0x0ee136fcdad96d7bULL, 0x0ee136fcdad96d7bULL},
      {0x574dd478fc50eb56ULL, 0x5265c68e34afd144ULL, 0x3daf1b6dffdeec3fULL,
       0xb2efc15c2c868e60ULL, 0xd98c12852666c874ULL, 0xa816c5535d79a585ULL},
      {0x534d1475fbc8159eULL, 0x0fdf6026b66a6dc9ULL, 0xa6b0b226e864d030ULL,
       0x44a8b501fd35c4b1ULL, 0xf311a304e90653d5ULL, 0x121636309c5853aeULL},
  };
  const std::vector<BitVector> vectors = PinnedVectors(120);
  HbBlocker blocker(family.value());
  for (size_t v = 0; v < vectors.size(); ++v) {
    blocker.Insert(EncodedRecord{v, vectors[v]}, static_cast<uint32_t>(v));
  }
  for (size_t v = 0; v < vectors.size(); ++v) {
    for (size_t l = 0; l < 6; ++l) {
      EXPECT_EQ(family.value().Key(vectors[v], l), kExpected[v][l])
          << "vector " << v << " group " << l;
      // The blocker files the record under the same key.
      const std::span<const uint32_t> bucket =
          blocker.tables()[l].Get(kExpected[v][l]);
      EXPECT_NE(std::find(bucket.begin(), bucket.end(), v), bucket.end())
          << "vector " << v << " group " << l;
    }
  }
}

TEST(HammingLshFamilyTest, PinnedKeysC1Compound) {
  // Rule C1 (f1 <= 4 AND f2 <= 4 AND f3 <= 8) over the NCVR c-vector
  // layout: f1 = [0, 15), f2 = [15, 30), f3 = [30, 98) with K = 5, 5, 10.
  // The compound key of group l folds the attribute keys the way
  // HbBlocker's conjunction structures do.
  Rng rng(2016);
  Result<HammingLshFamily> f1 = HammingLshFamily::Create(5, 4, 0, 15, rng);
  Result<HammingLshFamily> f2 = HammingLshFamily::Create(5, 4, 15, 15, rng);
  Result<HammingLshFamily> f3 = HammingLshFamily::Create(10, 4, 30, 68, rng);
  ASSERT_TRUE(f1.ok() && f2.ok() && f3.ok());
  constexpr uint64_t kExpected[4][4] = {
      {0x9cc2eae7bdbabdd3ULL, 0x04d59f36988748adULL, 0x5ff5fc3b61392763ULL,
       0x3175013c8cf258a0ULL},
      {0xf5cbf0d15e4b935eULL, 0x594e1b911aaf50d1ULL, 0x5f78c9acb65734cbULL,
       0x2e2088a78c8b5d32ULL},
      {0x616391efd994a157ULL, 0x2e1d2a7d9be3188cULL, 0x6376035d03d251f4ULL,
       0x10860b4de931b12fULL},
      {0x0394b2b8cc70810dULL, 0x4926119fc334ded0ULL, 0x690a8dbb11acbe67ULL,
       0x0530ee21612e519dULL},
  };
  const std::vector<BitVector> vectors = PinnedVectors(120);
  for (size_t v = 0; v < vectors.size(); ++v) {
    for (size_t l = 0; l < 4; ++l) {
      uint64_t compound = Mix64(l + 1);
      compound = HashCombine(compound, f1.value().Key(vectors[v], l));
      compound = HashCombine(compound, f2.value().Key(vectors[v], l));
      compound = HashCombine(compound, f3.value().Key(vectors[v], l));
      EXPECT_EQ(compound, kExpected[v][l]) << "vector " << v << " group " << l;
    }
  }
}

TEST(HammingLshFamilyTest, PinnedKeysMultiChunk) {
  // K = 130 spans three 64-bit chunks (64, 64, 2), folded in sample
  // order; the range [13, 263) starts off every word and nibble boundary.
  Rng rng(2016);
  Result<HammingLshFamily> family =
      HammingLshFamily::Create(130, 2, 13, 250, rng);
  ASSERT_TRUE(family.ok());
  constexpr uint64_t kExpected[4][2] = {
      {0x44df543dec0142d2ULL, 0x44df543dec0142d2ULL},
      {0x8a80093f6f503be9ULL, 0x8a80093f6f503be9ULL},
      {0x437937ecdc32d511ULL, 0x805c8885aab71e14ULL},
      {0x0842ec6e1019a3c8ULL, 0x8279e77b75964c71ULL},
  };
  const std::vector<BitVector> vectors = PinnedVectors(267);
  for (size_t v = 0; v < vectors.size(); ++v) {
    for (size_t l = 0; l < 2; ++l) {
      EXPECT_EQ(family.value().Key(vectors[v], l), kExpected[v][l])
          << "vector " << v << " group " << l;
    }
  }
}

/// The per-bit key of h_l, the definition the one-pass Keys must
/// reproduce: each sampled bit read on its own, in sample order, packed
/// most significant first into 64-bit chunks, the chunks folded with
/// HashCombine from 0.
uint64_t ReferenceKey(const HammingHashFunction& h, const BitVector& bv) {
  uint64_t acc = 0;
  uint64_t chunk = 0;
  size_t bits_in_chunk = 0;
  for (const uint32_t pos : h.positions()) {
    chunk = (chunk << 1) | static_cast<uint64_t>(bv.Test(pos));
    if (++bits_in_chunk == 64) {
      acc = HashCombine(acc, chunk);
      chunk = 0;
      bits_in_chunk = 0;
    }
  }
  if (bits_in_chunk > 0) acc = HashCombine(acc, chunk);
  return acc;
}

TEST(HammingLshFamilyTest, KeysMatchPerBitReference) {
  // Every lane width (K = 1, 5: 8-bit lanes; 30: 32-bit; 64; 65 and 130:
  // two and three 64-bit chunks), blocks left partly empty (L = 1, 6, 9,
  // 17), and ranges that start and end off nibble, byte and word
  // boundaries.
  struct Range {
    size_t width;
    size_t offset;
    size_t range_bits;
  };
  const std::vector<Range> ranges = {
      {7, 0, 7},      {7, 1, 5},       {120, 0, 120},     {120, 5, 113},
      {267, 13, 250}, {267, 0, 267},   {2000, 67, 1925},  {2000, 0, 2000},
  };
  Rng rng(31);
  for (const Range& r : ranges) {
    std::vector<BitVector> vectors(5, BitVector(r.width));
    for (size_t i = 0; i < r.width; ++i) vectors[1].Set(i);
    for (size_t v = 2; v < vectors.size(); ++v) {
      for (size_t i = 0; i < r.width; ++i) {
        if (rng() & 1) vectors[v].Set(i);
      }
    }
    for (const size_t K : {1, 5, 30, 64, 65, 130}) {
      if (K > r.range_bits) continue;
      for (const size_t L : {1, 6, 9, 17}) {
        Result<HammingLshFamily> family =
            HammingLshFamily::Create(K, L, r.offset, r.range_bits, rng);
        ASSERT_TRUE(family.ok());
        std::vector<uint64_t> keys(L);
        for (size_t v = 0; v < vectors.size(); ++v) {
          family.value().Keys(vectors[v], keys);
          for (size_t l = 0; l < L; ++l) {
            const uint64_t expected =
                ReferenceKey(family.value().function(l), vectors[v]);
            ASSERT_EQ(keys[l], expected)
                << "width " << r.width << " offset " << r.offset << " K "
                << K << " L " << L << " vector " << v << " group " << l;
            ASSERT_EQ(family.value().Key(vectors[v], l), expected);
          }
        }
      }
    }
  }
}

TEST(HammingLshFamilyTest, FromPositionsValidation) {
  using Lists = std::vector<std::vector<uint32_t>>;
  EXPECT_FALSE(HammingLshFamily::FromPositions(Lists{}).ok());
  EXPECT_FALSE(HammingLshFamily::FromPositions(Lists{{}, {}}).ok());
  EXPECT_FALSE(HammingLshFamily::FromPositions(Lists{{1, 2}, {3}}).ok());
  Result<HammingLshFamily> family =
      HammingLshFamily::FromPositions(Lists{{1, 2}, {3, 4}, {5, 6}});
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family.value().K(), 2u);
  EXPECT_EQ(family.value().L(), 3u);
}

TEST(HammingLshFamilyTest, FromPositionsConcatenatesFunctions) {
  // The C1 shape of PinnedKeysC1Compound: one family whose function l
  // samples function l of f1, f2 and f3 in turn keys exactly those bits,
  // so two vectors share its key iff they share all three attribute
  // keys.  Create is the same as FromPositions over its own functions.
  Rng rng(2016);
  std::vector<HammingLshFamily> parts;
  parts.push_back(HammingLshFamily::Create(5, 4, 0, 15, rng).value());
  parts.push_back(HammingLshFamily::Create(5, 4, 15, 15, rng).value());
  parts.push_back(HammingLshFamily::Create(10, 4, 30, 68, rng).value());
  std::vector<std::vector<uint32_t>> lists(4);
  for (size_t l = 0; l < 4; ++l) {
    for (const HammingLshFamily& part : parts) {
      const std::vector<uint32_t>& positions = part.function(l).positions();
      lists[l].insert(lists[l].end(), positions.begin(), positions.end());
    }
  }
  Result<HammingLshFamily> joined = HammingLshFamily::FromPositions(lists);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().K(), 20u);
  std::vector<BitVector> vectors = PinnedVectors(120);
  // Near copies of vector 2, each differing in one bit of one segment.
  for (const size_t bit : {3, 20, 50, 110}) {
    vectors.push_back(vectors[2]);
    vectors.back().Assign(bit, !vectors[2].Test(bit));
  }
  for (size_t l = 0; l < 4; ++l) {
    for (const BitVector& x : vectors) {
      EXPECT_EQ(joined.value().Key(x, l),
                ReferenceKey(joined.value().function(l), x));
      for (const BitVector& y : vectors) {
        bool all_equal = true;
        for (const HammingLshFamily& part : parts) {
          all_equal = all_equal && part.Key(x, l) == part.Key(y, l);
        }
        EXPECT_EQ(joined.value().Key(x, l) == joined.value().Key(y, l),
                  all_equal);
      }
    }
  }
  for (const HammingLshFamily& part : parts) {
    std::vector<std::vector<uint32_t>> own;
    for (size_t l = 0; l < part.L(); ++l) {
      own.push_back(part.function(l).positions());
    }
    Result<HammingLshFamily> rebuilt =
        HammingLshFamily::FromPositions(std::move(own));
    ASSERT_TRUE(rebuilt.ok());
    for (const BitVector& x : vectors) {
      for (size_t l = 0; l < part.L(); ++l) {
        EXPECT_EQ(rebuilt.value().Key(x, l), part.Key(x, l));
      }
    }
  }
}

}  // namespace
}  // namespace cbvlink
