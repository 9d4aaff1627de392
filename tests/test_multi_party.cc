#include "src/linkage/multi_party.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/hashing.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/datagen/perturbator.h"

namespace cbvlink {
namespace {

MultiPartyConfig MakeConfig(const Schema& schema) {
  MultiPartyConfig config;
  config.schema = schema;
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = 3;
  return config;
}

TEST(MultiPartyLinkerTest, CreateValidation) {
  Schema empty;
  EXPECT_FALSE(MultiPartyLinker::Create(MultiPartyConfig{}).ok());
  (void)empty;
}

TEST(MultiPartyLinkerTest, RejectsFewerThanTwoParties) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Result<MultiPartyLinker> linker =
      MultiPartyLinker::Create(MakeConfig(gen.value().schema()));
  ASSERT_TRUE(linker.ok());
  Rng rng(1);
  std::vector<std::vector<Record>> one_party;
  one_party.push_back({gen.value().Generate(0, rng)});
  EXPECT_FALSE(linker.value().Link(one_party).ok());
  std::vector<std::vector<Record>> with_empty = one_party;
  with_empty.push_back({});
  EXPECT_FALSE(linker.value().Link(with_empty).ok());
}

TEST(MultiPartyLinkerTest, TwoPartiesMatchesPairwiseTruth) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 400;
  options.seed = 9;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());

  Result<MultiPartyLinker> linker =
      MultiPartyLinker::Create(MakeConfig(gen.value().schema()));
  ASSERT_TRUE(linker.ok());
  Result<MultiPartyResult> result =
      linker.value().Link({data.value().a, data.value().b});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Most truth pairs should be found, reported as (party 0, party 1).
  std::set<std::pair<RecordId, RecordId>> found;
  for (const MultiPartyMatch& m : result.value().matches) {
    EXPECT_NE(m.party_a, m.party_b);
    if (m.party_a == 0) {
      found.insert({m.id_a, m.id_b});
    } else {
      found.insert({m.id_b, m.id_a});
    }
  }
  size_t hits = 0;
  for (const GroundTruthEntry& entry : data.value().truth) {
    if (found.contains({entry.pair.a_id, entry.pair.b_id})) ++hits;
  }
  EXPECT_GE(static_cast<double>(hits) /
                static_cast<double>(data.value().truth.size()),
            0.85);
}

TEST(MultiPartyLinkerTest, RepeatedIdsInAPartyKeepTheFirstRecord) {
  // A party that repeats an id keeps the first record under it: an exact
  // repeat changes nothing, and a repeat with other values only adds
  // candidates for the first record.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 300;
  options.seed = 13;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());
  MultiPartyConfig config = MakeConfig(gen.value().schema());
  // Fixed sizing, so the repeats cannot change the encoder.
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Result<MultiPartyLinker> linker = MultiPartyLinker::Create(config);
  ASSERT_TRUE(linker.ok());
  const std::vector<Record>& a = data.value().a;
  const std::vector<Record>& b = data.value().b;

  const auto pairs_of = [&](const std::vector<Record>& party0) {
    Result<MultiPartyResult> result = linker.value().Link({party0, b});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::pair<RecordId, RecordId>> pairs;
    if (!result.ok()) return pairs;
    for (const MultiPartyMatch& m : result.value().matches) {
      pairs.push_back({m.id_a, m.id_b});
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const auto plain = pairs_of(a);
  ASSERT_FALSE(plain.empty());

  std::vector<Record> exact = a;
  for (size_t i = 0; i < 20; ++i) exact.push_back(a[i * 11 % a.size()]);
  EXPECT_EQ(pairs_of(exact), plain);

  std::vector<Record> changed = a;
  for (size_t i = 0; i < 20; ++i) {
    Record repeat = b[i];
    repeat.id = a[(i * 37 + 5) % a.size()].id;
    changed.push_back(std::move(repeat));
  }
  const auto with_changed = pairs_of(changed);
  EXPECT_TRUE(std::adjacent_find(with_changed.begin(), with_changed.end()) ==
              with_changed.end())
      << "a repeated id is compared once per probe";
  EXPECT_TRUE(std::includes(with_changed.begin(), with_changed.end(),
                            plain.begin(), plain.end()));
}

TEST(MultiPartyLinkerTest, ThreePartiesCoverAllCrossPairs) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(5);
  // Three custodians all holding the same 50 entities (identical
  // records), plus unique filler — every cross-party pair of the shared
  // entities should be matched.
  std::vector<Record> shared;
  for (size_t i = 0; i < 50; ++i) {
    shared.push_back(gen.value().Generate(i, rng));
  }
  std::vector<std::vector<Record>> parties(3);
  for (size_t p = 0; p < 3; ++p) {
    parties[p] = shared;
    for (size_t i = 0; i < 30; ++i) {
      Record filler = gen.value().Generate(1000 + p * 100 + i, rng);
      filler.id = 100 + i;  // ids unique within the party
      parties[p].push_back(std::move(filler));
    }
  }

  Result<MultiPartyLinker> linker =
      MultiPartyLinker::Create(MakeConfig(gen.value().schema()));
  ASSERT_TRUE(linker.ok());
  Result<MultiPartyResult> result = linker.value().Link(parties);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // For each shared entity, expect the three cross-party pairs
  // (0,1), (0,2), (1,2).
  std::set<std::tuple<PartyId, RecordId, PartyId, RecordId>> found;
  for (const MultiPartyMatch& m : result.value().matches) {
    found.insert({m.party_a, m.id_a, m.party_b, m.id_b});
  }
  size_t covered = 0;
  for (size_t i = 0; i < 50; ++i) {
    const bool p01 = found.contains({0, i, 1, i});
    const bool p02 = found.contains({0, i, 2, i});
    const bool p12 = found.contains({1, i, 2, i});
    if (p01 && p02 && p12) ++covered;
  }
  // Identical records collide in every group; all should be covered.
  EXPECT_GE(covered, 48u);
}

TEST(MultiPartyLinkerTest, NoFalseCrossPartyPartyIds) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(6);
  std::vector<std::vector<Record>> parties(2);
  for (size_t p = 0; p < 2; ++p) {
    for (size_t i = 0; i < 100; ++i) {
      Record r = gen.value().Generate(p * 1000 + i, rng);
      r.id = i;
      parties[p].push_back(std::move(r));
    }
  }
  Result<MultiPartyLinker> linker =
      MultiPartyLinker::Create(MakeConfig(gen.value().schema()));
  ASSERT_TRUE(linker.ok());
  Result<MultiPartyResult> result = linker.value().Link(parties);
  ASSERT_TRUE(result.ok());
  for (const MultiPartyMatch& m : result.value().matches) {
    EXPECT_LT(m.party_a, 2u);
    EXPECT_LT(m.party_b, 2u);
    EXPECT_LT(m.id_a, 100u);
    EXPECT_LT(m.id_b, 100u);
  }
}

TEST(MultiPartyLinkerTest, PinnedMatchesThreeParties) {
  // The exact match list at a fixed seed: its length, the comparison
  // count and a hash of the ordered list.  Three custodians hold
  // perturbed copies of overlapping entities; party 0 is larger than the
  // estimation sample, so the encoder is sized from its first records.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(23);
  std::vector<Record> entities;
  for (size_t i = 0; i < 200; ++i) {
    entities.push_back(gen.value().Generate(i, rng));
  }
  std::vector<std::vector<Record>> parties(3);
  for (size_t p = 0; p < 3; ++p) {
    for (size_t i = 0; i < entities.size(); ++i) {
      if (rng.Below(4) == 0) continue;  // not every custodian holds everyone
      Result<Record> copy = Perturbator::Apply(
          entities[i], PerturbationScheme::Light(), rng, nullptr);
      ASSERT_TRUE(copy.ok());
      parties[p].push_back(std::move(copy).value());
      parties[p].back().id = i;
    }
  }
  MultiPartyConfig config = MakeConfig(gen.value().schema());
  config.estimation_sample = 100;
  config.seed = 2016;
  Result<MultiPartyLinker> linker = MultiPartyLinker::Create(config);
  ASSERT_TRUE(linker.ok());
  Result<MultiPartyResult> result = linker.value().Link(parties);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  uint64_t hash = Mix64(result.value().matches.size());
  for (const MultiPartyMatch& m : result.value().matches) {
    hash = HashCombine(hash, m.party_a);
    hash = HashCombine(hash, m.id_a);
    hash = HashCombine(hash, m.party_b);
    hash = HashCombine(hash, m.id_b);
  }
  EXPECT_EQ(result.value().matches.size(), 277u);
  EXPECT_EQ(result.value().stats.comparisons, 298u);
  EXPECT_EQ(hash, 0xf303ecfd77588476ULL);
  EXPECT_EQ(result.value().blocking_groups, 6u);
}

}  // namespace
}  // namespace cbvlink
