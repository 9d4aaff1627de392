#include "src/linkage/dedup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/hashing.h"
#include "src/datagen/generators.h"
#include "src/datagen/perturbator.h"

namespace cbvlink {
namespace {

CbvHbConfig DedupConfig(const Schema& schema) {
  CbvHbConfig config;
  config.schema = schema;
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = 3;
  return config;
}

TEST(DedupTest, CleanDataSetHasOnlySingletons) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(1);
  std::vector<Record> records;
  // Force distinct records by regenerating on (unlikely) collisions.
  for (size_t i = 0; i < 100; ++i) {
    Record r = gen.value().Generate(i, rng);
    records.push_back(std::move(r));
  }
  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Generated records can occasionally collide on all four attributes;
  // allow a couple of genuine duplicates but no mass merging.
  EXPECT_GE(result.value().clusters.size(), 95u);
}

TEST(DedupTest, PlantedDuplicatesAreClustered) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(2);
  std::vector<Record> records;
  for (size_t i = 0; i < 200; ++i) {
    records.push_back(gen.value().Generate(i, rng));
  }
  // Plant a triple: ids 500, 501, 502 are typo-variants of record 0.
  const PerturbationScheme scheme = PerturbationScheme::Light();
  for (RecordId id = 500; id < 503; ++id) {
    Result<Record> dup = Perturbator::Apply(records[0], scheme, rng, nullptr);
    ASSERT_TRUE(dup.ok());
    Record r = std::move(dup).value();
    r.id = id;
    records.push_back(std::move(r));
  }

  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_TRUE(result.ok());

  // The cluster containing record 0 should include all three variants
  // (each variant is 1 edit from the original; variants are <= 2 edits
  // apart, still within theta = 4 bits per attribute most of the time —
  // require at least the originals' links).
  const std::vector<RecordId>* cluster0 = nullptr;
  for (const auto& cluster : result.value().clusters) {
    if (std::find(cluster.begin(), cluster.end(), 0u) != cluster.end()) {
      cluster0 = &cluster;
    }
  }
  ASSERT_NE(cluster0, nullptr);
  EXPECT_GE(cluster0->size(), 3u);
  for (RecordId id : {500u, 501u}) {
    const bool in_cluster0 =
        std::find(cluster0->begin(), cluster0->end(), id) != cluster0->end();
    EXPECT_TRUE(in_cluster0) << "variant " << id;
  }
}

TEST(DedupTest, PairsAreUnorderedAndUnique) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(3);
  std::vector<Record> records;
  for (size_t i = 0; i < 50; ++i) {
    records.push_back(gen.value().Generate(i % 10, rng));  // heavy dups
    records.back().id = i;
  }
  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_TRUE(result.ok());
  std::set<std::pair<RecordId, RecordId>> seen;
  for (const IdPair& pair : result.value().duplicate_pairs) {
    EXPECT_NE(pair.a_id, pair.b_id);
    const auto key = std::minmax(pair.a_id, pair.b_id);
    EXPECT_TRUE(seen.insert(key).second)
        << pair.a_id << "," << pair.b_id << " reported twice";
  }
}

TEST(DedupTest, ClustersPartitionTheIds) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(4);
  std::vector<Record> records;
  for (size_t i = 0; i < 120; ++i) {
    records.push_back(gen.value().Generate(i % 40, rng));
    records.back().id = i;
  }
  Result<DedupResult> result =
      FindDuplicates(records, DedupConfig(gen.value().schema()));
  ASSERT_TRUE(result.ok());
  std::set<RecordId> covered;
  for (const auto& cluster : result.value().clusters) {
    for (RecordId id : cluster) {
      EXPECT_TRUE(covered.insert(id).second) << id << " in two clusters";
    }
  }
  EXPECT_EQ(covered.size(), records.size());
}

TEST(DedupTest, PropagatesConfigErrors) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = DedupConfig(gen.value().schema());
  config.rule = Rule::Pred(9, 4);
  Rng rng(5);
  std::vector<Record> records{gen.value().Generate(0, rng)};
  EXPECT_FALSE(FindDuplicates(records, config).ok());
}

/// 400 NCVR records at seed 29, then typo-variants of every fifth one
/// under fresh ids: 480 records.
std::vector<Record> RecordsWithVariants(const NcvrGenerator& gen) {
  Rng rng(29);
  std::vector<Record> records;
  for (size_t i = 0; i < 400; ++i) records.push_back(gen.Generate(i, rng));
  for (size_t i = 0; i < 400; i += 5) {
    Result<Record> dup = Perturbator::Apply(
        records[i], PerturbationScheme::Light(), rng, nullptr);
    EXPECT_TRUE(dup.ok());
    records.push_back(std::move(dup).value());
    records.back().id = 1000 + i;
  }
  return records;
}

TEST(DedupTest, EstimatesFromTheFirstEstimationSampleRecords) {
  // The encoders are sized from the first estimation_sample records
  // only: the run equals one whose expected q-gram counts were estimated
  // from those records up front.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = RecordsWithVariants(gen.value());
  CbvHbConfig config = DedupConfig(gen.value().schema());
  config.estimation_sample = 100;
  CbvHbConfig preset = config;
  const std::vector<Record> first(records.begin(), records.begin() + 100);
  preset.expected_qgrams = EstimateExpectedQGrams(config.schema, first);
  Result<DedupResult> sampled = FindDuplicates(records, config);
  Result<DedupResult> expected = FindDuplicates(records, preset);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(sampled.value().duplicate_pairs, expected.value().duplicate_pairs);
  EXPECT_EQ(sampled.value().clusters, expected.value().clusters);
  EXPECT_EQ(sampled.value().stats.comparisons,
            expected.value().stats.comparisons);
  EXPECT_FALSE(expected.value().duplicate_pairs.empty());
}

TEST(DedupTest, PinnedPairs) {
  // The exact duplicate-pair list at a fixed seed: its length, the
  // comparison count, the cluster count and a hash of the ordered list,
  // identical at any thread count.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const std::vector<Record> records = RecordsWithVariants(gen.value());
  CbvHbConfig config = DedupConfig(gen.value().schema());
  config.seed = 2016;
  for (const size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Result<DedupResult> result = FindDuplicates(
        records, config, ExecutionOptions::WithThreads(threads));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<IdPair>& pairs = result.value().duplicate_pairs;
    uint64_t hash = Mix64(pairs.size());
    for (const IdPair& pair : pairs) {
      hash = HashCombine(HashCombine(hash, pair.a_id), pair.b_id);
    }
    EXPECT_EQ(pairs.size(), 75u);
    EXPECT_EQ(result.value().stats.comparisons, 92u);
    EXPECT_EQ(result.value().clusters.size(), 405u);
    EXPECT_EQ(hash, 0xe1aa8b8370c37d75ULL);
  }
}

}  // namespace
}  // namespace cbvlink
