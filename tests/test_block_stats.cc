#include "src/eval/block_stats.h"

#include <gtest/gtest.h>

namespace cbvlink {
namespace {

TEST(GiniCoefficientTest, EmptyAndDegenerate) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniCoefficient({5}), 0.0);
}

TEST(GiniCoefficientTest, UniformIsZero) {
  EXPECT_DOUBLE_EQ(GiniCoefficient({3, 3, 3, 3}), 0.0);
}

TEST(GiniCoefficientTest, FullConcentrationApproachesOne) {
  // One bucket holds everything among n buckets: G = (n-1)/n.
  EXPECT_NEAR(GiniCoefficient({0, 0, 0, 100}), 0.75, 1e-12);
  std::vector<size_t> sizes(100, 0);
  sizes[0] = 1000;
  EXPECT_NEAR(GiniCoefficient(sizes), 0.99, 1e-12);
}

TEST(GiniCoefficientTest, KnownValue) {
  // Sizes 1,2,3,4: G = (2*(1*1+2*2+3*3+4*4) - 5*10) / (4*10) = 1/4.
  EXPECT_NEAR(GiniCoefficient({1, 2, 3, 4}), 0.25, 1e-12);
  // Order must not matter.
  EXPECT_NEAR(GiniCoefficient({4, 1, 3, 2}), 0.25, 1e-12);
}

TEST(ComputeBucketStatsTest, EmptyTable) {
  BlockingTable table;
  const BucketStats stats = ComputeBucketStats(table);
  EXPECT_EQ(stats.num_buckets, 0u);
  EXPECT_EQ(stats.num_entries, 0u);
  EXPECT_EQ(stats.max_bucket, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_bucket, 0.0);
  EXPECT_DOUBLE_EQ(stats.expected_probe_candidates, 0.0);
}

TEST(ComputeBucketStatsTest, SingleTable) {
  BlockingTable table;
  table.Insert(1, 10);
  table.Insert(1, 11);
  table.Insert(1, 12);
  table.Insert(2, 20);
  const BucketStats stats = ComputeBucketStats(table);
  EXPECT_EQ(stats.num_buckets, 2u);
  EXPECT_EQ(stats.num_entries, 4u);
  EXPECT_EQ(stats.max_bucket, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_bucket, 2.0);
  EXPECT_DOUBLE_EQ(stats.expected_probe_candidates, 9.0 + 1.0);
  EXPECT_GT(stats.gini, 0.0);
}

TEST(ComputeBucketStatsTest, AggregatesAcrossTables) {
  std::vector<BlockingTable> tables(2);
  tables[0].Insert(1, 10);
  tables[0].Insert(1, 11);
  tables[1].Insert(9, 10);
  const BucketStats stats = ComputeBucketStats(tables);
  EXPECT_EQ(stats.num_buckets, 2u);
  EXPECT_EQ(stats.num_entries, 3u);
  EXPECT_EQ(stats.max_bucket, 2u);
  EXPECT_DOUBLE_EQ(stats.expected_probe_candidates, 4.0 + 1.0);
}

TEST(ComputeBucketStatsTest, SkewIsVisibleInGini) {
  // A balanced table vs one giant bucket.
  BlockingTable balanced;
  for (uint64_t k = 0; k < 10; ++k) {
    balanced.Insert(k, k);
    balanced.Insert(k, k + 100);
  }
  BlockingTable skewed;
  for (uint32_t id = 0; id < 19; ++id) skewed.Insert(7, id);
  skewed.Insert(8, 99);
  EXPECT_LT(ComputeBucketStats(balanced).gini, 0.05);
  EXPECT_GT(ComputeBucketStats(skewed).gini, 0.4);
}

}  // namespace
}  // namespace cbvlink
