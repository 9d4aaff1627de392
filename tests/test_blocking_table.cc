#include "src/lsh/blocking_table.h"

#include <gtest/gtest.h>

namespace cbvlink {
namespace {

TEST(BlockingTableTest, EmptyTable) {
  BlockingTable table;
  EXPECT_EQ(table.NumBuckets(), 0u);
  EXPECT_EQ(table.NumEntries(), 0u);
  EXPECT_EQ(table.MaxBucketSize(), 0u);
  EXPECT_TRUE(table.Get(42).empty());
}

TEST(BlockingTableTest, InsertAndGet) {
  BlockingTable table;
  table.Insert(1, 100);
  table.Insert(1, 101);
  table.Insert(2, 102);
  EXPECT_EQ(table.NumBuckets(), 2u);
  EXPECT_EQ(table.NumEntries(), 3u);
  EXPECT_EQ(table.MaxBucketSize(), 2u);
  const auto bucket = table.Get(1);
  ASSERT_EQ(bucket.size(), 2u);
  EXPECT_EQ(bucket[0], 100u);
  EXPECT_EQ(bucket[1], 101u);
  EXPECT_EQ(table.Get(2).size(), 1u);
  EXPECT_TRUE(table.Get(3).empty());
}

TEST(BlockingTableTest, DuplicateIdsAllowedInBucket) {
  BlockingTable table;
  table.Insert(5, 7);
  table.Insert(5, 7);
  EXPECT_EQ(table.Get(5).size(), 2u);
}

TEST(BlockingTableTest, MeanBucketSize) {
  BlockingTable table;
  EXPECT_DOUBLE_EQ(table.MeanBucketSize(), 0.0);
  table.Insert(1, 100);
  table.Insert(1, 101);
  table.Insert(1, 102);
  table.Insert(2, 103);
  EXPECT_DOUBLE_EQ(table.MeanBucketSize(), 2.0);  // 4 entries / 2 buckets
}

TEST(BlockingTableTest, OccupancyHistogramLog2Slots) {
  BlockingTable table;
  table.Insert(1, 1);                              // size 1 -> slot 0
  for (int i = 0; i < 3; ++i) table.Insert(2, i);  // size 3 -> slot 1
  for (int i = 0; i < 4; ++i) table.Insert(3, i);  // size 4 -> slot 2
  const std::vector<uint64_t> histogram = table.OccupancyHistogram(16);
  ASSERT_EQ(histogram.size(), 16u);
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 1u);
  EXPECT_EQ(histogram[2], 1u);
  for (size_t i = 3; i < histogram.size(); ++i) EXPECT_EQ(histogram[i], 0u);
}

TEST(BlockingTableTest, OccupancyHistogramClampsToLastSlot) {
  BlockingTable table;
  for (int i = 0; i < 100; ++i) table.Insert(7, i);  // log2(100) = 6 > 3
  const std::vector<uint64_t> histogram = table.OccupancyHistogram(4);
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[3], 1u);
}

TEST(BlockingTableTest, BucketsIterable) {
  BlockingTable table;
  table.Insert(1, 10);
  table.Insert(2, 20);
  table.Insert(2, 21);
  size_t total = 0;
  size_t buckets = 0;
  table.ForEachBucket([&](uint64_t key, std::span<const RecordId> bucket) {
    ++buckets;
    total += bucket.size();
    EXPECT_EQ(bucket[0], key * 10);
  });
  EXPECT_EQ(buckets, 2u);
  EXPECT_EQ(total, 3u);
}

TEST(BlockingTableTest, EqualityIsByContent) {
  BlockingTable x;
  BlockingTable y;
  EXPECT_TRUE(x == y);
  x.Insert(1, 10);
  x.Insert(2, 20);
  y.Insert(2, 20);
  EXPECT_FALSE(x == y);
  y.Insert(1, 10);
  EXPECT_TRUE(x == y);  // insertion order across keys does not matter
  x.Insert(1, 11);
  y.Insert(1, 12);
  EXPECT_FALSE(x == y);  // same sizes, different ids
  BlockingTable z;
  z.Insert(1, 11);
  z.Insert(1, 10);
  z.Insert(2, 20);
  BlockingTable w;
  w.Insert(1, 10);
  w.Insert(1, 11);
  w.Insert(2, 20);
  EXPECT_FALSE(z == w);  // per-bucket order matters
  // Layout does not matter: exact-sized bulk buckets equal grown ones.
  const uint64_t keys[] = {1, 1, 2};
  const RecordId ids[] = {10, 11, 20};
  BlockingTable bulk;
  bulk.BulkInsert(keys, ids);
  EXPECT_TRUE(bulk == w);
}

}  // namespace
}  // namespace cbvlink
