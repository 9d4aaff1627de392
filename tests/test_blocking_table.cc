#include "src/lsh/blocking_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "src/common/hashing.h"

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
  table.ForEachBucket([&](uint64_t key, std::span<const uint32_t> bucket) {
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
  const uint32_t ids[] = {10, 11, 20};
  BlockingTable bulk;
  bulk.BulkInsert(keys, ids);
  EXPECT_TRUE(bulk == w);
}

// --- Bucket cap: the first `cap` Ids stay, the rest are dropped and
// counted, and the bucket's overflow bit is set.

TEST(BlockingTableTest, BucketCapDropsAndFlagsOverflow) {
  BlockingTable table(2);
  for (uint32_t id = 0; id < 3; ++id) table.Insert(9, id);
  table.Insert(4, 40);
  const auto bucket = table.Get(9);
  ASSERT_EQ(bucket.size(), 2u);
  EXPECT_EQ(bucket[0], 0u);
  EXPECT_EQ(bucket[1], 1u);
  EXPECT_TRUE(table.Overflowed(9));
  EXPECT_FALSE(table.Overflowed(4));
  EXPECT_FALSE(table.Overflowed(5));  // absent key
  EXPECT_EQ(table.NumDropped(), 1u);
  EXPECT_EQ(table.NumOverflowed(), 1u);
  EXPECT_EQ(table.NumEntries(), 3u);
  EXPECT_EQ(table.MaxBucketSize(), 2u);
  // Per-table health: the capped bucket still counts as one size-2
  // bucket in the occupancy histogram.
  const std::vector<uint64_t> histogram = table.OccupancyHistogram(16);
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 1u);
  EXPECT_DOUBLE_EQ(table.MeanBucketSize(), 1.5);
  size_t flagged = 0;
  table.ForEachBucket(
      [&](uint64_t key, std::span<const uint32_t>, bool overflowed) {
        if (overflowed) {
          ++flagged;
          EXPECT_EQ(key, 9u);
        }
      });
  EXPECT_EQ(flagged, 1u);
}

TEST(BlockingTableTest, UncappedTableNeverOverflows) {
  BlockingTable table;
  for (uint32_t id = 0; id < 1000; ++id) table.Insert(1, id);
  EXPECT_EQ(table.Get(1).size(), 1000u);
  EXPECT_FALSE(table.Overflowed(1));
  EXPECT_EQ(table.NumDropped(), 0u);
  EXPECT_EQ(table.NumOverflowed(), 0u);
}

// One partition of BulkInsert's build into an empty table holds up to
// this many entries; the sizes below straddle it.
constexpr size_t kPartitionEntries = 2048;

enum class KeyShape { kAllEqual, kAllDistinct, kZipf, kThirteen };

const char* Name(KeyShape shape) {
  switch (shape) {
    case KeyShape::kAllEqual:
      return "all-equal";
    case KeyShape::kAllDistinct:
      return "all-distinct";
    case KeyShape::kZipf:
      return "zipf";
    case KeyShape::kThirteen:
      return "13-keys";
  }
  return "?";
}

std::vector<uint64_t> MakeKeys(KeyShape shape, size_t n) {
  std::vector<uint64_t> keys(n);
  std::mt19937_64 rng(n * 31 + static_cast<size_t>(shape));
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case KeyShape::kAllEqual:
        keys[i] = 0x5eed;
        break;
      case KeyShape::kAllDistinct:
        keys[i] = i * 0x9e3779b97f4a7c15ULL;
        break;
      case KeyShape::kZipf: {
        // Log-uniform ranks over [1, n]: P(rank = r) falls as 1/r, so a
        // few keys hold a large share of the entries.
        const double u = std::uniform_real_distribution<double>(0, 1)(rng);
        keys[i] = static_cast<uint64_t>(
            std::exp(u * std::log(static_cast<double>(n) + 1)));
        break;
      }
      case KeyShape::kThirteen:
        keys[i] = (i * 7919) % 13;
        break;
    }
  }
  return keys;
}

TEST(BlockingTableTest, BulkInsertKeepsCapSemantics) {
  // Bulk and serial builds must keep the same first Ids per bucket, the
  // same overflow bits and the same counters, into an empty table (one
  // partition, a partition's worth +-1, and many partitions) and
  // appended to a non-empty one.
  for (const size_t n :
       {size_t{0}, size_t{1}, size_t{200}, kPartitionEntries - 1,
        kPartitionEntries, kPartitionEntries + 1, size_t{200000}}) {
    for (const KeyShape shape : {KeyShape::kAllEqual, KeyShape::kAllDistinct,
                                 KeyShape::kZipf, KeyShape::kThirteen}) {
      const std::vector<uint64_t> keys = MakeKeys(shape, n);
      std::vector<uint32_t> ids(n);
      for (size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<uint32_t>(i * 2654435761u);
      }
      for (const size_t cap : {size_t{0}, size_t{1}, size_t{3}, size_t{15}}) {
        SCOPED_TRACE(testing::Message() << "n " << n << ", " << Name(shape)
                                        << " keys, cap " << cap);
        BlockingTable serial(cap);
        for (size_t i = 0; i < n; ++i) serial.Insert(keys[i], ids[i]);
        BlockingTable bulk(cap);
        bulk.BulkInsert(keys, ids);
        EXPECT_TRUE(bulk == serial);
        EXPECT_EQ(bulk.NumDropped(), serial.NumDropped());
        EXPECT_EQ(bulk.NumEntries(), serial.NumEntries());
        EXPECT_EQ(bulk.MaxBucketSize(), serial.MaxBucketSize());
        EXPECT_EQ(bulk.NumOverflowed(), serial.NumOverflowed());
        EXPECT_EQ(bulk.NumBuckets(), serial.NumBuckets());
        if (shape == KeyShape::kThirteen && n == 200 && cap != 0 &&
            cap < 15) {
          EXPECT_GT(bulk.NumDropped(), 0u);
          EXPECT_EQ(bulk.MaxBucketSize(), cap);
        }
        if (n == 0) continue;
        // Appending goes through Insert() and keeps the cap.
        serial.Insert(keys[0], 5000);
        bulk.BulkInsert(std::span<const uint64_t>(keys.data(), 1),
                        std::vector<uint32_t>{5000});
        EXPECT_TRUE(bulk == serial) << "after append";
      }
    }
  }
}

TEST(BlockingTableTest, BulkInsertOutgrowsPartitionTable) {
  // Distinct keys whose mixed hashes share their top 10 bits all land in
  // one partition, which then holds more distinct keys than a partition's
  // counting table starts with.
  std::vector<uint64_t> keys;
  for (uint64_t key = 0; keys.size() < 3 * kPartitionEntries; ++key) {
    if (Mix64(key) >> 54 == 0) keys.push_back(key);
  }
  std::vector<uint32_t> ids(keys.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  // Every key twice, the second time after all the others.
  keys.insert(keys.end(), keys.begin(), keys.end());
  ids.insert(ids.end(), ids.begin(), ids.end());
  for (const size_t cap : {size_t{0}, size_t{1}}) {
    BlockingTable serial(cap);
    for (size_t i = 0; i < keys.size(); ++i) serial.Insert(keys[i], ids[i]);
    BlockingTable bulk(cap);
    bulk.BulkInsert(keys, ids);
    EXPECT_TRUE(bulk == serial) << "cap " << cap;
    EXPECT_EQ(bulk.NumBuckets(), 3 * kPartitionEntries);
    EXPECT_EQ(bulk.NumDropped(), serial.NumDropped()) << "cap " << cap;
    EXPECT_EQ(bulk.MaxBucketSize(), serial.MaxBucketSize()) << "cap " << cap;
  }
}

TEST(BlockingTableTest, EqualityIncludesOverflowBits) {
  BlockingTable capped(1);
  capped.Insert(1, 10);
  capped.Insert(1, 11);  // dropped
  BlockingTable plain;
  plain.Insert(1, 10);
  EXPECT_FALSE(capped == plain);
  EXPECT_FALSE(plain.Overflowed(2));
  EXPECT_EQ(plain.NumBuckets(), 1u);
}

TEST(BlockingTableTest, ProbeBatchEmitsBucketsInAddOrder) {
  // The key-first probe resolves a whole block before emitting it, and
  // flushes whenever the block is full; across several blocks the spans
  // must come out exactly as one Get() per table in Add order, empty
  // buckets skipped.
  std::vector<BlockingTable> tables(3 * ProbeBatch::kCapacity + 5);
  for (size_t t = 0; t < tables.size(); ++t) {
    for (uint32_t slot = 0; slot < t % 4; ++slot) {
      tables[t].Insert(t * 10, static_cast<uint32_t>(t * 100 + slot));
    }
  }
  std::vector<std::vector<uint32_t>> expected;
  for (size_t t = 0; t < tables.size(); ++t) {
    const auto bucket = tables[t].Get(t * 10);
    if (!bucket.empty()) expected.emplace_back(bucket.begin(), bucket.end());
  }
  std::vector<std::vector<uint32_t>> emitted;
  const auto collect = [&](std::span<const uint32_t> bucket) {
    emitted.emplace_back(bucket.begin(), bucket.end());
  };
  ProbeBatch batch;
  for (size_t t = 0; t < tables.size(); ++t) {
    batch.Add(tables[t], t * 10);
    if (batch.full()) batch.Flush(collect);
  }
  batch.Flush(collect);
  EXPECT_EQ(emitted, expected);
  EXPECT_FALSE(expected.empty());
}

TEST(BlockingTableTest, ProbeBatchReportsOverflowedBuckets) {
  // Flush reports whether a resolved bucket dropped entries at the cap;
  // the service's scan fallback relies on it.
  BlockingTable capped(1);
  capped.Insert(1, 10);
  capped.Insert(1, 11);  // dropped: bucket 1 overflows
  capped.Insert(2, 20);
  size_t spans = 0;
  const auto count = [&](std::span<const uint32_t>) { ++spans; };
  ProbeBatch batch;
  batch.Add(capped, 2);
  EXPECT_FALSE(batch.Flush(count));
  batch.Add(capped, 2);
  batch.Add(capped, 1);
  EXPECT_TRUE(batch.Flush(count));
  batch.Add(capped, 4);  // absent key
  EXPECT_FALSE(batch.Flush(count));
  EXPECT_EQ(spans, 3u);
}

}  // namespace
}  // namespace cbvlink
