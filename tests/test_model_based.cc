// Model-based randomized tests: core containers are exercised against
// trivially correct reference implementations under long random
// operation sequences, and serialization layers are checked by
// write/read round-trip properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/eval/csv.h"
#include "src/io/csv_reader.h"
#include "src/lsh/blocking_table.h"

namespace cbvlink {
namespace {

TEST(BitVectorModelTest, RandomOpsAgreeWithVectorBool) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    const size_t bits = 1 + rng.Below(300);
    BitVector bv(bits);
    std::vector<bool> model(bits, false);
    for (int op = 0; op < 500; ++op) {
      const size_t pos = rng.Below(bits);
      switch (rng.Below(3)) {
        case 0:
          bv.Set(pos);
          model[pos] = true;
          break;
        case 1:
          bv.Clear(pos);
          model[pos] = false;
          break;
        default: {
          const bool value = rng.NextBool(0.5);
          bv.Assign(pos, value);
          model[pos] = value;
          break;
        }
      }
    }
    size_t model_pop = 0;
    for (size_t i = 0; i < bits; ++i) {
      EXPECT_EQ(bv.Test(i), model[i]) << "bit " << i;
      if (model[i]) ++model_pop;
    }
    EXPECT_EQ(bv.PopCount(), model_pop);
  }
}

TEST(BitVectorModelTest, HammingAgreesWithNaiveCount) {
  Rng rng(43);
  for (int round = 0; round < 30; ++round) {
    const size_t bits = 1 + rng.Below(250);
    BitVector a(bits);
    BitVector b(bits);
    for (size_t i = 0; i < bits; ++i) {
      if (rng.NextBool(0.4)) a.Set(i);
      if (rng.NextBool(0.4)) b.Set(i);
    }
    size_t naive = 0;
    for (size_t i = 0; i < bits; ++i) {
      if (a.Test(i) != b.Test(i)) ++naive;
    }
    EXPECT_EQ(a.HammingDistance(b), naive);
    // Ranged distance over random sub-intervals.
    for (int probe = 0; probe < 10; ++probe) {
      const size_t offset = rng.Below(bits);
      const size_t length = rng.Below(bits - offset + 1);
      size_t naive_range = 0;
      for (size_t i = offset; i < offset + length; ++i) {
        if (a.Test(i) != b.Test(i)) ++naive_range;
      }
      EXPECT_EQ(a.HammingDistanceRange(b, offset, length), naive_range)
          << "offset=" << offset << " length=" << length;
    }
  }
}

TEST(BitVectorModelTest, AppendThenSliceIsIdentity) {
  Rng rng(44);
  for (int round = 0; round < 40; ++round) {
    const size_t bits_x = 1 + rng.Below(150);
    const size_t bits_y = 1 + rng.Below(150);
    BitVector x(bits_x);
    BitVector y(bits_y);
    for (size_t i = 0; i < bits_x; ++i) {
      if (rng.NextBool(0.5)) x.Set(i);
    }
    for (size_t i = 0; i < bits_y; ++i) {
      if (rng.NextBool(0.5)) y.Set(i);
    }
    BitVector joined = x;
    joined.Append(y);
    ASSERT_EQ(joined.size(), bits_x + bits_y);
    EXPECT_EQ(joined.Slice(0, bits_x), x);
    EXPECT_EQ(joined.Slice(bits_x, bits_y), y);
    EXPECT_EQ(joined.PopCount(), x.PopCount() + y.PopCount());
  }
}

using BucketModel = std::map<uint64_t, std::vector<uint32_t>>;

/// Keys that share a home slot in every BlockingTable of up to 2^16 slots
/// (a key's home slot is Mix64(key) masked to the slot count), so their
/// buckets always chain by linear probing.
std::vector<uint64_t> CollidingKeys(size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t key = 0; keys.size() < n; ++key) {
    if ((Mix64(key) & 0xFFFF) == 0) keys.push_back(key);
  }
  return keys;
}

void ExpectAgrees(const BlockingTable& table, const BucketModel& model) {
  EXPECT_EQ(table.NumBuckets(), model.size());
  size_t model_entries = 0;
  size_t model_max = 0;
  std::vector<uint64_t> model_histogram(16, 0);
  for (const auto& [key, bucket] : model) {
    model_entries += bucket.size();
    model_max = std::max(model_max, bucket.size());
    ++model_histogram[std::min<size_t>(15, std::bit_width(bucket.size()) - 1)];
    const auto actual = table.Get(key);
    ASSERT_EQ(actual.size(), bucket.size()) << "key " << key;
    for (size_t i = 0; i < bucket.size(); ++i) {
      EXPECT_EQ(actual[i], bucket[i]) << "key " << key << " position " << i;
    }
  }
  EXPECT_EQ(table.NumEntries(), model_entries);
  EXPECT_EQ(table.MaxBucketSize(), model_max);
  EXPECT_EQ(table.OccupancyHistogram(16), model_histogram);
  // ForEachBucket visits each model bucket exactly once, with its ids.
  BucketModel visited;
  table.ForEachBucket([&](uint64_t key, std::span<const uint32_t> bucket) {
    EXPECT_TRUE(visited.emplace(key, std::vector<uint32_t>(bucket.begin(),
                                                           bucket.end()))
                    .second)
        << "key " << key << " visited twice";
  });
  EXPECT_EQ(visited, model);
  EXPECT_TRUE(table.Get(UINT64_MAX).empty());
}

TEST(BlockingTableModelTest, AgreesWithMultimap) {
  Rng rng(45);
  const std::vector<uint64_t> colliding = CollidingKeys(24);
  // Half the draws hit the colliding keys, the rest a range wide enough
  // to force several slot-array doublings.
  const auto draw_key = [&]() -> uint64_t {
    return rng.NextBool(0.5) ? colliding[rng.Below(colliding.size())]
                             : 1000 + rng.Below(300);
  };
  // BulkInsert of `n` random entries, mirrored into the model.
  const auto bulk = [&](BlockingTable* table, BucketModel* model, size_t n) {
    std::vector<uint64_t> keys(n);
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = draw_key();
      ids[i] = static_cast<uint32_t>(rng.Below(1000));
      (*model)[keys[i]].push_back(ids[i]);
    }
    table->BulkInsert(keys, ids);
  };
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    BlockingTable table;
    BucketModel model;
    if (round % 2 == 0) {
      // BulkInsert into an empty table (exact bucket sizing).
      bulk(&table, &model, rng.Below(600));
      ExpectAgrees(table, model);
    }
    for (int op = 0; op < 400; ++op) {
      if (rng.NextBool(0.9)) {
        const uint64_t key = draw_key();
        const uint32_t id = static_cast<uint32_t>(rng.Below(1000));
        table.Insert(key, id);
        model[key].push_back(id);
      } else {
        // BulkInsert into a (usually) non-empty table.
        bulk(&table, &model, rng.Below(40));
      }
    }
    ExpectAgrees(table, model);
  }
}

TEST(CsvRoundTripTest, WriterOutputParsesBack) {
  Rng rng(46);
  const std::string path = testing::TempDir() + "/roundtrip.csv";
  std::vector<std::vector<std::string>> rows;
  {
    Result<CsvWriter> writer = CsvWriter::Open(path, {"id", "a", "b"});
    ASSERT_TRUE(writer.ok());
    for (int r = 0; r < 100; ++r) {
      std::vector<std::string> row;
      row.push_back(std::to_string(r));
      for (int c = 0; c < 2; ++c) {
        std::string field;
        const size_t len = rng.Below(12);
        for (size_t i = 0; i < len; ++i) {
          // Include the troublesome characters: comma, quote, letters.
          const char* charset = "ABC,\"XYZ ";
          field.push_back(charset[rng.Below(9)]);
        }
        row.push_back(std::move(field));
      }
      writer.value().WriteRow(row);
      rows.push_back(std::move(row));
    }
  }
  CsvReadOptions options;  // id column present
  Result<CsvDataset> dataset = ReadCsvDataset(path, options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  ASSERT_EQ(dataset.value().records.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(dataset.value().records[r].id, r);
    ASSERT_EQ(dataset.value().records[r].fields.size(), 2u);
    EXPECT_EQ(dataset.value().records[r].fields[0], rows[r][1]) << r;
    EXPECT_EQ(dataset.value().records[r].fields[1], rows[r][2]) << r;
  }
}

}  // namespace
}  // namespace cbvlink
