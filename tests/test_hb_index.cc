#include "src/blocking/hb_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/thread_pool.h"

namespace cbvlink {
namespace {

constexpr size_t kBits = 120;

/// NCVR-shaped layout: 15 + 15 + 68 + 22 = 120 bits.
RecordLayout NcvrLayout() {
  RecordLayout layout;
  layout.Add(15);
  layout.Add(15);
  layout.Add(68);
  layout.Add(22);
  return layout;
}

HbIndex RecordLevelIndex(size_t bucket_cap = 0) {
  Rng rng(7);
  return HbIndex(HbBlocker::CreateWithL(kBits, 12, 8, rng).value())
      .EmptyCopy(bucket_cap);
}

/// Rule C2: two structures, so the matcher filters by rule membership.
Rule C2() {
  return Rule::Or(
      {Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)}), Rule::Pred(2, 8)});
}

HbIndex AttributeLevelIndex(const Rule& rule = C2()) {
  AttributeBlockerOptions options;
  options.attribute_K = {5, 5, 10, 5};
  Rng rng(8);
  return HbIndex(HbBlocker::Create(rule, NcvrLayout(), options, rng).value());
}

/// Perturbations of a few base vectors, so buckets hold several slots and
/// their order matters.  With `repeat_every` set, every such record
/// repeats the id of an earlier one.
std::vector<EncodedRecord> Clustered(size_t n, uint64_t seed,
                                     size_t repeat_every = 0) {
  Rng rng(seed);
  std::vector<BitVector> bases(4, BitVector(kBits));
  for (BitVector& base : bases) {
    for (size_t i = 0; i < kBits; ++i) {
      if (rng.NextBool(0.4)) base.Set(i);
    }
  }
  std::vector<EncodedRecord> records;
  for (size_t i = 0; i < n; ++i) {
    BitVector bits = bases[i % bases.size()];
    for (size_t flip = 0; flip < i % 3; ++flip) {
      const size_t pos = rng.Below(kBits);
      if (bits.Test(pos)) {
        bits.Clear(pos);
      } else {
        bits.Set(pos);
      }
    }
    const bool repeat = repeat_every != 0 && i % repeat_every == 0 && i > 0;
    records.push_back(EncodedRecord{
        repeat ? records[i / 2].id : seed * 1000 + i, std::move(bits)});
  }
  return records;
}

/// The slot spans `index`'s blocker gives `probe`, in order.
std::vector<std::vector<uint32_t>> Spans(const HbIndex& index,
                                         const BitVector& probe) {
  std::vector<std::vector<uint32_t>> spans;
  index.blocker().ForEachSlotSpan(probe, [&](std::span<const uint32_t> span) {
    spans.emplace_back(span.begin(), span.end());
  });
  return spans;
}

const std::vector<BlockingTable>& Tables(const HbIndex& index) {
  return index.blocker().tables();
}

/// Same arena (slots, ids, vectors, dead bits) and same probe spans.
void ExpectSameIndex(const HbIndex& x, const HbIndex& y,
                     const std::vector<EncodedRecord>& probes) {
  ASSERT_EQ(x.store().size(), y.store().size());
  EXPECT_EQ(x.store().arena(), y.store().arena());
  for (uint32_t slot = 0; slot < x.store().size(); ++slot) {
    EXPECT_EQ(x.store().IdAt(slot), y.store().IdAt(slot));
    EXPECT_EQ(x.store().IsDead(slot), y.store().IsDead(slot));
  }
  for (const EncodedRecord& probe : probes) {
    EXPECT_EQ(Spans(x, probe.bits), Spans(y, probe.bits));
  }
}

TEST(HbIndexTest, InsertAllEqualsInsertLoopAtAnyThreadCount) {
  const std::vector<EncodedRecord> records = Clustered(200, 1, 7);
  for (const bool attribute_level : {false, true}) {
    HbIndex serial = attribute_level ? AttributeLevelIndex()
                                     : RecordLevelIndex(5);
    for (const EncodedRecord& r : records) serial.Insert(r);
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      ThreadPool pool(threads);
      HbIndex bulk = serial.EmptyCopy(attribute_level ? 0 : 5);
      bulk.InsertAll(records, &pool, 8);
      ExpectSameIndex(bulk, serial, records);
      EXPECT_EQ(Tables(bulk), Tables(serial));
    }
  }
}

TEST(HbIndexTest, RepeatedIdKeepsItsFirstVectorAndSlot) {
  std::vector<EncodedRecord> records = Clustered(6, 2);
  records[4].id = records[1].id;
  HbIndex index = RecordLevelIndex();
  index.InsertAll(records);
  EXPECT_EQ(index.store().size(), 5u);
  const uint32_t slot = index.store().DenseIndex(records[1].id);
  EXPECT_EQ(index.store().VectorAt(slot), records[1].bits);
  // The repeat's keys are indexed at the first slot: every span names a
  // stored slot.
  for (const EncodedRecord& r : records) {
    for (const std::vector<uint32_t>& span : Spans(index, r.bits)) {
      for (const uint32_t s : span) EXPECT_LT(s, index.store().size());
    }
  }
}

TEST(HbIndexTest, PutAllEqualsPutLoop) {
  // Overwrites keep the id's slot with the new bits; removed ids come
  // back.  Within and across batches, into empty and non-empty tables.
  std::vector<EncodedRecord> first = Clustered(120, 3, 9);
  std::vector<EncodedRecord> second = Clustered(80, 4);
  for (size_t i = 0; i < 10; ++i) second[i].id = first[30 + i].id;
  for (const bool attribute_level : {false, true}) {
    HbIndex serial = attribute_level ? AttributeLevelIndex()
                                     : RecordLevelIndex(4);
    HbIndex batched = serial.EmptyCopy(attribute_level ? 0 : 4);
    for (const std::vector<EncodedRecord>* batch : {&first, &second}) {
      for (const EncodedRecord& r : *batch) serial.Put(r);
      batched.PutAll(*batch, batched.KeyMatrix(*batch));
      const RecordId removed = batch == &first ? first[50].id : second[70].id;
      EXPECT_TRUE(serial.Remove(removed));
      EXPECT_TRUE(batched.Remove(removed));
    }
    ExpectSameIndex(batched, serial, second);
    EXPECT_EQ(Tables(batched), Tables(serial));
    const uint32_t slot = serial.store().DenseIndex(first[30].id);
    EXPECT_EQ(serial.store().VectorAt(slot), second[0].bits);
    EXPECT_FALSE(serial.IsLive(first[50].id));
  }
}

TEST(HbIndexTest, RemovedRecordsMatchNothingUntilPutBack) {
  const std::vector<EncodedRecord> records = Clustered(40, 5);
  HbIndex index = RecordLevelIndex();
  index.InsertAll(records);
  const PairClassifier exact = MakeRecordThresholdClassifier(0);
  const EncodedRecord query{99999, records[7].bits};
  const auto matches = [&] {
    std::vector<IdPair> out;
    index.matcher().MatchOne(query, exact, &out, nullptr);
    return out;
  };
  ASSERT_EQ(matches(), (std::vector<IdPair>{{records[7].id, 99999}}));
  EXPECT_TRUE(index.Remove(records[7].id));
  EXPECT_FALSE(index.Remove(records[7].id));
  EXPECT_FALSE(index.IsLive(records[7].id));
  EXPECT_TRUE(matches().empty());
  index.Put(records[7]);
  EXPECT_TRUE(index.IsLive(records[7].id));
  EXPECT_EQ(matches(), (std::vector<IdPair>{{records[7].id, 99999}}));
}

TEST(HbIndexTest, PutUnderRuleC2MatchesOnCurrentBits) {
  // Rule membership is read from the arena, so an overwritten record is
  // checked on the bits it holds now.  Its old bits, the complement of
  // the new, share no blocking key with them in any structure.
  const std::vector<EncodedRecord> records = Clustered(30, 8);
  HbIndex index = AttributeLevelIndex();
  const PairClassifier c2 = MakeRuleClassifier(C2(), NcvrLayout());
  for (const EncodedRecord& r : records) {
    BitVector old_bits = r.bits;
    for (size_t i = 0; i < kBits; ++i) old_bits.Assign(i, !r.bits.Test(i));
    index.Insert(EncodedRecord{r.id, std::move(old_bits)});
  }
  for (const EncodedRecord& r : records) index.Put(r);
  for (const EncodedRecord& r : records) {
    std::vector<IdPair> pairs;
    index.matcher().MatchOne(EncodedRecord{99999, r.bits}, c2, &pairs,
                             nullptr);
    EXPECT_NE(std::find(pairs.begin(), pairs.end(), IdPair{r.id, 99999}),
              pairs.end())
        << "record " << r.id;
  }
}

TEST(HbIndexTest, EmptyCopyKeepsHashFunctionsAndSetsTheCap) {
  std::vector<EncodedRecord> copies(5, Clustered(1, 6)[0]);
  for (size_t i = 0; i < copies.size(); ++i) copies[i].id = i;
  HbIndex index = RecordLevelIndex();
  index.InsertAll(copies);
  const HbIndex capped = index.EmptyCopy(2);
  EXPECT_EQ(capped.store().size(), 0u);
  EXPECT_EQ(capped.blocking_groups(), index.blocking_groups());
  EXPECT_EQ(capped.KeyMatrix(copies), index.KeyMatrix(copies));
  HbIndex filled = index.EmptyCopy(2);
  filled.InsertAll(copies);
  for (const std::vector<uint32_t>& span : Spans(filled, copies[0].bits)) {
    EXPECT_EQ(span, (std::vector<uint32_t>{0, 1}));
  }
  for (const BlockingTable& table : Tables(filled)) {
    EXPECT_EQ(table.NumDropped(), 3u);
  }
}

TEST(HbIndexTest, MovedIndexMatchesOverItsOwnStructures) {
  const std::vector<EncodedRecord> records = Clustered(60, 7);
  const PairClassifier classifier = MakeRecordThresholdClassifier(6);
  HbIndex reference = RecordLevelIndex();
  reference.InsertAll(records);
  HbIndex source = RecordLevelIndex();
  source.InsertAll(records);
  HbIndex moved(std::move(source));
  HbIndex assigned = AttributeLevelIndex();
  assigned = std::move(moved);
  MatchStats expected_stats;
  MatchStats stats;
  EXPECT_EQ(assigned.matcher().MatchAll(records, classifier, &stats),
            reference.matcher().MatchAll(records, classifier, &expected_stats));
  EXPECT_EQ(stats.comparisons, expected_stats.comparisons);
  EXPECT_GT(stats.matches, 0u);
}

TEST(HbIndexTest, BlockingGroupsCountEveryStructure) {
  EXPECT_EQ(RecordLevelIndex().blocking_groups(), 8u);
  const HbIndex index = AttributeLevelIndex();
  const HbBlocker& blocker = index.blocker();
  size_t groups = 0;
  for (size_t s = 0; s < blocker.num_structures(); ++s) {
    groups += blocker.structure_L(s);
  }
  EXPECT_EQ(index.blocking_groups(), groups);
  EXPECT_EQ(blocker.num_structures(), 2u);
}

TEST(HbIndexTest, TablesCopiesAndGroupsAgreeAcrossBlockingModes) {
  // Record-level blocking is the one-structure case, so the tables, the
  // empty copy and the group count read the same way under it, rule C1
  // (one AND structure) and rule C2 (two structures).
  const std::vector<EncodedRecord> records = Clustered(60, 9);
  std::vector<EncodedRecord> copies(5, records[0]);
  for (size_t i = 0; i < copies.size(); ++i) copies[i].id = 1000 + i;
  const Rule c1 =
      Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)});
  std::vector<HbIndex> indexes;
  indexes.push_back(RecordLevelIndex());
  indexes.push_back(AttributeLevelIndex(c1));
  indexes.push_back(AttributeLevelIndex());
  for (HbIndex& index : indexes) {
    index.InsertAll(records);
    const HbBlocker& blocker = index.blocker();
    ASSERT_EQ(blocker.tables().size(), blocker.TotalTables());
    for (const BlockingTable& table : blocker.tables()) {
      EXPECT_EQ(table.NumEntries(), records.size());
    }
    size_t groups = 0;
    for (size_t s = 0; s < blocker.num_structures(); ++s) {
      groups += blocker.structure_L(s);
    }
    EXPECT_EQ(index.blocking_groups(), groups);

    // The copy's tables are empty and hold at most 2 slots a bucket: 5
    // identical vectors keep 2 entries and drop 3 in every table.
    HbIndex capped = index.EmptyCopy(2);
    ASSERT_EQ(Tables(capped).size(), blocker.TotalTables());
    for (const BlockingTable& table : Tables(capped)) {
      EXPECT_EQ(table.NumBuckets(), 0u);
      EXPECT_EQ(table.NumEntries(), 0u);
    }
    EXPECT_EQ(capped.blocking_groups(), groups);
    capped.InsertAll(copies);
    for (const BlockingTable& table : Tables(capped)) {
      EXPECT_EQ(table.NumEntries(), 2u);
      EXPECT_EQ(table.NumDropped(), 3u);
    }
  }
  EXPECT_EQ(indexes[1].blocker().num_structures(), 1u);
  EXPECT_EQ(indexes[1].blocker().TotalTables(),
            indexes[1].blocker().structure_L(0));
}

}  // namespace
}  // namespace cbvlink
