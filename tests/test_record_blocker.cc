#include "src/blocking/hb_blocker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "src/common/thread_pool.h"

namespace cbvlink {
namespace {

EncodedRecord MakeRecord(RecordId id, size_t bits,
                         std::initializer_list<size_t> set_bits) {
  EncodedRecord r;
  r.id = id;
  r.bits = BitVector(bits);
  for (size_t b : set_bits) r.bits.Set(b);
  return r;
}

/// The slots VectorStore::AddAll gives `n` distinct ids after `first`
/// stored records: first, first + 1, ...
std::vector<uint32_t> DenseSlots(size_t n, uint32_t first = 0) {
  std::vector<uint32_t> slots(n);
  for (size_t i = 0; i < n; ++i) slots[i] = first + static_cast<uint32_t>(i);
  return slots;
}

/// The serial reference build: one Insert per record at its dense slot.
void InsertAll(HbBlocker& blocker, const std::vector<EncodedRecord>& records,
               uint32_t first = 0) {
  for (size_t i = 0; i < records.size(); ++i) {
    blocker.Insert(records[i], first + static_cast<uint32_t>(i));
  }
}

std::set<RecordId> Candidates(const HbBlocker& blocker,
                              const BitVector& probe) {
  std::set<RecordId> out;
  blocker.ForEachCandidate(probe, [&](RecordId id) { out.insert(id); });
  return out;
}

size_t TotalBuckets(const HbBlocker& blocker) {
  size_t total = 0;
  for (const BlockingTable& table : blocker.tables()) {
    total += table.NumBuckets();
  }
  return total;
}

size_t MaxBucketSize(const HbBlocker& blocker) {
  size_t best = 0;
  for (const BlockingTable& table : blocker.tables()) {
    best = std::max(best, table.MaxBucketSize());
  }
  return best;
}

TEST(RecordLevelBlockerTest, CreateComputesLFromEquation2) {
  Rng rng(1);
  // Paper PL: m = 120, K = 30, theta = 4, delta = 0.1 -> L = 6.
  Result<HbBlocker> blocker = HbBlocker::Create(120, 30, 4, 0.1, rng);
  ASSERT_TRUE(blocker.ok());
  ASSERT_EQ(blocker.value().num_structures(), 1u);
  EXPECT_EQ(blocker.value().structure_L(0), 6u);
  EXPECT_EQ(blocker.value().TotalTables(), 6u);
  EXPECT_EQ(blocker.value().table_K(0), 30u);
}

TEST(RecordLevelBlockerTest, CreateWithLRespectsExplicitValue) {
  Rng rng(2);
  Result<HbBlocker> blocker = HbBlocker::CreateWithL(120, 30, 9, rng);
  ASSERT_TRUE(blocker.ok());
  EXPECT_EQ(blocker.value().structure_L(0), 9u);
}

TEST(RecordLevelBlockerTest, CreateErrorsPropagate) {
  Rng rng(3);
  EXPECT_FALSE(HbBlocker::Create(120, 30, 200, 0.1, rng).ok());
  EXPECT_FALSE(HbBlocker::CreateWithL(0, 30, 4, rng).ok());
  EXPECT_FALSE(HbBlocker::CreateWithL(120, 0, 4, rng).ok());
}

TEST(RecordLevelBlockerTest, IdenticalVectorsAlwaysCandidates) {
  Rng rng(4);
  HbBlocker blocker = HbBlocker::CreateWithL(120, 30, 6, rng).value();
  const EncodedRecord a = MakeRecord(1, 120, {0, 5, 50, 100});
  blocker.Insert(a, 0);
  const std::set<RecordId> cands = Candidates(blocker, a.bits);
  EXPECT_TRUE(cands.contains(1));
}

TEST(RecordLevelBlockerTest, EmptyBlockerYieldsNoCandidates) {
  Rng rng(5);
  HbBlocker blocker = HbBlocker::CreateWithL(120, 30, 6, rng).value();
  const EncodedRecord probe = MakeRecord(9, 120, {1, 2, 3});
  EXPECT_TRUE(Candidates(blocker, probe.bits).empty());
}

TEST(RecordLevelBlockerTest, NearDuplicatesFoundWithHighProbability) {
  Rng rng(6);
  constexpr size_t kRounds = 200;
  size_t found = 0;
  Rng perturb(7);
  for (size_t round = 0; round < kRounds; ++round) {
    HbBlocker blocker = HbBlocker::Create(120, 30, 4, 0.1, rng).value();
    EncodedRecord a = MakeRecord(1, 120, {});
    for (size_t i = 0; i < 120; i += 4) a.bits.Set(i);
    EncodedRecord b = a;
    b.id = 2;
    for (int flips = 0; flips < 4; ++flips) {
      const size_t pos = perturb.Below(120);
      if (b.bits.Test(pos)) {
        b.bits.Clear(pos);
      } else {
        b.bits.Set(pos);
      }
    }
    blocker.Insert(a, 0);
    if (Candidates(blocker, b.bits).contains(1)) ++found;
  }
  // Guarantee: >= 1 - delta = 0.9, allow sampling slack.
  EXPECT_GE(static_cast<double>(found) / kRounds, 0.86);
}

TEST(RecordLevelBlockerTest, DistantVectorsRarelyCandidates) {
  Rng rng(8);
  HbBlocker blocker = HbBlocker::CreateWithL(120, 30, 6, rng).value();
  EncodedRecord a = MakeRecord(1, 120, {});
  for (size_t i = 0; i < 60; ++i) a.bits.Set(i);
  EncodedRecord far = MakeRecord(2, 120, {});
  for (size_t i = 60; i < 120; ++i) far.bits.Set(i);
  blocker.Insert(a, 0);
  EXPECT_FALSE(Candidates(blocker, far.bits).contains(1));
}

TEST(RecordLevelBlockerTest, CandidateOccurrencesRepeatAcrossGroups) {
  Rng rng(9);
  HbBlocker blocker = HbBlocker::CreateWithL(120, 5, 8, rng).value();
  const EncodedRecord a = MakeRecord(1, 120, {0, 1, 2});
  blocker.Insert(a, 0);
  size_t occurrences = 0;
  blocker.ForEachCandidate(a.bits, [&](RecordId) { ++occurrences; });
  // Identical vectors collide in every group.
  EXPECT_EQ(occurrences, 8u);
}

TEST(RecordLevelBlockerTest, IdViewsMapSlotsToIds) {
  // The tables hold slots; both Id views map them back through the
  // slot -> id column, in slot-span order, and a bucket longer than the
  // id view's buffer arrives as several consecutive spans.  The same
  // bits under 150 ids, written at slots assigned by a store-like
  // caller, put 150 entries in every bucket.
  Rng rng(10);
  HbBlocker blocker = HbBlocker::CreateWithL(120, 5, 3, rng).value();
  std::vector<EncodedRecord> records;
  std::vector<uint32_t> slots;
  for (uint32_t i = 0; i < 150; ++i) {
    records.push_back(MakeRecord(1000 + 7 * i, 120, {4, 9}));
    slots.push_back(149 - i);
  }
  blocker.BulkInsert(records, slots);
  EXPECT_EQ(blocker.num_slots(), 150u);
  std::vector<RecordId> expected;
  blocker.ForEachSlotSpan(records[0].bits.words().data(),
                          [&](std::span<const uint32_t> bucket) {
                            for (const uint32_t slot : bucket) {
                              EXPECT_EQ(blocker.SlotId(slot),
                                        1000 + 7 * (149 - slot));
                              expected.push_back(blocker.SlotId(slot));
                            }
                          });
  ASSERT_EQ(expected.size(), 3u * 150);
  std::vector<RecordId> each;
  blocker.ForEachCandidate(records[0].bits,
                           [&](RecordId id) { each.push_back(id); });
  EXPECT_EQ(each, expected);
  std::vector<RecordId> spans;
  size_t num_spans = 0;
  blocker.ForEachCandidateSpan(records[0].bits,
                               [&](std::span<const RecordId> ids) {
                                 spans.insert(spans.end(), ids.begin(),
                                              ids.end());
                                 ++num_spans;
                               });
  EXPECT_EQ(spans, expected);
  EXPECT_GT(num_spans, 3u);
}

TEST(RecordLevelBlockerTest, StatsReflectIndexedRecords) {
  Rng rng(10);
  HbBlocker blocker = HbBlocker::CreateWithL(64, 8, 4, rng).value();
  std::vector<EncodedRecord> records;
  Rng data(11);
  for (RecordId id = 0; id < 50; ++id) {
    EncodedRecord r = MakeRecord(id, 64, {});
    for (int i = 0; i < 16; ++i) r.bits.Set(data.Below(64));
    records.push_back(std::move(r));
  }
  blocker.BulkInsert(records, DenseSlots(records.size()));
  EXPECT_GT(TotalBuckets(blocker), 0u);
  EXPECT_GE(MaxBucketSize(blocker), 1u);
  EXPECT_LE(MaxBucketSize(blocker), 50u);
}

// --- BulkInsert determinism: identical tables to an Insert() loop at any
// thread count (buckets, per-bucket slot order, counters).

std::vector<EncodedRecord> RandomRecords(size_t n, size_t bits,
                                         uint64_t seed) {
  std::vector<EncodedRecord> records;
  Rng data(seed);
  for (RecordId id = 0; id < n; ++id) {
    EncodedRecord r = MakeRecord(id, bits, {});
    for (size_t i = 0; i < bits / 4; ++i) r.bits.Set(data.Below(bits));
    records.push_back(std::move(r));
  }
  return records;
}

void ExpectSameTables(const HbBlocker& actual,
                      const HbBlocker& expected, size_t threads) {
  ASSERT_EQ(actual.TotalTables(), expected.TotalTables());
  for (size_t l = 0; l < expected.TotalTables(); ++l) {
    const BlockingTable& a = actual.tables()[l];
    const BlockingTable& e = expected.tables()[l];
    EXPECT_EQ(a.NumEntries(), e.NumEntries())
        << "table " << l << " at " << threads << " threads";
    EXPECT_EQ(a.MaxBucketSize(), e.MaxBucketSize())
        << "table " << l << " at " << threads << " threads";
    // Content equality compares every bucket including the per-bucket
    // slot order Insert() would have produced.
    EXPECT_TRUE(a == e) << "table " << l << " at " << threads << " threads";
  }
}

TEST(RecordLevelBlockerBulkInsertTest, IdenticalToIndexAtAnyThreadCount) {
  const auto make_blocker = [] {
    Rng rng(99);
    return HbBlocker::CreateWithL(120, 30, 6, rng).value();
  };
  const std::vector<EncodedRecord> records = RandomRecords(400, 120, 12345);

  const std::vector<uint32_t> slots = DenseSlots(records.size());

  HbBlocker serial = make_blocker();
  InsertAll(serial, records);

  // Null pool takes the plain serial path.
  HbBlocker no_pool = make_blocker();
  no_pool.BulkInsert(records, slots);
  ExpectSameTables(no_pool, serial, 0);

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    HbBlocker parallel = make_blocker();
    parallel.BulkInsert(records, slots, &pool);
    ExpectSameTables(parallel, serial, threads);
  }
}

TEST(RecordLevelBlockerBulkInsertTest, MinChunkDoesNotChangeTables) {
  const auto make_blocker = [] {
    Rng rng(17);
    return HbBlocker::CreateWithL(64, 8, 4, rng).value();
  };
  const std::vector<EncodedRecord> records = RandomRecords(100, 64, 5);
  HbBlocker serial = make_blocker();
  InsertAll(serial, records);
  ThreadPool pool(4);
  for (size_t min_chunk : {1u, 9u, 1000u}) {
    HbBlocker parallel = make_blocker();
    parallel.BulkInsert(records, DenseSlots(records.size()), &pool,
                        min_chunk);
    ExpectSameTables(parallel, serial, min_chunk);
  }
}

TEST(RecordLevelBlockerBulkInsertTest, EmptyAndSingleRecordInputs) {
  const auto make_blocker = [] {
    Rng rng(21);
    return HbBlocker::CreateWithL(64, 8, 4, rng).value();
  };
  ThreadPool pool(4);

  HbBlocker empty = make_blocker();
  empty.BulkInsert(std::span<const EncodedRecord>{},
                   std::span<const uint32_t>{}, &pool);
  EXPECT_EQ(TotalBuckets(empty), 0u);

  const std::vector<EncodedRecord> one = RandomRecords(1, 64, 6);
  HbBlocker serial = make_blocker();
  InsertAll(serial, one);
  HbBlocker parallel = make_blocker();
  parallel.BulkInsert(one, DenseSlots(1), &pool);
  ExpectSameTables(parallel, serial, 1);
}

TEST(RecordLevelBlockerBulkInsertTest, AppendsAfterPriorInserts) {
  // BulkInsert on a non-empty blocker must behave like more Insert()
  // calls, not a rebuild.
  const auto make_blocker = [] {
    Rng rng(23);
    return HbBlocker::CreateWithL(64, 8, 4, rng).value();
  };
  const std::vector<EncodedRecord> first = RandomRecords(30, 64, 7);
  std::vector<EncodedRecord> second = RandomRecords(40, 64, 8);
  for (EncodedRecord& r : second) r.id += 1000;

  HbBlocker serial = make_blocker();
  InsertAll(serial, first);
  InsertAll(serial, second, 30);

  ThreadPool pool(3);
  HbBlocker parallel = make_blocker();
  parallel.BulkInsert(first, DenseSlots(30), &pool);
  parallel.BulkInsert(second, DenseSlots(40, 30), &pool);
  ExpectSameTables(parallel, serial, 3);
}

TEST(RecordLevelBlockerBulkInsertTest, IdOnlyShimContinuesDenseSlots) {
  // The id-only BulkInsert gives record i slot num_slots() + i, which is
  // VectorStore::AddAll's order over distinct ids, across calls too.
  const auto make_blocker = [] {
    Rng rng(23);
    return HbBlocker::CreateWithL(64, 8, 4, rng).value();
  };
  const std::vector<EncodedRecord> first = RandomRecords(30, 64, 7);
  std::vector<EncodedRecord> second = RandomRecords(40, 64, 8);
  for (EncodedRecord& r : second) r.id += 1000;

  HbBlocker with_slots = make_blocker();
  with_slots.BulkInsert(first, DenseSlots(30));
  with_slots.BulkInsert(second, DenseSlots(40, 30));

  ThreadPool pool(3);
  HbBlocker shim = make_blocker();
  shim.BulkInsert(first, &pool);
  shim.BulkInsert(second, &pool);
  ExpectSameTables(shim, with_slots, 3);
  ASSERT_EQ(shim.num_slots(), 70u);
  EXPECT_EQ(shim.SlotId(29), first[29].id);
  EXPECT_EQ(shim.SlotId(30), second[0].id);
}

// --- Bucket cap: drops past the cap and overflow bits, serial and bulk.

HammingLshFamily MakeFamily(size_t K, size_t L, size_t bits, uint64_t seed) {
  Rng rng(seed);
  return HammingLshFamily::CreateFull(K, L, bits, rng).value();
}

/// True when the probe of `bits` reaches a bucket that dropped entries.
bool ProbeOverflowed(const HbBlocker& blocker, const BitVector& bits) {
  return blocker.ForEachSlotSpan(bits.words().data(),
                                 [](std::span<const uint32_t>) {});
}

TEST(RecordLevelBlockerTest, BucketCapDropsAndFlagsOverflow) {
  HbBlocker blocker(MakeFamily(4, 3, 32, 42), /*bucket_cap=*/2);
  // Identical vectors share every bucket; the third insert overflows all
  // three groups' buckets.
  const EncodedRecord base = MakeRecord(0, 32, {1, 7});
  const BitVector other = MakeRecord(9, 32, {2, 3, 30}).bits;
  EXPECT_FALSE(ProbeOverflowed(blocker, base.bits));
  for (RecordId id = 0; id < 3; ++id) {
    EncodedRecord r = base;
    r.id = id;
    blocker.Insert(r, static_cast<uint32_t>(id));
  }
  EXPECT_EQ(MaxBucketSize(blocker), 2u);
  size_t dropped = 0;
  for (const BlockingTable& table : blocker.tables()) {
    dropped += table.NumDropped();
    EXPECT_EQ(table.NumOverflowed(), 1u);
    EXPECT_EQ(table.NumEntries(), 2u);
  }
  EXPECT_EQ(dropped, 3u);  // one drop per group
  EXPECT_TRUE(ProbeOverflowed(blocker, base.bits));
  if (Candidates(blocker, other).empty()) {
    EXPECT_FALSE(ProbeOverflowed(blocker, other));
  }

  std::vector<RecordId> occurrences;
  blocker.ForEachCandidate(base.bits,
                           [&](RecordId id) { occurrences.push_back(id); });
  EXPECT_EQ(occurrences.size(), 6u);  // 2 ids x 3 groups
  EXPECT_EQ(Candidates(blocker, base.bits), (std::set<RecordId>{0, 1}));
}

TEST(RecordLevelBlockerBulkInsertTest,
     BucketCapIdenticalToIndexAtAnyThreadCount) {
  // Overflow bits and drop counters depend on arrival order; the bulk
  // build must reproduce the serial order even with a tight cap that
  // most records exceed.
  std::vector<EncodedRecord> records;
  for (RecordId id = 0; id < 40; ++id) {
    records.push_back(MakeRecord(id, 32, {1}));  // all collide everywhere
  }
  std::vector<EncodedRecord> mixed = RandomRecords(300, 64, 29);
  for (size_t i = 0; i < mixed.size(); i += 3) mixed[i].bits = mixed[0].bits;

  for (const auto& [bits, input] :
       {std::pair<size_t, const std::vector<EncodedRecord>*>{32, &records},
        std::pair<size_t, const std::vector<EncodedRecord>*>{64, &mixed}}) {
    const std::vector<uint32_t> slots = DenseSlots(input->size());
    HbBlocker serial(MakeFamily(4, 6, bits, 19), /*bucket_cap=*/3);
    InsertAll(serial, *input);
    size_t dropped = 0;
    for (const BlockingTable& table : serial.tables()) {
      dropped += table.NumDropped();
    }
    EXPECT_GT(dropped, 0u);

    HbBlocker no_pool(MakeFamily(4, 6, bits, 19), 3);
    no_pool.BulkInsert(*input, slots);
    ExpectSameTables(no_pool, serial, 0);
    for (size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      HbBlocker parallel(MakeFamily(4, 6, bits, 19), 3);
      parallel.BulkInsert(*input, slots, &pool);
      ExpectSameTables(parallel, serial, threads);
    }
  }
}

}  // namespace
}  // namespace cbvlink
