#include "src/blocking/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/blocking/hb_index.h"

#include "src/common/random.h"
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

/// A slot source that replays a fixed list of stored ids (with
/// duplicates) for any probe — isolates Algorithm 2 from the LSH
/// machinery.  It adds `records` to `store` and replays each of `ids`
/// as the slot the store gave it.
class FixedSource : public SlotCandidateSource {
 public:
  FixedSource(VectorStore* store, const std::vector<EncodedRecord>& records,
              std::initializer_list<RecordId> ids) {
    std::vector<uint32_t> slots;
    store->AddAll(records, &slots);
    std::vector<RecordId> record_ids;
    for (const EncodedRecord& r : records) record_ids.push_back(r.id);
    AssignSlots(record_ids, slots);
    for (const RecordId id : ids) {
      slots_.push_back(store->DenseIndex(id));
      EXPECT_NE(slots_.back(), VectorStore::kNotFound) << "id " << id;
    }
  }

  bool ForEachSlotSpan(
      const uint64_t*,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override {
    for (const uint32_t& slot : slots_) cb(std::span<const uint32_t>(&slot, 1));
    return false;
  }

 private:
  std::vector<uint32_t> slots_;
};

TEST(VectorStoreTest, AddAndLookup) {
  VectorStore store;
  store.Add(MakeRecord(5, 16, {1}));
  EXPECT_EQ(store.size(), 1u);
  const uint32_t dense = store.DenseIndex(5);
  ASSERT_NE(dense, VectorStore::kNotFound);
  EXPECT_EQ(store.IdAt(dense), 5u);
  EXPECT_TRUE(store.VectorAt(dense).Test(1));
  EXPECT_EQ(store.DenseIndex(6), VectorStore::kNotFound);
  EXPECT_TRUE(store.Contains(5));
  EXPECT_FALSE(store.Contains(6));
}

TEST(VectorStoreTest, AddAll) {
  VectorStore store;
  store.AddAll({MakeRecord(1, 8, {}), MakeRecord(2, 8, {})});
  EXPECT_EQ(store.size(), 2u);
}

TEST(VectorStoreTest, DenseIndicesAreInsertionOrder) {
  VectorStore store;
  store.AddAll({MakeRecord(9, 8, {0}), MakeRecord(4, 8, {1}),
                MakeRecord(7, 8, {2})});
  EXPECT_EQ(store.DenseIndex(9), 0u);
  EXPECT_EQ(store.DenseIndex(4), 1u);
  EXPECT_EQ(store.DenseIndex(7), 2u);
}

TEST(VectorStoreTest, FirstAddWinsOnDuplicateId) {
  // Matches the emplace semantics of the original map-based store.
  VectorStore store;
  store.Add(MakeRecord(1, 8, {0}));
  store.Add(MakeRecord(1, 8, {1}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.VectorAt(store.DenseIndex(1)).Test(0));
  EXPECT_FALSE(store.VectorAt(store.DenseIndex(1)).Test(1));
}

TEST(VectorStoreTest, SurvivesRehashing) {
  // Enough inserts to force several slot-table rehashes; every id must
  // stay reachable with its own vector.
  VectorStore store;
  for (RecordId id = 0; id < 1000; ++id) {
    store.Add(MakeRecord(id * 7919 + 1, 64, {static_cast<size_t>(id % 64)}));
  }
  EXPECT_EQ(store.size(), 1000u);
  for (RecordId id = 0; id < 1000; ++id) {
    const uint32_t dense = store.DenseIndex(id * 7919 + 1);
    ASSERT_NE(dense, VectorStore::kNotFound);
    EXPECT_TRUE(store.VectorAt(dense).Test(id % 64));
  }
}

TEST(VectorStoreTest, ArenaIsContiguousAndZeroPadded) {
  // 70 bits -> 2 words per record with 58 padding bits in the second
  // word; the whole-word kernels rely on the padding staying zero.
  VectorStore store;
  store.AddAll({MakeRecord(1, 70, {0, 69}), MakeRecord(2, 70, {69})});
  EXPECT_EQ(store.num_bits(), 70u);
  EXPECT_EQ(store.words_per_record(), 2u);
  ASSERT_EQ(store.arena().size(), 4u);
  for (uint32_t dense = 0; dense < store.size(); ++dense) {
    const uint64_t trailing = store.WordsAt(dense)[1];
    EXPECT_EQ(trailing & ~((uint64_t{1} << (70 - 64)) - 1), 0u)
        << "padding bits must be zero at dense index " << dense;
  }
  // The two records are adjacent in one buffer at the fixed stride.
  EXPECT_EQ(store.WordsAt(1), store.WordsAt(0) + store.words_per_record());
  // Distance across the word boundary: bit 0 differs, bit 69 agrees.
  EXPECT_EQ(HammingDistanceWords(store.WordsAt(0), store.WordsAt(1), 2), 1u);
}

TEST(VectorStoreDeathTest, MixedWidthAborts) {
  // Regression: a width mismatch was only debug-asserted, so a release
  // build silently packed the record at the wrong stride and corrupted
  // the arena for every later insert.  The store must reject it
  // unconditionally.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VectorStore store;
  store.Add(MakeRecord(1, 64, {3}));
  EXPECT_DEATH(store.Add(MakeRecord(2, 65, {3})), "bit width");
  EXPECT_DEATH(store.Add(MakeRecord(3, 16, {3})), "bit width");
  // Matching widths still work after the near-miss.
  store.Add(MakeRecord(4, 64, {5}));
  EXPECT_EQ(store.size(), 2u);
}

TEST(MatcherTest, Algorithm2DeduplicatesPerProbe) {
  // The same A-Id delivered from three blocking groups must be compared
  // once (the unique collection C of Algorithm 2).
  VectorStore store;
  FixedSource source(&store, {MakeRecord(1, 16, {0}), MakeRecord(2, 16, {0})},
                     {1, 1, 1, 2});

  Matcher matcher(&source, &store);
  MatchStats stats;
  std::vector<IdPair> out;
  matcher.MatchOne(MakeRecord(100, 16, {0}),
                   MakeRecordThresholdClassifier(0), &out, &stats);
  EXPECT_EQ(stats.candidate_occurrences, 4u);
  EXPECT_EQ(stats.comparisons, 2u);
  EXPECT_EQ(stats.dedup_skipped, 2u);
  EXPECT_EQ(stats.matches, 2u);
  ASSERT_EQ(out.size(), 2u);
}

TEST(MatcherTest, DedupResetsBetweenProbes) {
  VectorStore store;
  FixedSource source(&store, {MakeRecord(1, 16, {0})}, {1});
  Matcher matcher(&source, &store);
  MatchStats stats;
  std::vector<IdPair> out = matcher.MatchAll(
      {MakeRecord(100, 16, {0}), MakeRecord(101, 16, {0})},
      MakeRecordThresholdClassifier(0), &stats);
  // Each B record compares against A-Id 1 independently.
  EXPECT_EQ(stats.comparisons, 2u);
  EXPECT_EQ(out.size(), 2u);
}

TEST(MatcherTest, NullStatsAccepted) {
  // Callers that only want the pairs may pass stats == nullptr.
  VectorStore store;
  FixedSource source(&store, {MakeRecord(1, 16, {0})}, {1, 1});
  Matcher matcher(&source, &store);
  std::vector<IdPair> out;
  matcher.MatchOne(MakeRecord(100, 16, {0}),
                   MakeRecordThresholdClassifier(0), &out, nullptr);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a_id, 1u);
  out = matcher.MatchAll({MakeRecord(100, 16, {0})},
                         MakeRecordThresholdClassifier(0), nullptr);
  EXPECT_EQ(out.size(), 1u);
}

TEST(MatcherTest, ThresholdClassifierFiltersByDistance) {
  VectorStore store;
  FixedSource source(&store,
                     {MakeRecord(1, 16, {0, 1}),           // distance 0
                      MakeRecord(2, 16, {0, 1, 2, 3, 4})},  // distance 3
                     {1, 2});
  Matcher matcher(&source, &store);
  MatchStats stats;
  std::vector<IdPair> out;
  matcher.MatchOne(MakeRecord(100, 16, {0, 1}),
                   MakeRecordThresholdClassifier(2), &out, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a_id, 1u);
  EXPECT_EQ(out[0].b_id, 100u);
}

TEST(MakeRuleClassifierTest, EvaluatesAttributeLevelDistances) {
  RecordLayout layout;
  layout.Add(8);
  layout.Add(8);
  // Rule: f1 <= 1 AND f2 <= 0.
  const Rule rule = Rule::And({Rule::Pred(0, 1), Rule::Pred(1, 0)});
  const PairClassifier classify = MakeRuleClassifier(rule, layout);

  BitVector a(16);
  BitVector b(16);
  EXPECT_TRUE(classify(a, b));
  b.Set(0);  // f1 distance 1
  EXPECT_TRUE(classify(a, b));
  b.Set(1);  // f1 distance 2
  EXPECT_FALSE(classify(a, b));
  b.Clear(1);
  b.Set(8);  // f2 distance 1
  EXPECT_FALSE(classify(a, b));
}

TEST(MakeRuleClassifierTest, NotRuleSemantics) {
  RecordLayout layout;
  layout.Add(8);
  layout.Add(8);
  // f1 <= 1 AND NOT (f2 <= 1).
  const Rule rule =
      Rule::And({Rule::Pred(0, 1), Rule::Not(Rule::Pred(1, 1))});
  const PairClassifier classify = MakeRuleClassifier(rule, layout);
  BitVector a(16);
  BitVector b(16);
  EXPECT_FALSE(classify(a, b));  // f2 distance 0 <= 1 -> NOT fails
  b.Set(8);
  b.Set(9);
  b.Set(10);  // f2 distance 3
  EXPECT_TRUE(classify(a, b));
}

TEST(MatcherTest, MatchStatsAccumulate) {
  MatchStats a{10, 5, 2, 3};
  MatchStats b{1, 1, 1, 0};
  a += b;
  EXPECT_EQ(a.candidate_occurrences, 11u);
  EXPECT_EQ(a.comparisons, 6u);
  EXPECT_EQ(a.matches, 3u);
  EXPECT_EQ(a.dedup_skipped, 3u);
}

/// A probe-dependent slot source: each probe maps to a different mix of
/// bucket spans (with cross-bucket duplicates), so the parallel
/// determinism tests exercise uneven per-probe work.  It adds `a` to
/// `store` and fills its buckets with the slots the store gave them.
class HashedSpanSource : public SlotCandidateSource {
 public:
  HashedSpanSource(VectorStore* store, const std::vector<EncodedRecord>& a,
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

TEST(MatcherParallelTest, OutputIdenticalAcrossThreadCounts) {
  Rng rng(42);
  const size_t kNumA = 64;
  std::vector<EncodedRecord> a = RandomRecords(kNumA, 96, 0, rng);
  std::vector<EncodedRecord> b = RandomRecords(257, 96, 1000, rng);
  VectorStore store;
  HashedSpanSource source(&store, a, 23);
  Matcher matcher(&source, &store);
  const PairClassifier classifier = MakeRecordThresholdClassifier(40);

  MatchStats serial_stats;
  const std::vector<IdPair> serial =
      matcher.MatchAll(b, classifier, &serial_stats);
  EXPECT_GT(serial_stats.matches, 0u) << "test needs a non-trivial workload";
  EXPECT_GT(serial_stats.dedup_skipped, 0u);

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    MatchStats stats;
    const std::vector<IdPair> parallel =
        matcher.MatchAll(b, classifier, &stats, &pool);
    EXPECT_EQ(parallel, serial) << "pairs diverge at " << threads
                                << " threads";
    EXPECT_EQ(stats.candidate_occurrences, serial_stats.candidate_occurrences);
    EXPECT_EQ(stats.comparisons, serial_stats.comparisons);
    EXPECT_EQ(stats.matches, serial_stats.matches);
    EXPECT_EQ(stats.dedup_skipped, serial_stats.dedup_skipped);
  }
}

TEST(MatcherParallelTest, NullPoolAndEmptyInputAreSafe) {
  Rng rng(7);
  std::vector<EncodedRecord> a = RandomRecords(4, 32, 0, rng);
  VectorStore store;
  HashedSpanSource source(&store, a, 5);
  Matcher matcher(&source, &store);
  ThreadPool pool(4);
  MatchStats stats;
  EXPECT_TRUE(matcher
                  .MatchAll({}, MakeRecordThresholdClassifier(8), &stats,
                            &pool)
                  .empty());
  EXPECT_EQ(stats.candidate_occurrences, 0u);
  EXPECT_TRUE(matcher
                  .MatchAll({}, MakeRecordThresholdClassifier(8), &stats,
                            nullptr)
                  .empty());
}

TEST(MatcherParallelTest, RuleClassifierIdenticalAcrossThreadCounts) {
  RecordLayout layout;
  layout.Add(48);
  layout.Add(48);
  const Rule rule = Rule::Or(
      {Rule::And({Rule::Pred(0, 14), Rule::Pred(1, 14)}), Rule::Pred(0, 8)});
  const PairClassifier classifier = MakeRuleClassifier(rule, layout);

  Rng rng(11);
  const size_t kNumA = 48;
  std::vector<EncodedRecord> a = RandomRecords(kNumA, 96, 0, rng);
  std::vector<EncodedRecord> b = RandomRecords(128, 96, 500, rng);
  VectorStore store;
  HashedSpanSource source(&store, a, 17);
  Matcher matcher(&source, &store);

  MatchStats serial_stats;
  const std::vector<IdPair> serial =
      matcher.MatchAll(b, classifier, &serial_stats);
  ThreadPool pool(8);
  MatchStats stats;
  const std::vector<IdPair> parallel =
      matcher.MatchAll(b, classifier, &stats, &pool);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(stats.matches, serial_stats.matches);
  EXPECT_EQ(stats.comparisons, serial_stats.comparisons);
}

/// MatchStream over `b`, each row a copy of the record's vector; a
/// record whose id is in `failing` makes the writer fail.
Result<std::vector<IdPair>> StreamOf(const Matcher& matcher,
                                     const std::vector<EncodedRecord>& b,
                                     size_t bits,
                                     const PairClassifier& classifier,
                                     MatchStats* stats, ThreadPool* pool,
                                     std::initializer_list<RecordId> failing =
                                         {}) {
  return matcher.MatchStream(
      b.size(), bits,
      [&](size_t i, uint64_t* row, RecordId* id) {
        if (std::find(failing.begin(), failing.end(), b[i].id) !=
            failing.end()) {
          return Status::InvalidArgument("record " + std::to_string(b[i].id));
        }
        const std::vector<uint64_t>& words = b[i].bits.words();
        std::copy(words.begin(), words.end(), row);
        *id = b[i].id;
        return Status::OK();
      },
      classifier, stats, pool);
}

TEST(MatcherParallelTest, StreamEqualsMatchOneLoopAtAnyThreadCount) {
  // Workers claim chunks in order and each chunk's pairs and stats are
  // merged in chunk order, so the stream returns a MatchOne loop's pairs,
  // in its order, with its stats: for no record, one, a whole number of
  // chunks and a ragged last chunk, at every thread count.
  Rng rng(19);
  std::vector<EncodedRecord> a = RandomRecords(64, 96, 0, rng);
  VectorStore store;
  HashedSpanSource source(&store, a, 23);
  Matcher matcher(&source, &store);
  const PairClassifier classifier = MakeRecordThresholdClassifier(40);
  for (const size_t n : {size_t{0}, size_t{1}, 2 * Matcher::kStreamChunk,
                         3 * Matcher::kStreamChunk + 7}) {
    const std::vector<EncodedRecord> b = RandomRecords(n, 96, 1000, rng);
    std::vector<IdPair> expected;
    MatchStats expected_stats;
    Matcher::Scratch scratch;
    for (const EncodedRecord& r : b) {
      matcher.MatchOne(r, classifier, &expected, &expected_stats, &scratch);
    }
    if (n > Matcher::kStreamChunk) {
      ASSERT_GT(expected_stats.matches, 0u);
    }
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      MatchStats stats;
      Result<std::vector<IdPair>> pairs =
          StreamOf(matcher, b, 96, classifier, &stats, &pool);
      ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
      EXPECT_EQ(pairs.value(), expected) << n << " records, " << threads
                                         << " threads";
      EXPECT_EQ(stats.candidate_occurrences,
                expected_stats.candidate_occurrences);
      EXPECT_EQ(stats.comparisons, expected_stats.comparisons);
      EXPECT_EQ(stats.matches, expected_stats.matches);
      EXPECT_EQ(stats.dedup_skipped, expected_stats.dedup_skipped);
    }
  }
}

TEST(MatcherParallelTest, StreamReturnsFirstWriterErrorAndNoStats) {
  // Two records fail, in different chunks: every thread count reports
  // the first one, returns no pairs and leaves the stats alone.
  Rng rng(23);
  std::vector<EncodedRecord> a = RandomRecords(32, 96, 0, rng);
  VectorStore store;
  HashedSpanSource source(&store, a, 11);
  Matcher matcher(&source, &store);
  const std::vector<EncodedRecord> b =
      RandomRecords(4 * Matcher::kStreamChunk + 3, 96, 1000, rng);
  const RecordId first = b[Matcher::kStreamChunk + 5].id;
  const RecordId later = b[3 * Matcher::kStreamChunk + 1].id;
  for (const size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    MatchStats stats;
    Result<std::vector<IdPair>> pairs =
        StreamOf(matcher, b, 96, MakeRecordThresholdClassifier(40), &stats,
                 &pool, {later, first});
    ASSERT_FALSE(pairs.ok());
    EXPECT_EQ(pairs.status().message(), "record " + std::to_string(first))
        << threads << " threads";
    EXPECT_EQ(stats.candidate_occurrences, 0u);
    EXPECT_EQ(stats.comparisons, 0u);
  }
}

TEST(VectorStoreTest, AddRowsGivesAnAddLoopsSlotsAndRows) {
  // The slot pass hands out an Add loop's slots.  A live id keeps its
  // slot and gets no row, a repeat within the batch too; a tombstoned id
  // comes back in its old slot with a cleared row.  Once the rows are
  // written the store is the Add loop's.
  Rng rng(5);
  const std::vector<EncodedRecord> first = RandomRecords(40, 70, 0, rng);
  std::vector<EncodedRecord> second = RandomRecords(60, 70, 20, rng);
  second[50].id = second[30].id;  // a new id, repeated
  second[55].id = 25;             // a tombstoned id, repeated
  VectorStore loop;
  VectorStore rows_store;
  loop.AddAll(first);
  rows_store.AddAll(first);
  for (const RecordId id : {2u, 25u, 31u}) {
    ASSERT_TRUE(loop.Remove(id));
    ASSERT_TRUE(rows_store.Remove(id));
  }
  std::vector<uint32_t> loop_slots;
  for (const EncodedRecord& r : second) loop_slots.push_back(loop.Add(r));

  std::vector<RecordId> ids;
  for (const EncodedRecord& r : second) ids.push_back(r.id);
  std::vector<uint32_t> slots;
  const std::vector<uint64_t*> rows = rows_store.AddRows(ids, 70, &slots);
  EXPECT_EQ(slots, loop_slots);
  ASSERT_EQ(rows.size(), second.size());
  for (size_t i = 0; i < second.size(); ++i) {
    const RecordId id = second[i].id;
    const bool earlier_in_batch =
        std::find(ids.begin(), ids.begin() + static_cast<ptrdiff_t>(i), id) !=
        ids.begin() + static_cast<ptrdiff_t>(i);
    const bool stored = !earlier_in_batch && (id >= 40 || id == 25 || id == 31);
    ASSERT_EQ(rows[i] != nullptr, stored) << "record " << i << " id " << id;
    if (!stored) continue;
    EXPECT_EQ(rows[i], rows_store.WordsAt(slots[i]));
    for (size_t w = 0; w < rows_store.words_per_record(); ++w) {
      EXPECT_EQ(rows[i][w], 0u) << "id " << id;
    }
    const std::vector<uint64_t>& words = second[i].bits.words();
    std::copy(words.begin(), words.end(), rows[i]);
  }
  EXPECT_EQ(rows_store.arena(), loop.arena());
  ASSERT_EQ(rows_store.size(), loop.size());
  EXPECT_EQ(rows_store.live_size(), loop.live_size());
  for (uint32_t slot = 0; slot < loop.size(); ++slot) {
    EXPECT_EQ(rows_store.IdAt(slot), loop.IdAt(slot));
    EXPECT_EQ(rows_store.IsDead(slot), loop.IsDead(slot));
    EXPECT_EQ(rows_store.DenseIndex(loop.IdAt(slot)), slot);
  }
}

// --- Slot-addressed tables ---------------------------------------------

TEST(MatcherTest, TableSlotsStayInsideStore) {
  // Blocking tables hold arena slots, which index the stamp array and the
  // arena directly, so no write path may put a slot in a table that the
  // store did not hand out.  Bulk build, streaming inserts, a repeated id
  // (first vector and slot win) and a delete followed by a re-insert
  // (the slot comes back) all keep every slot inside the store, naming
  // the record the store keeps there.
  Rng rng(17);
  HbBlocker blocker = HbBlocker::CreateWithL(64, 6, 20, rng).value();
  VectorStore store;
  std::vector<EncodedRecord> records = RandomRecords(40, 64, 0, rng);
  EncodedRecord repeat = RandomRecords(1, 64, 0, rng)[0];
  repeat.id = records[3].id;
  records.push_back(repeat);
  std::vector<uint32_t> slots;
  store.AddAll(records, &slots);
  EXPECT_EQ(slots.back(), slots[3]);
  blocker.BulkInsert(records, slots);
  for (EncodedRecord record : RandomRecords(10, 64, 100, rng)) {
    blocker.Insert(record, store.Add(record));
    record.id = records[7].id;  // repeats an id: keeps its slot
    blocker.Insert(record, store.Add(record));
  }
  ASSERT_TRUE(store.Remove(records[9].id));
  EncodedRecord back = RandomRecords(1, 64, 0, rng)[0];
  back.id = records[9].id;
  const uint32_t back_slot = store.Add(back);
  EXPECT_EQ(back_slot, slots[9]);
  blocker.Insert(back, back_slot);

  EXPECT_EQ(store.size(), 50u);
  EXPECT_LE(blocker.num_slots(), store.size());
  size_t entries = 0;
  for (const BlockingTable& table : blocker.tables()) {
    table.ForEachBucket([&](uint64_t, std::span<const uint32_t> bucket) {
      for (const uint32_t slot : bucket) {
        ASSERT_LT(slot, store.size());
        EXPECT_EQ(blocker.SlotId(slot), store.IdAt(slot));
        ++entries;
      }
    });
  }
  EXPECT_EQ(entries, 20u * (41 + 20 + 1));
  // Every stored record finds itself through its own vector.
  Matcher matcher(&blocker, &store);
  for (uint32_t slot = 0; slot < store.size(); ++slot) {
    std::vector<IdPair> out;
    matcher.MatchOne(EncodedRecord{9999, store.VectorAt(slot)},
                     MakeRecordThresholdClassifier(0), &out, nullptr);
    EXPECT_NE(std::find(out.begin(), out.end(),
                        IdPair{store.IdAt(slot), 9999}),
              out.end())
        << "slot " << slot;
  }
}

TEST(MatcherTest, ClassifyUnstampedCoversRuleRejectedSlots) {
  // Rule C3 (f1 AND NOT f2) over an NCVR-shaped 15 + 15 + 68 + 22-bit
  // layout.  A record equal to the probe collides in f1's structure but
  // the NOT rules the pair out, so Probe does not keep it.  Probe +
  // Classify + ClassifyUnstamped must still compare every live record
  // exactly once and find what a scan over all of them finds.
  RecordLayout layout;
  for (const size_t size : {15, 15, 68, 22}) layout.Add(size);
  const Rule c3 = Rule::And({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))});
  AttributeBlockerOptions options;
  options.attribute_K = {5, 5, 10, 5};
  Rng rng(19);
  HbIndex index(HbBlocker::Create(c3, layout, options, rng).value());
  const HbBlocker& blocker = index.blocker();

  // Records near a few centres, f1 a bit apart and f2 near or far.
  const std::vector<EncodedRecord> centres = RandomRecords(4, 120, 0, rng);
  const auto flip = [&](BitVector* bits, size_t offset, size_t size,
                        size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = offset + rng.Below(size);
      bits->Assign(pos, !bits->Test(pos));
    }
  };
  std::vector<EncodedRecord> records;
  for (RecordId id = 0; id < 160; ++id) {
    BitVector bits = centres[id % centres.size()].bits;
    flip(&bits, 0, 15, id % 3);
    flip(&bits, 15, 15, id % 2 == 0 ? 1 : 10);
    records.push_back(EncodedRecord{id, std::move(bits)});
  }
  index.InsertAll(records);
  for (RecordId id = 0; id < 160; id += 13) ASSERT_TRUE(index.Remove(id));

  const VectorStore& store = index.store();
  const std::vector<PairClassifier> classifiers = {
      MakeRuleClassifier(c3, layout), MakeRecordThresholdClassifier(120)};
  Matcher::Scratch scratch;
  for (RecordId p = 1; p < 40; ++p) {
    const EncodedRecord probe{1000 + p, records[p].bits};
    EXPECT_FALSE(blocker.FormulatedByRule(records[p].bits, probe.bits));
    for (const PairClassifier& classifier : classifiers) {
      MatchStats stats;
      std::vector<IdPair> pairs;
      const uint64_t* const row = probe.bits.words().data();
      index.matcher().Probe(row, &stats, &scratch);
      index.matcher().Classify(probe.id, row, classifier, &pairs, &stats,
                               &scratch);
      index.matcher().ClassifyUnstamped(probe.id, row, classifier, &pairs,
                                        &stats, &scratch);
      EXPECT_EQ(stats.comparisons, store.live_size()) << "probe " << p;

      std::vector<IdPair> scan;
      for (uint32_t slot = 0; slot < store.size(); ++slot) {
        if (!store.IsDead(slot) &&
            classifier(store.VectorAt(slot), probe.bits)) {
          scan.push_back(IdPair{store.IdAt(slot), probe.id});
        }
      }
      std::sort(pairs.begin(), pairs.end());
      EXPECT_EQ(pairs, scan) << "probe " << p;
    }
  }
}

TEST(MatcherDeathTest, TableSlotPastStoreAborts) {
  // Tables built over more records than the store holds would index past
  // the stamps and the arena; the matcher refuses before reading.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Rng rng(18);
  HbBlocker blocker = HbBlocker::CreateWithL(64, 6, 4, rng).value();
  const std::vector<EncodedRecord> records = RandomRecords(3, 64, 0, rng);
  blocker.BulkInsert(records, std::vector<uint32_t>{0, 1, 2});
  VectorStore store;
  store.Add(records[0]);
  store.Add(records[1]);
  Matcher matcher(&blocker, &store);
  std::vector<IdPair> out;
  EXPECT_DEATH(matcher.MatchOne(records[2], MakeRecordThresholdClassifier(0),
                                &out, nullptr),
               "blocking tables hold slot 2");
}

TEST(MatcherDeathTest, IdOnlySourceAborts) {
  // The matcher stamps and gathers by arena slot; a source that yields
  // only RecordIds has no slots to give it, so the matcher refuses it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  class IdOnlySource : public CandidateSource {
   public:
    void ForEachCandidate(
        const BitVector&,
        const std::function<void(RecordId)>& cb) const override {
      cb(1);
    }
  };
  const IdOnlySource source;
  VectorStore store;
  store.Add(MakeRecord(1, 16, {0}));
  EXPECT_DEATH(Matcher(&source, &store), "not a SlotCandidateSource");
}

}  // namespace
}  // namespace cbvlink
