#include "src/blocking/hb_blocker.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/blocking/hb_index.h"
#include "src/blocking/matcher.h"
#include "src/common/thread_pool.h"

namespace cbvlink {
namespace {

/// NCVR-shaped layout: 15 + 15 + 68 + 22 = 120 bits.
RecordLayout NcvrLayout() {
  RecordLayout layout;
  layout.Add(15);
  layout.Add(15);
  layout.Add(68);
  layout.Add(22);
  return layout;
}

AttributeBlockerOptions DefaultOptions() {
  AttributeBlockerOptions options;
  options.attribute_K = {5, 5, 10, 5};
  options.delta = 0.1;
  return options;
}

EncodedRecord MakeRecord(RecordId id, const BitVector& bits) {
  return EncodedRecord{id, bits};
}

/// The slots VectorStore::AddAll gives `n` distinct ids after `first`
/// stored records: first, first + 1, ...
std::vector<uint32_t> DenseSlots(size_t n, uint32_t first = 0) {
  std::vector<uint32_t> slots(n);
  for (size_t i = 0; i < n; ++i) slots[i] = first + static_cast<uint32_t>(i);
  return slots;
}

/// A dense deterministic base vector.
BitVector BaseVector() {
  BitVector bv(120);
  for (size_t i = 0; i < 120; i += 3) bv.Set(i);
  return bv;
}

/// Flips `n` bits of `bv` inside [offset, offset+size).
BitVector FlipInSegment(BitVector bv, size_t offset, size_t size, size_t n,
                        Rng& rng) {
  for (size_t i = 0; i < n; ++i) {
    const size_t pos = offset + rng.Below(size);
    if (bv.Test(pos)) {
      bv.Clear(pos);
    } else {
      bv.Set(pos);
    }
  }
  return bv;
}

std::set<RecordId> Candidates(const HbBlocker& blocker,
                              const BitVector& probe) {
  std::set<RecordId> out;
  blocker.ForEachCandidate(probe, [&](RecordId id) { out.insert(id); });
  return out;
}

/// The ids `index`'s matcher compares with `probe`: every candidate it
/// keeps, returned by a classifier that accepts every pair.
std::set<RecordId> Compared(const HbIndex& index, const BitVector& probe) {
  std::vector<IdPair> pairs;
  index.matcher().MatchOne(EncodedRecord{99999, probe},
                           MakeRecordThresholdClassifier(probe.size()), &pairs,
                           nullptr);
  std::set<RecordId> out;
  for (const IdPair& p : pairs) out.insert(p.a_id);
  return out;
}

TEST(AttributeLevelBlockerTest, CreateValidatesInputs) {
  Rng rng(1);
  const RecordLayout layout = NcvrLayout();
  AttributeBlockerOptions options = DefaultOptions();
  // Rule referencing attribute 9 of 4.
  EXPECT_FALSE(HbBlocker::Create(Rule::Pred(9, 4), layout, options, rng).ok());
  // K vector of wrong length.
  options.attribute_K = {5, 5};
  EXPECT_FALSE(HbBlocker::Create(Rule::Pred(0, 4), layout, options, rng).ok());
  // Bare NOT has no positive component.
  options = DefaultOptions();
  EXPECT_FALSE(
      HbBlocker::Create(Rule::Not(Rule::Pred(0, 4)), layout, options, rng)
          .ok());
}

TEST(AttributeLevelBlockerTest, PurelyNegativeOrBranchRejected) {
  // f1 OR NOT f2 is non-blockable: pairs satisfying only the NOT branch
  // can never be generated.
  Rng rng(20);
  const Rule rule = Rule::Or({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))});
  Result<HbBlocker> blocker = HbBlocker::Create(
      rule, NcvrLayout(), DefaultOptions(), rng);
  EXPECT_FALSE(blocker.ok());
  EXPECT_EQ(blocker.status().code(), StatusCode::kInvalidArgument);

  // Nested inside an AND, the same OR must still be rejected.
  const Rule nested = Rule::And(
      {Rule::Pred(2, 8),
       Rule::Or({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))})});
  EXPECT_FALSE(
      HbBlocker::Create(nested, NcvrLayout(), DefaultOptions(), rng).ok());

  // An OR branch that is an AND containing a NOT plus a positive
  // predicate IS blockable (the positive conjunct generates).
  const Rule fine = Rule::Or(
      {Rule::Pred(2, 8),
       Rule::And({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))})});
  EXPECT_TRUE(
      HbBlocker::Create(fine, NcvrLayout(), DefaultOptions(), rng).ok());
}

TEST(AttributeLevelBlockerTest, AndRuleBuildsOneStructure) {
  Rng rng(2);
  const Rule c1 =
      Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)});
  Result<HbBlocker> blocker =
      HbBlocker::Create(c1, NcvrLayout(), DefaultOptions(), rng);
  ASSERT_TRUE(blocker.ok()) << blocker.status().ToString();
  EXPECT_EQ(blocker.value().num_structures(), 1u);
  // Paper PH on NCVR: L ~ 178.
  EXPECT_NEAR(static_cast<double>(blocker.value().structure_L(0)), 178.0, 1.0);
  EXPECT_EQ(blocker.value().TotalTables(), blocker.value().structure_L(0));
}

TEST(AttributeLevelBlockerTest, OrOfPredicatesBuildsOneOrStructure) {
  Rng rng(3);
  const Rule rule = Rule::Or({Rule::Pred(0, 4), Rule::Pred(1, 4)});
  Result<HbBlocker> blocker = HbBlocker::Create(
      rule, NcvrLayout(), DefaultOptions(), rng);
  ASSERT_TRUE(blocker.ok());
  EXPECT_EQ(blocker.value().num_structures(), 1u);
  // OR structure: n_c tables per group (Definition 5 space accounting).
  EXPECT_EQ(blocker.value().TotalTables(),
            2 * blocker.value().structure_L(0));
}

TEST(AttributeLevelBlockerTest, CompoundRuleBuildsMultipleStructures) {
  Rng rng(4);
  // C2 of Section 6.2: (f1 AND f2) OR f3.
  const Rule c2 = Rule::Or(
      {Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)}), Rule::Pred(2, 8)});
  Result<HbBlocker> blocker = HbBlocker::Create(
      c2, NcvrLayout(), DefaultOptions(), rng);
  ASSERT_TRUE(blocker.ok());
  EXPECT_EQ(blocker.value().num_structures(), 2u);
}

TEST(AttributeLevelBlockerTest, IdenticalVectorsAlwaysFormulated) {
  Rng rng(5);
  const Rule c1 = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)});
  HbBlocker blocker =
      HbBlocker::Create(c1, NcvrLayout(), DefaultOptions(), rng)
          .value();
  const BitVector base = BaseVector();
  blocker.Insert(MakeRecord(7, base), 0);
  EXPECT_TRUE(Candidates(blocker, base).contains(7));
  EXPECT_TRUE(blocker.FormulatedByRule(base, base));
}

TEST(AttributeLevelBlockerTest, WithinThresholdPairsFoundReliably) {
  // A pair within every attribute threshold must be formulated with
  // frequency >= 1 - delta (Eq. 2 with the Eq. 10 composite).
  Rng data_rng(6);
  size_t found = 0;
  constexpr size_t kRounds = 120;
  for (size_t round = 0; round < kRounds; ++round) {
    Rng rng(100 + round);
    const Rule c1 = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)});
    HbBlocker blocker =
        HbBlocker::Create(c1, NcvrLayout(), DefaultOptions(), rng)
            .value();
    const BitVector a = BaseVector();
    BitVector b = FlipInSegment(a, 0, 15, 2, data_rng);     // u^(f1) = 2
    b = FlipInSegment(std::move(b), 15, 15, 2, data_rng);   // u^(f2) = 2
    blocker.Insert(MakeRecord(1, a), 0);
    if (Candidates(blocker, b).contains(1)) ++found;
  }
  EXPECT_GE(static_cast<double>(found) / kRounds, 0.88);
}

TEST(AttributeLevelBlockerTest, NotRulePrunesMatchingSecondAttribute) {
  // C3 = f1 AND NOT f2: a pair whose f2 segments are identical collides
  // in f2's structure in every group, so the matcher must never compare
  // it, although it collides in f1's.
  Rng rng(7);
  const Rule c3 = Rule::And({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))});
  HbIndex index(
      HbBlocker::Create(c3, NcvrLayout(), DefaultOptions(), rng)
          .value());
  const auto& blocker = index.blocker();
  const BitVector a = BaseVector();
  index.Insert(MakeRecord(1, a));
  // Probe identical in f2 (and f1): excluded by the NOT.
  EXPECT_TRUE(Candidates(blocker, a).contains(1));
  EXPECT_FALSE(Compared(index, a).contains(1));
  EXPECT_FALSE(blocker.FormulatedByRule(a, a));

  // Probe with f2 far away but f1 identical: should be compared.
  Rng flip(8);
  const BitVector probe = FlipInSegment(a, 15, 15, 14, flip);
  EXPECT_TRUE(Compared(index, probe).contains(1));
}

TEST(AttributeLevelBlockerTest, OrRuleFindsPairsMatchingEitherSide) {
  Rng rng(9);
  const Rule rule = Rule::Or({Rule::Pred(0, 2), Rule::Pred(2, 4)});
  HbBlocker blocker =
      HbBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
          .value();
  const BitVector a = BaseVector();
  blocker.Insert(MakeRecord(1, a), 0);

  // Destroy f1 entirely but keep f3 identical: the OR should still fire.
  Rng flip(10);
  const BitVector probe = FlipInSegment(a, 0, 15, 15, flip);
  EXPECT_TRUE(Candidates(blocker, probe).contains(1));
}

TEST(AttributeLevelBlockerTest, CompoundAndOfStructuresRequiresBoth) {
  Rng rng(11);
  // (f1 OR f2) AND (f3 OR f4) — the paper's Section 5.4 C2 shape.
  const Rule rule = Rule::And(
      {Rule::Or({Rule::Pred(0, 2), Rule::Pred(1, 2)}),
       Rule::Or({Rule::Pred(2, 4), Rule::Pred(3, 2)})});
  HbIndex index(
      HbBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
          .value());
  const auto& blocker = index.blocker();
  EXPECT_EQ(blocker.num_structures(), 2u);
  const BitVector a = BaseVector();
  index.Insert(MakeRecord(1, a));

  // Identical probe satisfies both OR structures.
  EXPECT_TRUE(blocker.FormulatedByRule(a, a));
  EXPECT_TRUE(Compared(index, a).contains(1));

  // Destroy f3 AND f4: second structure cannot collide reliably; pair
  // should mostly disappear.  (f1, f2 intact, so the first structure,
  // the one probed, still collides.)
  Rng flip(12);
  BitVector probe = FlipInSegment(a, 30, 68, 60, flip);
  probe = FlipInSegment(std::move(probe), 98, 22, 20, flip);
  EXPECT_FALSE(blocker.FormulatedByRule(a, probe));
  EXPECT_TRUE(Candidates(blocker, probe).contains(1));
  EXPECT_FALSE(Compared(index, probe).contains(1));
}

// --- BulkInsert determinism: tables identical to an Insert() loop at
// any thread count: every table compares equal (content, per-bucket
// order, counters), and so does the full candidate-emission sequence.

TEST(AttributeLevelBlockerBulkInsertTest, IdenticalToIndexAtAnyThreadCount) {
  // C2 shape: one AND structure and one plain predicate structure, so
  // both compound-key and single-attribute phase-1 paths run.
  const Rule rule = Rule::Or(
      {Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)}), Rule::Pred(2, 8)});
  const auto make_blocker = [&] {
    Rng rng(41);
    return HbBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
        .value();
  };

  // Clustered records: perturbations of a few base vectors, so buckets
  // hold several ids and id order inside a bucket matters.
  Rng data_rng(42);
  std::vector<EncodedRecord> records;
  for (RecordId id = 0; id < 120; ++id) {
    BitVector bv = BaseVector();
    bv = FlipInSegment(std::move(bv), 0, 15, id % 3, data_rng);
    bv = FlipInSegment(std::move(bv), 30, 68, id % 5, data_rng);
    records.push_back(MakeRecord(id, bv));
  }
  std::vector<BitVector> probes;
  for (size_t i = 0; i < 40; ++i) {
    probes.push_back(FlipInSegment(BaseVector(), 0, 120, i % 4, data_rng));
  }

  const std::vector<uint32_t> slots = DenseSlots(records.size());
  HbBlocker serial = make_blocker();
  for (size_t i = 0; i < records.size(); ++i) {
    serial.Insert(records[i], slots[i]);
  }
  const auto emission = [&](const HbBlocker& blocker) {
    std::vector<RecordId> out;
    for (const BitVector& probe : probes) {
      blocker.ForEachCandidate(probe, [&](RecordId id) { out.push_back(id); });
    }
    return out;
  };
  const std::vector<RecordId> serial_emission = emission(serial);
  EXPECT_FALSE(serial_emission.empty());

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    HbBlocker parallel = make_blocker();
    parallel.BulkInsert(records, slots, &pool);
    EXPECT_EQ(parallel.tables(), serial.tables())
        << "tables differ at " << threads << " threads";
    EXPECT_EQ(emission(parallel), serial_emission)
        << "candidate stream diverges at " << threads << " threads";
  }
}

TEST(AttributeLevelBlockerBulkInsertTest, EmptyAndAppendInputs) {
  const Rule rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)});
  const auto make_blocker = [&] {
    Rng rng(43);
    return HbBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
        .value();
  };
  ThreadPool pool(4);

  HbBlocker empty = make_blocker();
  empty.BulkInsert(std::span<const EncodedRecord>{},
                   std::span<const uint32_t>{}, &pool);
  EXPECT_TRUE(Candidates(empty, BaseVector()).empty());

  // Two bulk batches behave like one Insert() loop over the
  // concatenation.
  std::vector<EncodedRecord> all;
  Rng data_rng(44);
  for (RecordId id = 0; id < 60; ++id) {
    all.push_back(
        MakeRecord(id, FlipInSegment(BaseVector(), 0, 120, id % 3, data_rng)));
  }
  const std::vector<uint32_t> slots = DenseSlots(all.size());
  HbBlocker serial = make_blocker();
  for (size_t i = 0; i < all.size(); ++i) serial.Insert(all[i], slots[i]);

  HbBlocker parallel = make_blocker();
  const std::span<const EncodedRecord> span(all);
  const std::span<const uint32_t> slot_span(slots);
  parallel.BulkInsert(span.subspan(0, 25), slot_span.subspan(0, 25), &pool);
  parallel.BulkInsert(span.subspan(25), slot_span.subspan(25), &pool);
  for (const EncodedRecord& r : all) {
    ASSERT_EQ(Candidates(parallel, r.bits), Candidates(serial, r.bits));
  }
}

// --- Bucket spans vs a de-duplicated candidate stream -----------------

/// Exposes `inner`'s slots de-duplicated: each slot once per probe, at
/// its first occurrence, in single-slot spans.
class DedupedCandidates : public SlotCandidateSource {
 public:
  explicit DedupedCandidates(const SlotCandidateSource& inner)
      : inner_(inner) {}

  bool ForEachSlotSpan(
      const BitVector& probe,
      FunctionRef<void(std::span<const uint32_t>)> cb) const override {
    std::unordered_set<uint32_t> seen;
    return inner_.ForEachSlotSpan(probe, [&](std::span<const uint32_t> bucket) {
      for (const uint32_t& slot : bucket) {
        if (seen.insert(slot).second) cb(std::span<const uint32_t>(&slot, 1));
      }
    });
  }

 private:
  const SlotCandidateSource& inner_;
};

TEST(AttributeLevelBlockerSpanTest, C1SpansMatchDedupedCandidates) {
  // Rule C1 (f1 <= 4 AND f2 <= 4 AND f3 <= 8) lowers to one structure.
  const Rule rule =
      Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)});
  Rng rng(61);
  HbBlocker blocker =
      HbBlocker::Create(rule, NcvrLayout(), DefaultOptions(), rng)
          .value();
  ASSERT_EQ(blocker.num_structures(), 1u);

  // Records scattered around a few centres, so buckets hold many Ids and
  // a probe meets the same Id in several groups.
  Rng data(62);
  std::vector<BitVector> centres;
  for (size_t c = 0; c < 6; ++c) {
    centres.push_back(FlipInSegment(BaseVector(), 0, 120, 40, data));
  }
  const auto make_records = [&](RecordId first, size_t n) {
    std::vector<EncodedRecord> records;
    for (size_t i = 0; i < n; ++i) {
      BitVector bits = centres[data.Below(centres.size())];
      bits = FlipInSegment(std::move(bits), 0, 15, data.Below(3), data);
      bits = FlipInSegment(std::move(bits), 15, 15, data.Below(3), data);
      bits = FlipInSegment(std::move(bits), 30, 68, data.Below(6), data);
      records.push_back(MakeRecord(first + i, std::move(bits)));
    }
    return records;
  };
  const std::vector<EncodedRecord> a = make_records(0, 300);
  const std::vector<EncodedRecord> b = make_records(1000, 200);
  VectorStore store;
  std::vector<uint32_t> slots;
  store.AddAll(a, &slots);
  blocker.BulkInsert(a, slots);
  const PairClassifier classifier = MakeRuleClassifier(rule, NcvrLayout());
  const DedupedCandidates deduped(blocker);

  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ThreadPool pool(threads);
    MatchStats span_stats;
    const std::vector<IdPair> span_pairs =
        Matcher(&blocker, &store).MatchAll(b, classifier, &span_stats, &pool);
    MatchStats dedup_stats;
    const std::vector<IdPair> dedup_pairs =
        Matcher(&deduped, &store).MatchAll(b, classifier, &dedup_stats, &pool);

    EXPECT_FALSE(span_pairs.empty());
    EXPECT_EQ(span_pairs, dedup_pairs);
    EXPECT_EQ(span_stats.comparisons, dedup_stats.comparisons);
    EXPECT_EQ(span_stats.matches, dedup_stats.matches);
    // The spans carry the raw occurrences, repeats across groups
    // included; the matcher's stamps skip exactly the repeats.
    EXPECT_EQ(dedup_stats.candidate_occurrences, dedup_stats.comparisons);
    EXPECT_GT(span_stats.candidate_occurrences, span_stats.comparisons);
    EXPECT_EQ(span_stats.dedup_skipped,
              span_stats.candidate_occurrences - span_stats.comparisons);
  }
}

}  // namespace
}  // namespace cbvlink
