// End-to-end integration tests: every linkage pipeline runs on a small
// NCVR-shaped data set and is scored against ground truth.  Thresholds
// follow Section 6 scaled to the PL scheme.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "src/blocking/matcher.h"
#include "src/common/hashing.h"
#include "src/common/thread_pool.h"
#include "src/eval/experiment.h"
#include "src/linkage/bfh_linker.h"
#include "src/linkage/cbv_hb_linker.h"
#include "src/linkage/harra_linker.h"
#include "src/linkage/online_linker.h"
#include "src/linkage/smeb_linker.h"

namespace cbvlink {
namespace {

class LinkersTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    Result<NcvrGenerator> gen = NcvrGenerator::Create();
    ASSERT_TRUE(gen.ok());
    generator_ = new NcvrGenerator(std::move(gen).value());
    LinkagePairOptions options;
    options.num_records = 800;
    options.seed = 4242;
    Result<LinkagePair> data =
        BuildLinkagePair(*generator_, PerturbationScheme::Light(), options);
    ASSERT_TRUE(data.ok());
    data_ = new LinkagePair(std::move(data).value());
  }

  static void TearDownTestSuite() {
    delete data_;
    delete generator_;
    data_ = nullptr;
    generator_ = nullptr;
  }

  static Rule PlRule() {
    // PL: every attribute within theta = 4.
    return Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 4),
                      Rule::Pred(3, 4)});
  }

  /// Appends to `a` one record per crafted pair: a copy of a B record's
  /// values under an id A already holds — the B record's true match for
  /// even t, an unrelated A record for odd t.  A later A record that
  /// repeats an id is stored nowhere: its id keeps the first record's
  /// vector and arena slot, and its blocking keys point at that slot.  A
  /// copy collides with its B record in every group, so the crafted pair
  /// is reported iff the *first* vector under that id satisfies the rule.
  static std::vector<IdPair> AppendDuplicateIds(std::vector<Record>* a) {
    const std::vector<Record>& b = data_->b;
    const size_t num_a = a->size();
    std::vector<IdPair> crafted;
    for (size_t t = 0; t < 20 && t < data_->truth.size(); ++t) {
      const IdPair truth = data_->truth[t * 7 % data_->truth.size()].pair;
      const auto b_it = std::find_if(b.begin(), b.end(), [&](const Record& r) {
        return r.id == truth.b_id;
      });
      EXPECT_NE(b_it, b.end());
      if (b_it == b.end()) continue;
      const RecordId a_id =
          t % 2 == 0 ? truth.a_id : (*a)[(t * 37) % num_a].id;
      Record dup = *b_it;
      dup.id = a_id;
      a->push_back(std::move(dup));
      crafted.push_back(IdPair{a_id, truth.b_id});
    }
    return crafted;
  }

  /// Checks a Link over A with AppendDuplicateIds' records (`dups`)
  /// against the same Link without them (`plain`).  `first_matches`
  /// classifies an A record against a B record.
  static void ExpectFirstVectorWins(
      const std::vector<IdPair>& plain, const std::vector<IdPair>& dups,
      const std::vector<IdPair>& crafted,
      const std::function<bool(const Record&, const Record&)>&
          first_matches) {
    const std::set<IdPair> plain_pairs(plain.begin(), plain.end());
    const std::set<IdPair> dup_pairs(dups.begin(), dups.end());
    EXPECT_EQ(dup_pairs.size(), dups.size())
        << "a repeated id is compared once per probe";
    EXPECT_TRUE(std::includes(dup_pairs.begin(), dup_pairs.end(),
                              plain_pairs.begin(), plain_pairs.end()));

    const auto find = [](const std::vector<Record>& records, RecordId id) {
      return *std::find_if(records.begin(), records.end(),
                           [&](const Record& r) { return r.id == id; });
    };
    const auto matches = [&](const IdPair& pair) {
      return first_matches(find(data_->a, pair.a_id),
                           find(data_->b, pair.b_id));
    };
    size_t present = 0;
    for (const IdPair& pair : crafted) {
      EXPECT_EQ(dup_pairs.contains(pair), matches(pair))
          << pair.a_id << "," << pair.b_id;
      present += matches(pair) ? 1 : 0;
    }
    EXPECT_GT(present, 0u) << "test needs crafted pairs that match";
    EXPECT_LT(present, crafted.size()) << "and crafted pairs that do not";
    // Every extra pair still satisfies the rule on the first vector.
    for (const IdPair& pair : dup_pairs) {
      if (plain_pairs.contains(pair)) continue;
      EXPECT_TRUE(matches(pair)) << pair.a_id << "," << pair.b_id;
    }
  }

  /// Order-sensitive hash of a pair list, for the pinned-pair tests.
  static uint64_t HashPairs(const std::vector<IdPair>& pairs) {
    uint64_t hash = Mix64(pairs.size());
    for (const IdPair& pair : pairs) {
      hash = HashCombine(HashCombine(hash, pair.a_id), pair.b_id);
    }
    return hash;
  }

  static NcvrGenerator* generator_;
  static LinkagePair* data_;
};

NcvrGenerator* LinkersTest::generator_ = nullptr;
LinkagePair* LinkersTest::data_ = nullptr;

TEST_F(LinkersTest, CbvHbRecordLevelFindsMostPairs) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.attribute_level_blocking = false;
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = 1;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<ExperimentResult> result = RunLinkage(linker.value(), *data_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Paper: PC constantly above 0.95 (Figure 9a).
  EXPECT_GE(result.value().quality.pairs_completeness, 0.9);
  EXPECT_GE(result.value().quality.reduction_ratio, 0.9);
  // m-bar should be near the 120 bits of Table 3.
  Result<const CVectorRecordEncoder*> encoder = linker.value().encoder();
  ASSERT_TRUE(encoder.ok()) << encoder.status().ToString();
  EXPECT_NEAR(static_cast<double>(encoder.value()->total_bits()), 120.0,
              10.0);
}

TEST_F(LinkersTest, CbvHbEncoderBeforeLinkIsFailedPrecondition) {
  // encoder() used to return a silent null before the first Link();
  // now the misuse is a typed error.
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.seed = 1;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<const CVectorRecordEncoder*> encoder = linker.value().encoder();
  ASSERT_FALSE(encoder.ok());
  EXPECT_EQ(encoder.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(LinkersTest, CbvHbEmptyAWithoutExpectedQGramsIsAnError) {
  // With no expected_qgrams the sizing estimate samples data set A; an
  // empty A must be rejected up front instead of silently producing
  // degenerate vector sizes.
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.seed = 5;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link({}, data_->b);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(LinkersTest, CbvHbEmptyAWithExpectedQGramsIsAllowed) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.expected_qgrams = {8.0, 9.0, 20.0, 7.0};
  config.seed = 5;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link({}, data_->b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().matches.empty());
}

TEST_F(LinkersTest, CbvHbParallelMatchingReproducesSerialOutput) {
  // The acceptance bar of the parallel engine: pairs and stats must be
  // identical across thread counts on a fixed-seed dataset.
  auto run = [&](size_t num_threads) {
    CbvHbConfig config;
    config.schema = generator_->schema();
    config.rule = PlRule();
    config.record_K = 30;
    config.record_theta = 4;
    config.seed = 1;
    Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
    EXPECT_TRUE(linker.ok());
    Result<LinkageResult> result = linker.value().Link(
        data_->a, data_->b, ExecutionOptions::WithThreads(num_threads));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().threads_used, num_threads);
    return std::move(result).value();
  };
  const LinkageResult serial = run(1);
  EXPECT_GT(serial.matches.size(), 0u);
  for (size_t threads : {2u, 8u}) {
    const LinkageResult parallel = run(threads);
    EXPECT_EQ(parallel.matches, serial.matches)
        << "matches diverge at " << threads << " threads";
    EXPECT_EQ(parallel.stats.candidate_occurrences,
              serial.stats.candidate_occurrences);
    EXPECT_EQ(parallel.stats.comparisons, serial.stats.comparisons);
    EXPECT_EQ(parallel.stats.matches, serial.stats.matches);
    EXPECT_EQ(parallel.stats.dedup_skipped, serial.stats.dedup_skipped);
  }
}

TEST_F(LinkersTest, SharedPoolOverridesNumThreads) {
  // A caller-owned pool drives every parallel stage; num_threads is
  // ignored and threads_used reports the pool's width.
  ThreadPool pool(3);
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.seed = 1;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  ExecutionOptions options = ExecutionOptions::WithPool(&pool);
  options.num_threads = 16;  // must be ignored
  Result<LinkageResult> result =
      linker.value().Link(data_->a, data_->b, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().threads_used, 3u);
}

TEST_F(LinkersTest, BaselinesAreThreadCountInvariant) {
  // Every linker — not just cBV-HB — must produce identical output at
  // any thread count (the Linker interface's contract).
  const auto run_harra = [&](size_t threads) {
    HarraConfig config;
    config.K = 5;
    config.L = 30;
    config.theta = 0.35;
    config.seed = 4;
    Result<HarraLinker> linker = HarraLinker::Create(std::move(config));
    EXPECT_TRUE(linker.ok());
    Result<LinkageResult> result = linker.value().Link(
        data_->a, data_->b, ExecutionOptions::WithThreads(threads));
    EXPECT_TRUE(result.ok());
    return std::move(result).value().matches;
  };
  const auto run_smeb = [&](size_t threads) {
    SmEbConfig config;
    config.schema = generator_->schema();
    config.thresholds = {4.5, 4.5, 4.5, 4.5};
    config.stringmap.dimensions = 6;
    config.stringmap.max_train_sample = 200;
    config.L = 8;
    config.seed = 5;
    Result<SmEbLinker> linker = SmEbLinker::Create(std::move(config));
    EXPECT_TRUE(linker.ok());
    Result<LinkageResult> result = linker.value().Link(
        data_->a, data_->b, ExecutionOptions::WithThreads(threads));
    EXPECT_TRUE(result.ok());
    return std::move(result).value().matches;
  };
  const std::vector<IdPair> harra_serial = run_harra(1);
  const std::vector<IdPair> smeb_serial = run_smeb(1);
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(run_harra(threads), harra_serial)
        << "HARRA diverges at " << threads << " threads";
    EXPECT_EQ(run_smeb(threads), smeb_serial)
        << "SM-EB diverges at " << threads << " threads";
  }
}

TEST_F(LinkersTest, CbvHbAttributeLevelFindsMostPairs) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  config.seed = 2;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<ExperimentResult> result = RunLinkage(linker.value(), *data_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result.value().quality.pairs_completeness, 0.9);
}

TEST_F(LinkersTest, CbvHbDuplicateIdsInAKeepTheFirstVector) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.attribute_level_blocking = false;
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = 7;
  // Fixed sizing, so the duplicates cannot change the encoder.
  config.expected_qgrams = EstimateExpectedQGrams(config.schema, data_->a);
  Result<CbvHbLinker> linker = CbvHbLinker::Create(config);
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> plain = linker.value().Link(data_->a, data_->b);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  std::vector<Record> with_dups = data_->a;
  const std::vector<IdPair> crafted = AppendDuplicateIds(&with_dups);
  Result<LinkageResult> dups = linker.value().Link(with_dups, data_->b);
  ASSERT_TRUE(dups.ok()) << dups.status().ToString();

  Result<const CVectorRecordEncoder*> encoder = linker.value().encoder();
  ASSERT_TRUE(encoder.ok());
  const PairClassifier classify =
      MakeRuleClassifier(PlRule(), encoder.value()->layout());
  ExpectFirstVectorWins(plain.value().matches, dups.value().matches, crafted,
                        [&](const Record& a, const Record& b) {
                          const CVectorRecordEncoder& e = *encoder.value();
                          return classify(e.Encode(a).value().bits,
                                          e.Encode(b).value().bits);
                        });
}

TEST_F(LinkersTest, BfhFindsMostPairs) {
  BfhConfig config;
  config.schema = generator_->schema();
  // Section 6.1: theta = 45 per field for PL.
  config.rule = Rule::And({Rule::Pred(0, 45), Rule::Pred(1, 45),
                           Rule::Pred(2, 45), Rule::Pred(3, 45)});
  config.record_theta = 45;
  config.seed = 3;
  Result<BfhLinker> linker = BfhLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<ExperimentResult> result = RunLinkage(linker.value(), *data_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // A single edit on a long Address can flip > 45 Bloom bits (the
  // length-dependence of Section 6.1), so BfH's PL recall sits slightly
  // below cBV-HB's.
  EXPECT_GE(result.value().quality.pairs_completeness, 0.8);
}

TEST_F(LinkersTest, BfhDuplicateIdsInAKeepTheFirstVector) {
  BfhConfig config;
  config.schema = generator_->schema();
  config.rule = Rule::And({Rule::Pred(0, 45), Rule::Pred(1, 45),
                           Rule::Pred(2, 45), Rule::Pred(3, 45)});
  config.record_theta = 45;
  config.seed = 3;
  Result<BfhLinker> linker = BfhLinker::Create(config);
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> plain = linker.value().Link(data_->a, data_->b);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  std::vector<Record> with_dups = data_->a;
  const std::vector<IdPair> crafted = AppendDuplicateIds(&with_dups);
  Result<LinkageResult> dups = linker.value().Link(with_dups, data_->b);
  ASSERT_TRUE(dups.ok()) << dups.status().ToString();

  // The linker's own encoder and classifier, rebuilt from its config.
  Result<BloomRecordEncoder> encoder =
      BloomRecordEncoder::Create(config.schema, config.bloom);
  ASSERT_TRUE(encoder.ok());
  const PairClassifier classify =
      MakeRuleClassifier(config.rule, encoder.value().layout());
  ExpectFirstVectorWins(plain.value().matches, dups.value().matches, crafted,
                        [&](const Record& a, const Record& b) {
                          const BloomRecordEncoder& e = encoder.value();
                          return classify(e.Encode(a).value().bits,
                                          e.Encode(b).value().bits);
                        });
}

TEST_F(LinkersTest, HarraFindsPairsButMissesSome) {
  HarraConfig config;
  config.K = 5;
  config.L = 30;
  config.theta = 0.35;
  config.seed = 4;
  Result<HarraLinker> linker = HarraLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<ExperimentResult> result = RunLinkage(linker.value(), *data_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // HARRA finds a substantial share but the paper reports ~0.82 on NCVR.
  EXPECT_GE(result.value().quality.pairs_completeness, 0.5);
}

TEST_F(LinkersTest, SmEbRunsEndToEnd) {
  SmEbConfig config;
  config.schema = generator_->schema();
  config.thresholds = {4.5, 4.5, 4.5, 4.5};
  config.stringmap.dimensions = 10;       // reduced for test speed
  config.stringmap.max_train_sample = 300;
  config.L = 12;
  config.seed = 5;
  Result<SmEbLinker> linker = SmEbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<ExperimentResult> result = RunLinkage(linker.value(), *data_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // SM-EB is the weakest method; just require it to find a meaningful
  // fraction and produce sane measures.
  EXPECT_GE(result.value().quality.pairs_completeness, 0.3);
  EXPECT_LE(result.value().quality.pairs_completeness, 1.0);
  EXPECT_GT(result.value().linkage.stats.comparisons, 0u);
}

TEST_F(LinkersTest, ConfigValidationErrors) {
  // cBV-HB: attribute-level mode without K values.
  CbvHbConfig cbv;
  cbv.schema = generator_->schema();
  cbv.rule = PlRule();
  cbv.attribute_level_blocking = true;
  EXPECT_FALSE(CbvHbLinker::Create(std::move(cbv)).ok());

  // BfH: rule out of schema range.
  BfhConfig bfh;
  bfh.schema = generator_->schema();
  bfh.rule = Rule::Pred(9, 45);
  EXPECT_FALSE(BfhLinker::Create(std::move(bfh)).ok());

  // HARRA: invalid theta.
  HarraConfig harra;
  harra.theta = 1.5;
  EXPECT_FALSE(HarraLinker::Create(std::move(harra)).ok());

  // SM-EB: no thresholds.
  SmEbConfig smeb;
  smeb.schema = generator_->schema();
  EXPECT_FALSE(SmEbLinker::Create(std::move(smeb)).ok());
}

TEST_F(LinkersTest, ParallelEmbeddingMatchesSerialExactly) {
  // Encoding is deterministic per encoder, so threading must not change
  // the outcome — only the wall clock.
  const auto run = [&](size_t threads) {
    CbvHbConfig config;
    config.schema = generator_->schema();
    config.rule = PlRule();
    config.record_K = 30;
    config.record_theta = 4;
    config.seed = 77;
    Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
    EXPECT_TRUE(linker.ok());
    Result<LinkageResult> result = linker.value().Link(
        data_->a, data_->b, ExecutionOptions::WithThreads(threads));
    EXPECT_TRUE(result.ok());
    std::vector<IdPair> matches = std::move(result).value().matches;
    std::sort(matches.begin(), matches.end());
    return matches;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST_F(LinkersTest, MatchedPairsAreMostlyTrueMatches) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = 6;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<ExperimentResult> result = RunLinkage(linker.value(), *data_);
  ASSERT_TRUE(result.ok());
  const PairSet truth = TruthPairs(data_->truth);
  size_t hits = 0;
  for (const IdPair& pair : result.value().linkage.matches) {
    if (truth.contains(pair)) ++hits;
  }
  // Precision of the *matched* set (not PQ over candidates) should be
  // high: the rule verifies distances attribute by attribute.
  EXPECT_GT(result.value().linkage.matches.size(), 0u);
  EXPECT_GE(static_cast<double>(hits) /
                static_cast<double>(result.value().linkage.matches.size()),
            0.8);
}

TEST_F(LinkersTest, HarraEarlyPruningIsOneToOne) {
  // h-CC links de-duplicated sets: once a record matches it is removed,
  // so no A or B id may appear in two matched pairs.
  HarraConfig config;
  config.K = 5;
  config.L = 30;
  config.theta = 0.35;
  config.seed = 8;
  Result<HarraLinker> linker = HarraLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(data_->a, data_->b);
  ASSERT_TRUE(result.ok());
  std::set<RecordId> seen_a;
  std::set<RecordId> seen_b;
  for (const IdPair& pair : result.value().matches) {
    EXPECT_TRUE(seen_a.insert(pair.a_id).second) << pair.a_id;
    EXPECT_TRUE(seen_b.insert(pair.b_id).second) << pair.b_id;
  }
}

TEST_F(LinkersTest, SmEbDerivesLFromEquation2WhenUnset) {
  SmEbConfig config;
  config.schema = generator_->schema();
  // Tight thresholds keep the derived L small (larger thetas push the
  // p-stable collision probability down and L into the hundreds).
  config.thresholds = {1.0, 1.0, 1.0, 1.0};
  config.stringmap.dimensions = 6;
  config.stringmap.max_train_sample = 200;
  config.L = 0;  // derive from Eq. 2 at sqrt(sum theta^2)
  config.seed = 9;
  Result<SmEbLinker> linker = SmEbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(data_->a, data_->b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().blocking_groups, 0u);
}

TEST_F(LinkersTest, CompoundRuleEndToEnd) {
  // (f1 AND f2) OR (f3 AND f4): any PL-perturbed pair satisfies at
  // least one side (only one attribute carries the edit), so recall
  // should be high with attribute-level blocking over the compound rule.
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = Rule::Or(
      {Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)}),
       Rule::And({Rule::Pred(2, 4), Rule::Pred(3, 4)})});
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  config.seed = 10;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<ExperimentResult> result = RunLinkage(linker.value(), *data_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result.value().quality.pairs_completeness, 0.9);
}

TEST_F(LinkersTest, TimingBreakdownIsPopulated) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.seed = 11;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(data_->a, data_->b);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().embed_seconds, 0.0);
  EXPECT_GE(result.value().index_seconds, 0.0);
  EXPECT_GE(result.value().match_seconds, 0.0);
  EXPECT_DOUBLE_EQ(result.value().total_seconds(),
                   result.value().embed_seconds +
                       result.value().index_seconds +
                       result.value().match_seconds);
}

// --- Pinned pairs ------------------------------------------------------
//
// Link's exact output at a fixed seed: the pair count, the comparison
// count and a hash of the ordered pair list.  The literals pin the whole
// pipeline — the sampling draws, the encoder, the blocker (drawn from the
// same Rng, in that order), the arena slots and the match order — so a
// refactor of any of them that is not byte-identical moves them.

TEST_F(LinkersTest, PinnedPairsRecordLevelPl) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.record_K = 30;
  config.record_theta = 4;
  // Fewer than |A|, so the q-gram estimate samples A with Rng draws
  // ahead of the encoder's and the blocker's.
  config.estimation_sample = 300;
  config.seed = 2016;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> serial = linker.value().Link(data_->a, data_->b);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial.value().matches.size(), 439u);
  EXPECT_EQ(serial.value().stats.comparisons, 753u);
  EXPECT_EQ(HashPairs(serial.value().matches), 0x0dc72516a244f6fdULL);
  EXPECT_EQ(serial.value().blocking_groups, 6u);

  Result<LinkageResult> parallel = linker.value().Link(
      data_->a, data_->b, ExecutionOptions::WithThreads(4));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel.value().matches, serial.value().matches);
}

TEST_F(LinkersTest, PinnedPairsAttributeLevelC1) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  // Rule C1: f1 <= 4 AND f2 <= 4 AND f3 <= 8.
  config.rule =
      Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4), Rule::Pred(2, 8)});
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  config.seed = 2016;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(
      data_->a, data_->b, ExecutionOptions::WithThreads(4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches.size(), 1507u);
  EXPECT_EQ(result.value().stats.comparisons, 16756u);
  EXPECT_EQ(HashPairs(result.value().matches), 0x0e815e9242a00a3eULL);
  EXPECT_EQ(result.value().blocking_groups, 208u);
}

TEST_F(LinkersTest, PinnedPairsAttributeLevelC2) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  // Rule C2: (f1 <= 4 AND f2 <= 4) OR f3 <= 8 — two structures.
  config.rule = Rule::Or(
      {Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)}), Rule::Pred(2, 8)});
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  config.seed = 2016;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(
      data_->a, data_->b, ExecutionOptions::WithThreads(4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches.size(), 48241u);
  EXPECT_EQ(result.value().stats.comparisons, 188988u);
  EXPECT_EQ(HashPairs(result.value().matches), 0x0a6509e9ef11102aULL);
  EXPECT_EQ(result.value().blocking_groups, 65u);
}

TEST_F(LinkersTest, PinnedPairsAttributeLevelC3) {
  CbvHbConfig config;
  config.schema = generator_->schema();
  // Rule C3: f1 <= 4 AND NOT f2 <= 4 — the NOT prunes by a second
  // structure.
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Not(Rule::Pred(1, 4))});
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  config.seed = 2016;
  Result<CbvHbLinker> linker = CbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(
      data_->a, data_->b, ExecutionOptions::WithThreads(4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches.size(), 68187u);
  EXPECT_EQ(result.value().stats.comparisons, 152769u);
  EXPECT_EQ(HashPairs(result.value().matches), 0x76f518ba709c4c6bULL);
  EXPECT_EQ(result.value().blocking_groups, 22u);
}

TEST_F(LinkersTest, PinnedPairsBfh) {
  BfhConfig config;
  config.schema = generator_->schema();
  config.rule = Rule::And({Rule::Pred(0, 45), Rule::Pred(1, 45),
                           Rule::Pred(2, 45), Rule::Pred(3, 45)});
  config.record_theta = 45;
  config.seed = 2016;
  Result<BfhLinker> linker = BfhLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(
      data_->a, data_->b, ExecutionOptions::WithThreads(4));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches.size(), 381u);
  EXPECT_EQ(result.value().stats.comparisons, 1030u);
  EXPECT_EQ(HashPairs(result.value().matches), 0x021b45a80c7fa747ULL);
  EXPECT_EQ(result.value().blocking_groups, 4u);
}

TEST_F(LinkersTest, PinnedPairsHarra) {
  HarraConfig config;
  config.K = 5;
  config.L = 30;
  config.theta = 0.35;
  config.seed = 2016;
  Result<HarraLinker> linker = HarraLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(data_->a, data_->b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches.size(), 439u);
  EXPECT_EQ(result.value().stats.comparisons, 1967u);
  EXPECT_EQ(HashPairs(result.value().matches), 0xaaddc2eb06a6ad66ULL);
  EXPECT_EQ(result.value().blocking_groups, 30u);
}

TEST_F(LinkersTest, PinnedPairsSmEb) {
  SmEbConfig config;
  config.schema = generator_->schema();
  config.thresholds = {1.0, 1.0, 1.0, 1.0};
  config.stringmap.dimensions = 6;
  config.stringmap.max_train_sample = 200;
  config.L = 0;  // derived from Eq. 2
  config.seed = 2016;
  Result<SmEbLinker> linker = SmEbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Result<LinkageResult> result = linker.value().Link(data_->a, data_->b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches.size(), 89u);
  EXPECT_EQ(result.value().stats.comparisons, 1206u);
  EXPECT_EQ(HashPairs(result.value().matches), 0x8963140c55b4412cULL);
  EXPECT_EQ(result.value().blocking_groups, 27u);
}

// --- Streamed Link ------------------------------------------------------
//
// Link encodes A straight into the arena and streams B through claimed
// chunks; the EncodedRecord path (InsertEncoded(EncodeAll(A)), then one
// MatchEncoded per record of EncodeAll(B)) is the reference it must
// equal.

TEST_F(LinkersTest, StreamedLinkEqualsEncodedPathAtAnyThreadCount) {
  // Pairs, their order and every counter, for |B| of 0, 1, a whole
  // number of chunks and the full set (a ragged last chunk), record-level
  // PL and the compound rule C2 (whose probes filter by membership).
  ASSERT_NE(data_->b.size() % Matcher::kStreamChunk, 0u);
  ASSERT_GT(data_->b.size(), 2 * Matcher::kStreamChunk);
  for (const bool attribute_level : {false, true}) {
    SCOPED_TRACE(attribute_level ? "attribute-level C2" : "record-level PL");
    CbvHbConfig config;
    config.schema = generator_->schema();
    config.rule = PlRule();
    if (attribute_level) {
      config.rule = Rule::Or({Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4)}),
                              Rule::Pred(2, 8)});
      config.attribute_level_blocking = true;
      config.attribute_K = {5, 5, 10, 5};
    }
    // Set, so Link's engine and the reference draw from one fresh Rng.
    config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
    config.seed = 77;
    Result<CbvHbLinker> linker = CbvHbLinker::Create(config);
    ASSERT_TRUE(linker.ok());
    for (const size_t size : {size_t{0}, size_t{1}, 2 * Matcher::kStreamChunk,
                              data_->b.size()}) {
      const std::vector<Record> b(data_->b.begin(),
                                  data_->b.begin() +
                                      static_cast<ptrdiff_t>(size));
      OnlineCbvHbLinker reference =
          OnlineCbvHbLinker::Create(config).value();
      ASSERT_TRUE(reference
                      .InsertEncoded(
                          reference.encoder().EncodeAll(data_->a).value())
                      .ok());
      const std::vector<EncodedRecord> encoded_b =
          reference.encoder().EncodeAll(b).value();
      std::vector<IdPair> expected;
      for (const EncodedRecord& r : encoded_b) {
        ASSERT_TRUE(reference.MatchEncoded(r, &expected).ok());
      }
      const MatchStats& stats = reference.stats();
      if (size == data_->b.size()) {
        ASSERT_FALSE(expected.empty());
      }
      for (const size_t threads : {1u, 2u, 4u, 8u}) {
        Result<LinkageResult> result = linker.value().Link(
            data_->a, b, ExecutionOptions::WithThreads(threads));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result.value().matches, expected)
            << "|B| = " << size << ", " << threads << " threads";
        const MatchStats& got = result.value().stats;
        EXPECT_EQ(got.candidate_occurrences, stats.candidate_occurrences);
        EXPECT_EQ(got.comparisons, stats.comparisons);
        EXPECT_EQ(got.matches, stats.matches);
        EXPECT_EQ(got.dedup_skipped, stats.dedup_skipped);
      }
    }
  }
}

TEST_F(LinkersTest, StreamedLinkReportsTheFirstMalformedRecordOfB) {
  // Two malformed records of B, in different chunks: Link fails with the
  // error EncodeAll gives for B — the first one's — at every thread count.
  std::vector<Record> b = data_->b;
  b[Matcher::kStreamChunk + 40].fields.pop_back();
  b[3 * Matcher::kStreamChunk + 2].fields.pop_back();
  CbvHbConfig config;
  config.schema = generator_->schema();
  config.rule = PlRule();
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  const Status expected = OnlineCbvHbLinker::Create(config)
                              .value()
                              .encoder()
                              .EncodeAll(b)
                              .status();
  ASSERT_FALSE(expected.ok());
  Result<CbvHbLinker> linker = CbvHbLinker::Create(config);
  ASSERT_TRUE(linker.ok());
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    Result<LinkageResult> result = linker.value().Link(
        data_->a, b, ExecutionOptions::WithThreads(threads));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().ToString(), expected.ToString())
        << threads << " threads";
  }
}

TEST(IdPairTest, PrintsAsIdTuple) {
  EXPECT_EQ(testing::PrintToString(IdPair{3, 17}), "(3, 17)");
  EXPECT_EQ(testing::PrintToString(std::vector<IdPair>{{1, 2}, {4, 5}}),
            "{ (1, 2), (4, 5) }");
}

}  // namespace
}  // namespace cbvlink
