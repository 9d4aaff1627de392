#include "src/linkage/online_linker.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/thread_pool.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/eval/measures.h"

namespace cbvlink {
namespace {

CbvHbConfig BaseConfig(const Schema& schema) {
  CbvHbConfig config;
  config.schema = schema;
  config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                           Rule::Pred(2, 4), Rule::Pred(3, 4)});
  config.record_K = 30;
  config.record_theta = 4;
  config.seed = 5;
  return config;
}

TEST(OnlineLinkerTest, NeedsCalibrationOrExplicitB) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  EXPECT_FALSE(
      OnlineCbvHbLinker::Create(BaseConfig(gen.value().schema())).ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  EXPECT_TRUE(OnlineCbvHbLinker::Create(std::move(config)).ok());
}

TEST(OnlineLinkerTest, PropagatesConfigValidation) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.rule = Rule::Pred(9, 4);  // out of range
  EXPECT_FALSE(OnlineCbvHbLinker::Create(std::move(config)).ok());
}

TEST(OnlineLinkerTest, InsertThenMatchFindsDuplicates) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Result<OnlineCbvHbLinker> linker =
      OnlineCbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());

  Rng rng(1);
  const Record alice = gen.value().Generate(0, rng);
  const Record bob = gen.value().Generate(1, rng);
  ASSERT_TRUE(linker.value().Insert(alice).ok());
  ASSERT_TRUE(linker.value().Insert(bob).ok());
  EXPECT_EQ(linker.value().size(), 2u);

  Record query = alice;
  query.id = 100;
  std::vector<IdPair> out;
  ASSERT_TRUE(linker.value().Match(query, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a_id, alice.id);
  EXPECT_EQ(out[0].b_id, 100u);
  EXPECT_GT(linker.value().stats().comparisons, 0u);
}

TEST(OnlineLinkerTest, MatchDoesNotInsert) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Result<OnlineCbvHbLinker> linker =
      OnlineCbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Rng rng(2);
  const Record r = gen.value().Generate(0, rng);
  std::vector<IdPair> out;
  ASSERT_TRUE(linker.value().Match(r, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(linker.value().size(), 0u);
}

TEST(OnlineLinkerTest, MatchAndInsertChainsArrivals) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Result<OnlineCbvHbLinker> linker =
      OnlineCbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  Rng rng(3);
  Record r = gen.value().Generate(0, rng);
  std::vector<IdPair> out;
  ASSERT_TRUE(linker.value().MatchAndInsert(r, &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(linker.value().size(), 1u);
  // The same record arriving again now matches the first arrival.
  Record again = r;
  again.id = 55;
  ASSERT_TRUE(linker.value().MatchAndInsert(again, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a_id, r.id);
  EXPECT_EQ(linker.value().size(), 2u);
}

TEST(OnlineLinkerTest, StreamingEqualsBatchRecall) {
  // Feeding B as a stream must find (at least) the pairs the batch
  // pipeline finds under the same seed/encoder parameters.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 500;
  options.seed = 21;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());

  CbvHbConfig config = BaseConfig(gen.value().schema());
  Result<OnlineCbvHbLinker> linker =
      OnlineCbvHbLinker::Create(std::move(config), data.value().a);
  ASSERT_TRUE(linker.ok());
  for (const Record& r : data.value().a) {
    ASSERT_TRUE(linker.value().Insert(r).ok());
  }
  std::vector<IdPair> found;
  for (const Record& r : data.value().b) {
    ASSERT_TRUE(linker.value().Match(r, &found).ok());
  }
  const PairSet truth = TruthPairs(data.value().truth);
  size_t hits = 0;
  PairSet unique;
  for (const IdPair& p : found) unique.insert(p);
  for (const IdPair& p : unique) {
    if (truth.contains(p)) ++hits;
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(truth.size()),
            0.9);
}

TEST(OnlineLinkerTest, AttributeLevelStreamingWorks) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.attribute_level_blocking = true;
  config.attribute_K = {5, 5, 10, 5};
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Result<OnlineCbvHbLinker> linker =
      OnlineCbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  EXPECT_GT(linker.value().blocking_groups(), 0u);

  Rng rng(9);
  const Record r = gen.value().Generate(0, rng);
  ASSERT_TRUE(linker.value().Insert(r).ok());
  Record query = r;
  query.id = 77;
  std::vector<IdPair> out;
  ASSERT_TRUE(linker.value().Match(query, &out).ok());
  ASSERT_EQ(out.size(), 1u);
}

TEST(OnlineLinkerTest, EncoderExposedForIntrospection) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Result<OnlineCbvHbLinker> linker =
      OnlineCbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  EXPECT_EQ(linker.value().encoder().total_bits(), 120u);
}

TEST(OnlineLinkerTest, BatchOpsEqualPerRecordOps) {
  // InsertEncoded + MatchAll over a pool must equal an Insert loop plus
  // a MatchEncoded loop: same pairs in the same order, same counters, at
  // any thread count, in both blocking modes.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 300;
  options.seed = 22;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());
  const std::vector<Record>& a = data.value().a;
  const std::vector<Record>& b = data.value().b;

  for (const bool attribute_level : {false, true}) {
    SCOPED_TRACE(attribute_level ? "attribute-level" : "record-level");
    CbvHbConfig config = BaseConfig(gen.value().schema());
    config.attribute_level_blocking = attribute_level;
    config.attribute_K = {5, 5, 10, 5};
    config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};

    OnlineCbvHbLinker serial = OnlineCbvHbLinker::Create(config).value();
    for (const Record& r : a) ASSERT_TRUE(serial.Insert(r).ok());
    const std::vector<EncodedRecord> encoded_b =
        serial.encoder().EncodeAll(b).value();
    std::vector<IdPair> expected;
    for (const EncodedRecord& r : encoded_b) {
      ASSERT_TRUE(serial.MatchEncoded(r, &expected).ok());
    }
    EXPECT_EQ(serial.size(), a.size()) << "MatchEncoded does not insert";
    ASSERT_FALSE(expected.empty());

    for (const size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      OnlineCbvHbLinker batch = OnlineCbvHbLinker::Create(config).value();
      ASSERT_TRUE(batch
                      .InsertEncoded(batch.encoder().EncodeAll(a).value(),
                                     &pool)
                      .ok());
      Result<std::vector<IdPair>> pairs = batch.MatchAll(encoded_b, &pool);
      ASSERT_TRUE(pairs.ok());
      EXPECT_EQ(pairs.value(), expected) << threads << " threads";
      EXPECT_EQ(batch.stats().candidate_occurrences,
                serial.stats().candidate_occurrences);
      EXPECT_EQ(batch.stats().comparisons, serial.stats().comparisons);
      EXPECT_EQ(batch.stats().dedup_skipped, serial.stats().dedup_skipped);
    }
  }
}

TEST(OnlineLinkerTest, InsertBatchRowsEqualInsertEncodedOfEncodeAll) {
  // InsertBatch encodes straight into arena rows; it must build the
  // store and the tables InsertEncoded(EncodeAll(...)) builds, at any
  // thread count and in both blocking modes.  A repeated id keeps its
  // first row and slot.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 300;
  options.seed = 31;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());
  std::vector<Record> a = data.value().a;
  for (size_t i = 0; i < 15; ++i) {
    Record repeat = data.value().b[i];
    repeat.id = a[i * 17].id;
    a.push_back(std::move(repeat));
  }

  for (const bool attribute_level : {false, true}) {
    SCOPED_TRACE(attribute_level ? "attribute-level" : "record-level");
    CbvHbConfig config = BaseConfig(gen.value().schema());
    config.attribute_level_blocking = attribute_level;
    config.attribute_K = {5, 5, 10, 5};
    config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
    OnlineCbvHbLinker encoded = OnlineCbvHbLinker::Create(config).value();
    ASSERT_TRUE(
        encoded.InsertEncoded(encoded.encoder().EncodeAll(a).value()).ok());
    const VectorStore& expected = encoded.index().store();
    ASSERT_EQ(expected.size(), a.size() - 15);

    for (const size_t threads : {1u, 4u}) {
      OnlineCbvHbLinker rows = OnlineCbvHbLinker::Create(config).value();
      ASSERT_TRUE(
          rows.InsertBatch(a, ExecutionOptions::WithThreads(threads)).ok());
      const VectorStore& store = rows.index().store();
      ASSERT_EQ(store.size(), expected.size()) << threads << " threads";
      EXPECT_EQ(store.arena(), expected.arena());
      for (uint32_t slot = 0; slot < store.size(); ++slot) {
        EXPECT_EQ(store.IdAt(slot), expected.IdAt(slot));
      }
      EXPECT_EQ(rows.index().blocker().tables(),
                encoded.index().blocker().tables());
      const uint32_t slot = store.DenseIndex(a[17].id);
      EXPECT_EQ(slot, 17u);
      EXPECT_EQ(store.VectorAt(slot),
                rows.encoder().Encode(a[17]).value().bits);
    }
  }
}

TEST(OnlineLinkerTest, InsertBatchRejectsAMalformedRecordAndKeepsTheIndex) {
  // The records are checked before any slot is handed out: the batch's
  // error is EncodeAll's, and the index stays as it was.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  OnlineCbvHbLinker linker = OnlineCbvHbLinker::Create(config).value();
  Rng rng(3);
  std::vector<Record> records;
  for (RecordId id = 0; id < 40; ++id) {
    records.push_back(gen.value().Generate(id, rng));
  }
  ASSERT_TRUE(linker.InsertBatch({records.begin(), records.begin() + 10}).ok());
  records[25].fields.pop_back();
  records[33].fields.pop_back();
  const Status expected = linker.encoder().EncodeAll(records).status();
  ASSERT_FALSE(expected.ok());
  for (const size_t threads : {1u, 4u}) {
    const Status status =
        linker.InsertBatch(records, ExecutionOptions::WithThreads(threads));
    EXPECT_EQ(status.ToString(), expected.ToString());
    EXPECT_EQ(linker.size(), 10u);
    EXPECT_EQ(linker.index().blocker().num_slots(), 10u);
  }
}

TEST(OnlineLinkerTest, EncodedOpsRejectOtherWidths) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Result<OnlineCbvHbLinker> linker =
      OnlineCbvHbLinker::Create(std::move(config));
  ASSERT_TRUE(linker.ok());
  const EncodedRecord narrow{1, BitVector(64)};
  std::vector<IdPair> out;
  EXPECT_FALSE(linker.value().InsertEncoded({narrow}).ok());
  EXPECT_FALSE(linker.value().MatchEncoded(narrow, &out).ok());
  EXPECT_FALSE(linker.value().MatchAll({narrow}).ok());
  EXPECT_FALSE(linker.value().MatchAndInsertEncoded(narrow, &out).ok());
  EXPECT_EQ(linker.value().size(), 0u);
}

TEST(OnlineLinkerTest, CreateFromRngNeedsExpectedQGrams) {
  // The Rng overload never estimates: its caller sized the encoder.  With
  // the counts set, it equals the seed overload on a fresh Rng.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  CbvHbConfig config = BaseConfig(gen.value().schema());
  Rng rng(config.seed);
  EXPECT_FALSE(OnlineCbvHbLinker::Create(config, rng).ok());

  config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  Rng fresh(config.seed);
  OnlineCbvHbLinker from_rng = OnlineCbvHbLinker::Create(config, fresh).value();
  OnlineCbvHbLinker from_seed = OnlineCbvHbLinker::Create(config).value();
  Rng data(4);
  std::vector<IdPair> x, y;
  for (RecordId id = 0; id < 50; ++id) {
    const Record r = gen.value().Generate(id, data);
    ASSERT_TRUE(from_rng.MatchAndInsert(r, &x).ok());
    ASSERT_TRUE(from_seed.MatchAndInsert(r, &y).ok());
    Record again = r;
    again.id = 1000 + id;
    ASSERT_TRUE(from_rng.Match(again, &x).ok());
    ASSERT_TRUE(from_seed.Match(again, &y).ok());
  }
  EXPECT_GE(x.size(), 50u);
  EXPECT_EQ(x, y);
  EXPECT_EQ(from_rng.stats().candidate_occurrences,
            from_seed.stats().candidate_occurrences);
}

}  // namespace
}  // namespace cbvlink
