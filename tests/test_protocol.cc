#include "src/protocol/party.h"

#include <gtest/gtest.h>

#include "src/common/hashing.h"
#include "src/datagen/dataset.h"
#include "src/datagen/generators.h"
#include "src/eval/measures.h"

namespace cbvlink {
namespace {

LinkageParameters PublishedParameters(const Schema& schema) {
  LinkageParameters parameters;
  parameters.schema = schema;
  parameters.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
  return parameters;
}

LinkageUnit::Options CharlieOptions() {
  LinkageUnit::Options options;
  options.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                            Rule::Pred(2, 4), Rule::Pred(3, 4)});
  options.record_theta = 4;
  return options;
}

/// Order-sensitive hash of a pair list, for the pinned-pair test.
uint64_t HashPairs(const std::vector<IdPair>& pairs) {
  uint64_t hash = Mix64(pairs.size());
  for (const IdPair& pair : pairs) {
    hash = HashCombine(HashCombine(hash, pair.a_id), pair.b_id);
  }
  return hash;
}

TEST(ProtocolTest, CustodiansAgreeOnIdenticalParameters) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  Result<DataCustodian> bob = DataCustodian::Create("bob", parameters);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(alice.value().record_bits(), 120u);
  EXPECT_EQ(bob.value().record_bits(), 120u);

  // The same string must encode identically at both custodians — the
  // agreement the shared seed provides.
  Rng rng(3);
  const Record r = gen.value().Generate(0, rng);
  Result<std::vector<EncodedRecord>> ea = alice.value().EncodeRecords({r});
  Result<std::vector<EncodedRecord>> eb = bob.value().EncodeRecords({r});
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  EXPECT_EQ(ea.value()[0].bits, eb.value()[0].bits);
}

TEST(ProtocolTest, DifferentSeedsBreakAgreement) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkageParameters p1 = PublishedParameters(gen.value().schema());
  LinkageParameters p2 = p1;
  p2.hash_seed = 999;
  Result<DataCustodian> alice = DataCustodian::Create("alice", p1);
  Result<DataCustodian> bob = DataCustodian::Create("bob", p2);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  Rng rng(4);
  const Record r = gen.value().Generate(0, rng);
  EXPECT_FALSE(alice.value().EncodeRecords({r}).value()[0].bits ==
               bob.value().EncodeRecords({r}).value()[0].bits);
}

TEST(ProtocolTest, EndToEndOverEncodedSets) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 500;
  options.seed = 31;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());

  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  Result<DataCustodian> bob = DataCustodian::Create("bob", parameters);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  Result<LinkageUnit> charlie =
      LinkageUnit::Create(parameters, CharlieOptions());
  ASSERT_TRUE(charlie.ok());

  Result<LinkageResultLite> result = charlie.value().LinkEncoded(
      alice.value().EncodeRecords(data.value().a).value(),
      bob.value().EncodeRecords(data.value().b).value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const PairSet truth = TruthPairs(data.value().truth);
  size_t hits = 0;
  for (const IdPair& p : result.value().matches) {
    if (truth.contains(p)) ++hits;
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(truth.size()),
            0.9);
}

TEST(ProtocolTest, EndToEndOverWireFiles) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 300;
  options.seed = 33;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());

  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  Result<DataCustodian> bob = DataCustodian::Create("bob", parameters);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());

  const std::string path_a = testing::TempDir() + "/alice.cbv";
  const std::string path_b = testing::TempDir() + "/bob.cbv";
  ASSERT_TRUE(alice.value().ExportRecords(data.value().a, path_a).ok());
  ASSERT_TRUE(bob.value().ExportRecords(data.value().b, path_b).ok());

  Result<LinkageUnit> charlie =
      LinkageUnit::Create(parameters, CharlieOptions());
  ASSERT_TRUE(charlie.ok());
  Result<LinkageResultLite> result =
      charlie.value().LinkFiles(path_a, path_b);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().matches.size(), 0u);
  EXPECT_GT(result.value().blocking_groups, 0u);
}

TEST(ProtocolTest, RepeatedIdsInReceivedAKeepTheFirstVector) {
  // Received ids are not checked for uniqueness; a repeated id keeps its
  // first vector.  Each of the PL rule's four attributes allows 4 bits,
  // so a whole-vector distance of 0 always matches and one above 16
  // never does, whatever the layout.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 300;
  options.seed = 35;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  Result<DataCustodian> bob = DataCustodian::Create("bob", parameters);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  std::vector<EncodedRecord> from_a =
      alice.value().EncodeRecords(data.value().a).value();
  const std::vector<EncodedRecord> from_b =
      bob.value().EncodeRecords(data.value().b).value();

  // A record i < 10 is first stored with B record i's vector, and its id
  // comes again later with that vector complemented: first wins, so the
  // pair is reported.  A record 10 + i comes again with B record i's
  // vector: its first vector is far from it, so the pair is not.
  std::vector<IdPair> must_match;
  std::vector<IdPair> must_not_match;
  std::vector<EncodedRecord> repeats;
  for (size_t i = 0; i < 10; ++i) {
    from_a[i].bits = from_b[i].bits;
    EncodedRecord complement = from_a[i];
    for (size_t bit = 0; bit < complement.bits.size(); ++bit) {
      if (complement.bits.Test(bit)) {
        complement.bits.Clear(bit);
      } else {
        complement.bits.Set(bit);
      }
    }
    repeats.push_back(std::move(complement));
    must_match.push_back(IdPair{from_a[i].id, from_b[i].id});

    ASSERT_GT(from_a[10 + i].bits.HammingDistance(from_b[i].bits), 16u);
    repeats.push_back(EncodedRecord{from_a[10 + i].id, from_b[i].bits});
    must_not_match.push_back(IdPair{from_a[10 + i].id, from_b[i].id});
  }
  std::vector<EncodedRecord> with_repeats = from_a;
  with_repeats.insert(with_repeats.end(), repeats.begin(), repeats.end());

  Result<LinkageUnit> charlie =
      LinkageUnit::Create(parameters, CharlieOptions());
  ASSERT_TRUE(charlie.ok());
  Result<LinkageResultLite> plain = charlie.value().LinkEncoded(from_a, from_b);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  Result<LinkageResultLite> repeated =
      charlie.value().LinkEncoded(with_repeats, from_b);
  ASSERT_TRUE(repeated.ok()) << repeated.status().ToString();

  const PairSet plain_pairs(plain.value().matches.begin(),
                            plain.value().matches.end());
  const PairSet pairs(repeated.value().matches.begin(),
                      repeated.value().matches.end());
  EXPECT_EQ(pairs.size(), repeated.value().matches.size())
      << "a repeated id is compared once per probe";
  for (const IdPair& p : plain_pairs) EXPECT_TRUE(pairs.contains(p));
  for (const IdPair& p : must_match) {
    EXPECT_TRUE(pairs.contains(p)) << p.a_id << "," << p.b_id;
  }
  for (const IdPair& p : must_not_match) {
    EXPECT_FALSE(pairs.contains(p)) << p.a_id << "," << p.b_id;
  }
}

TEST(ProtocolTest, PinnedPairsLinkageUnit) {
  // Alice and Bob encode a fixed data set under the published
  // parameters; Charlie's pair list (byte for byte, in order), its size
  // and the comparisons behind it are pinned.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  LinkagePairOptions options;
  options.num_records = 2000;
  options.seed = 2016;
  Result<LinkagePair> data =
      BuildLinkagePair(gen.value(), PerturbationScheme::Light(), options);
  ASSERT_TRUE(data.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<DataCustodian> alice = DataCustodian::Create("alice", parameters);
  Result<DataCustodian> bob = DataCustodian::Create("bob", parameters);
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  LinkageUnit::Options unit_options = CharlieOptions();
  unit_options.execution = ExecutionOptions::WithThreads(3);
  Result<LinkageUnit> charlie = LinkageUnit::Create(parameters, unit_options);
  ASSERT_TRUE(charlie.ok());
  Result<LinkageResultLite> result = charlie.value().LinkEncoded(
      alice.value().EncodeRecords(data.value().a).value(),
      bob.value().EncodeRecords(data.value().b).value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches.size(), 1018u);
  EXPECT_EQ(result.value().stats.comparisons, 2269u);
  EXPECT_EQ(HashPairs(result.value().matches), 0x39ef7343246fb92dULL);
  EXPECT_EQ(result.value().blocking_groups, 6u);
}

TEST(ProtocolTest, WidthMismatchRejected) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  Result<LinkageUnit> charlie =
      LinkageUnit::Create(parameters, CharlieOptions());
  ASSERT_TRUE(charlie.ok());
  EncodedRecord wrong;
  wrong.id = 1;
  wrong.bits = BitVector(64);  // not the published 120 bits
  Result<LinkageResultLite> result =
      charlie.value().LinkEncoded({wrong}, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, InvalidRuleRejectedAtCreate) {
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  const LinkageParameters parameters =
      PublishedParameters(gen.value().schema());
  LinkageUnit::Options options = CharlieOptions();
  options.rule = Rule::Pred(9, 4);
  EXPECT_FALSE(LinkageUnit::Create(parameters, options).ok());
}

}  // namespace
}  // namespace cbvlink
