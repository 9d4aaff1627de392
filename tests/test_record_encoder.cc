#include "src/embedding/record_encoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/hashing.h"
#include "src/common/thread_pool.h"
#include "src/embedding/qgram_vector.h"
#include "src/text/normalize.h"
#include "tests/qgram_reference.h"

namespace cbvlink {
namespace {

Schema NcvrLikeSchema() {
  Schema schema;
  const QGramOptions unpadded{.q = 2, .pad = false};
  schema.attributes = {
      {"FirstName", &Alphabet::Uppercase(), unpadded},
      {"LastName", &Alphabet::Uppercase(), unpadded},
      {"Address", &Alphabet::Alphanumeric(), unpadded},
      {"Town", &Alphabet::Uppercase(), unpadded},
  };
  return schema;
}

TEST(RecordLayoutTest, TracksOffsetsAndTotal) {
  RecordLayout layout;
  EXPECT_EQ(layout.Add(15), 0u);
  EXPECT_EQ(layout.Add(15), 1u);
  EXPECT_EQ(layout.Add(68), 2u);
  EXPECT_EQ(layout.Add(22), 3u);
  EXPECT_EQ(layout.total_bits(), 120u);
  EXPECT_EQ(layout.segment(0).offset, 0u);
  EXPECT_EQ(layout.segment(2).offset, 30u);
  EXPECT_EQ(layout.segment(2).size, 68u);
  EXPECT_EQ(layout.segment(3).offset, 98u);
}

TEST(EstimateExpectedQGramsTest, ComputesUnpaddedMeans) {
  const Schema schema = NcvrLikeSchema();
  std::vector<Record> sample = {
      {0, {"JOHN", "SMITH", "12 OAK ST", "CARY"}},
      {1, {"MARY", "JONES", "345 ELM AVE", "APEX"}},
  };
  const std::vector<double> means = EstimateExpectedQGrams(schema, sample);
  ASSERT_EQ(means.size(), 4u);
  EXPECT_DOUBLE_EQ(means[0], 3.0);  // JOHN, MARY both 4 chars -> 3 bigrams
  EXPECT_DOUBLE_EQ(means[1], 4.0);  // SMITH, JONES -> 4 bigrams
  EXPECT_DOUBLE_EQ(means[2], (8.0 + 10.0) / 2.0);
  EXPECT_DOUBLE_EQ(means[3], 3.0);
}

TEST(EstimateExpectedQGramsTest, SkipsShortRecords) {
  const Schema schema = NcvrLikeSchema();
  std::vector<Record> sample = {
      {0, {"JOHN"}},  // too few fields -> skipped
      {1, {"MARY", "JONES", "345 ELM AVE", "APEX"}},
  };
  const std::vector<double> means = EstimateExpectedQGrams(schema, sample);
  EXPECT_DOUBLE_EQ(means[0], 3.0);
}

/// The reference for EstimateExpectedQGrams(): the mean gram count of
/// each attribute's Normalize()d strings.
std::vector<double> NormalizedQGramMeans(const Schema& schema,
                                         const std::vector<Record>& sample) {
  std::vector<double> sums(schema.num_attributes(), 0.0);
  std::vector<size_t> counts(schema.num_attributes(), 0);
  for (const Record& record : sample) {
    if (record.fields.size() < schema.num_attributes()) continue;
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      const AttributeSpec& spec = schema.attributes[i];
      const std::string normalized =
          Normalize(record.fields[i], *spec.alphabet);
      const size_t padded_len =
          normalized.empty() ? 0
                             : normalized.size() + (spec.qgram.pad ? 2 : 0);
      sums[i] += static_cast<double>(
          padded_len < spec.qgram.q ? 0 : padded_len - spec.qgram.q + 1);
      ++counts[i];
    }
  }
  std::vector<double> means(schema.num_attributes(), 0.0);
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (counts[i] > 0) means[i] = sums[i] / static_cast<double>(counts[i]);
  }
  return means;
}

TEST(EstimateExpectedQGramsTest, EqualsNormalizedReferenceOnRawFields) {
  // Raw fields mix lower case, '_', digits, punctuation and bytes >= 0x80,
  // so every alphabet drops some bytes and upper-cases others.  Padding
  // over Uppercase, which lacks '_', is a spec no extractor accepts; the
  // estimate counts it all the same.
  Rng rng(717);
  const Alphabet* alphabets[] = {&Alphabet::Uppercase(),
                                 &Alphabet::UppercasePadded(),
                                 &Alphabet::Alphanumeric()};
  for (const Alphabet* alphabet : alphabets) {
    for (size_t q : {1u, 2u, 3u}) {
      for (bool pad : {false, true}) {
        SCOPED_TRACE(testing::Message() << "alphabet=" << alphabet->symbols()
                                        << " q=" << q << " pad=" << pad);
        Schema schema;
        const QGramOptions options{.q = q, .pad = pad};
        schema.attributes = {{"A", alphabet, options}, {"B", alphabet, options}};
        std::vector<Record> sample(500);
        for (size_t i = 0; i < sample.size(); ++i) {
          sample[i].id = i;
          sample[i].fields = {RandomField(rng), RandomField(rng)};
        }
        const std::vector<double> means = EstimateExpectedQGrams(schema, sample);
        const std::vector<double> want = NormalizedQGramMeans(schema, sample);
        ASSERT_EQ(means.size(), want.size());
        for (size_t i = 0; i < means.size(); ++i) {
          EXPECT_EQ(means[i], want[i]) << "attribute " << i;
        }
      }
    }
  }
}

TEST(CVectorRecordEncoderTest, Table3SizesAndLayout) {
  Rng rng(1);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      NcvrLikeSchema(), {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(encoder.ok()) << encoder.status().ToString();
  EXPECT_EQ(encoder.value().total_bits(), 120u);  // the abstract's claim
  EXPECT_EQ(encoder.value().layout().segment(0).size, 15u);
  EXPECT_EQ(encoder.value().layout().segment(1).size, 15u);
  EXPECT_EQ(encoder.value().layout().segment(2).size, 68u);
  EXPECT_EQ(encoder.value().layout().segment(3).size, 22u);
}

TEST(CVectorRecordEncoderTest, RejectsMismatchedInputs) {
  Rng rng(1);
  EXPECT_FALSE(
      CVectorRecordEncoder::Create(NcvrLikeSchema(), {5.1, 5.0}, rng).ok());
  EXPECT_FALSE(CVectorRecordEncoder::Create(Schema{}, {}, rng).ok());
}

TEST(CVectorRecordEncoderTest, EncodeChecksFieldCount) {
  Rng rng(1);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      NcvrLikeSchema(), {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(encoder.ok());
  Record bad{7, {"JOHN", "SMITH"}};
  EXPECT_FALSE(encoder.value().Encode(bad).ok());
}

TEST(CVectorRecordEncoderTest, EncodeConcatenatesAttributeVectors) {
  Rng rng(2);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      NcvrLikeSchema(), {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(encoder.ok());
  Record record{3, {"John", "Smith", "12 Oak St", "Cary"}};
  Result<EncodedRecord> enc = encoder.value().Encode(record);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc.value().id, 3u);
  EXPECT_EQ(enc.value().bits.size(), 120u);

  // Each segment must equal the standalone attribute encoding.
  for (size_t attr = 0; attr < 4; ++attr) {
    const RecordLayout::Segment& seg = encoder.value().layout().segment(attr);
    const BitVector expected =
        encoder.value().EncodeAttribute(attr, record.fields[attr]);
    EXPECT_EQ(enc.value().bits.Slice(seg.offset, seg.size), expected)
        << "attribute " << attr;
  }
}

TEST(CVectorRecordEncoderTest, AttributeDistanceIsolatesChanges) {
  Rng rng(3);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      NcvrLikeSchema(), {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(encoder.ok());
  Record r1{0, {"JOHN", "SMITH", "12 OAK ST", "CARY"}};
  Record r2{1, {"JOHN", "SMYTH", "12 OAK ST", "CARY"}};  // LastName differs
  const BitVector b1 = encoder.value().Encode(r1).value().bits;
  const BitVector b2 = encoder.value().Encode(r2).value().bits;
  EXPECT_EQ(encoder.value().AttributeDistance(b1, b2, 0), 0u);
  EXPECT_GT(encoder.value().AttributeDistance(b1, b2, 1), 0u);
  EXPECT_EQ(encoder.value().AttributeDistance(b1, b2, 2), 0u);
  EXPECT_EQ(encoder.value().AttributeDistance(b1, b2, 3), 0u);
  // Record-level distance equals the per-attribute sum.
  EXPECT_EQ(b1.HammingDistance(b2),
            encoder.value().AttributeDistance(b1, b2, 1));
}

TEST(BloomRecordEncoderTest, LayoutIsUniform500Bits) {
  Result<BloomRecordEncoder> encoder =
      BloomRecordEncoder::Create(NcvrLikeSchema());
  ASSERT_TRUE(encoder.ok());
  EXPECT_EQ(encoder.value().total_bits(), 2000u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(encoder.value().layout().segment(i).size, 500u);
  }
}

TEST(BloomRecordEncoderTest, EncodeAndAttributeDistance) {
  Result<BloomRecordEncoder> encoder =
      BloomRecordEncoder::Create(NcvrLikeSchema());
  ASSERT_TRUE(encoder.ok());
  Record r1{0, {"JOHN", "SMITH", "12 OAK ST", "CARY"}};
  Record r2{1, {"JAHN", "SMITH", "12 OAK ST", "CARY"}};
  const BitVector b1 = encoder.value().Encode(r1).value().bits;
  const BitVector b2 = encoder.value().Encode(r2).value().bits;
  EXPECT_GT(encoder.value().AttributeDistance(b1, b2, 0), 0u);
  EXPECT_EQ(encoder.value().AttributeDistance(b1, b2, 1), 0u);
  EXPECT_FALSE(encoder.value().Encode({2, {"TOO", "FEW"}}).ok());
}

TEST(BloomRecordEncoderTest, RejectsEmptySchema) {
  EXPECT_FALSE(BloomRecordEncoder::Create(Schema{}).ok());
}

// --- EncodeAll determinism: byte-identical to serial at any thread count.

std::vector<Record> SyntheticRecords(size_t n) {
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back({static_cast<RecordId>(i),
                       {"NAME" + std::to_string(i % 97),
                        "LAST" + std::to_string(i % 53),
                        std::to_string(i) + " OAK ST",
                        "TOWN" + std::to_string(i % 11)}});
  }
  return records;
}

void ExpectSameEncodings(const std::vector<EncodedRecord>& actual,
                         const std::vector<EncodedRecord>& expected,
                         size_t threads) {
  ASSERT_EQ(actual.size(), expected.size()) << threads << " threads";
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].id, expected[i].id)
        << "record " << i << " at " << threads << " threads";
    ASSERT_EQ(actual[i].bits, expected[i].bits)
        << "record " << i << " at " << threads << " threads";
  }
}

TEST(EncodeAllParallelTest, CVectorByteIdenticalAcrossThreadCounts) {
  Rng rng(11);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      NcvrLikeSchema(), {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Record> records = SyntheticRecords(500);

  Result<std::vector<EncodedRecord>> serial = encoder.value().EncodeAll(records);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial.value().size(), records.size());

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    Result<std::vector<EncodedRecord>> parallel =
        encoder.value().EncodeAll(records, &pool);
    ASSERT_TRUE(parallel.ok());
    ExpectSameEncodings(parallel.value(), serial.value(), threads);
  }
}

TEST(EncodeAllParallelTest, BloomByteIdenticalAcrossThreadCounts) {
  Result<BloomRecordEncoder> encoder =
      BloomRecordEncoder::Create(NcvrLikeSchema());
  ASSERT_TRUE(encoder.ok());
  const std::vector<Record> records = SyntheticRecords(300);

  Result<std::vector<EncodedRecord>> serial = encoder.value().EncodeAll(records);
  ASSERT_TRUE(serial.ok());

  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    Result<std::vector<EncodedRecord>> parallel =
        encoder.value().EncodeAll(records, &pool);
    ASSERT_TRUE(parallel.ok());
    ExpectSameEncodings(parallel.value(), serial.value(), threads);
  }
}

TEST(EncodeAllParallelTest, ChunkSizeHintDoesNotChangeOutput) {
  Rng rng(12);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      NcvrLikeSchema(), {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(encoder.ok());
  const std::vector<Record> records = SyntheticRecords(200);
  Result<std::vector<EncodedRecord>> serial = encoder.value().EncodeAll(records);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(4);
  for (size_t min_chunk : {1u, 7u, 64u, 1000u}) {
    Result<std::vector<EncodedRecord>> parallel =
        encoder.value().EncodeAll(records, &pool, min_chunk);
    ASSERT_TRUE(parallel.ok());
    ExpectSameEncodings(parallel.value(), serial.value(), min_chunk);
  }
}

TEST(EncodeAllParallelTest, EmptyAndSingleRecordInputs) {
  Rng rng(13);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      NcvrLikeSchema(), {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(encoder.ok());
  ThreadPool pool(4);

  Result<std::vector<EncodedRecord>> empty =
      encoder.value().EncodeAll(std::span<const Record>{}, &pool);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  const std::vector<Record> one = SyntheticRecords(1);
  Result<std::vector<EncodedRecord>> single =
      encoder.value().EncodeAll(one, &pool);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single.value().size(), 1u);
  EXPECT_EQ(single.value()[0].bits, encoder.value().Encode(one[0]).value().bits);
}

TEST(CVectorRecordEncoderTest, EncodeRowWritesEncodeBitsAndZeroPadding) {
  // A row is exactly Encode()'s words; no bit at or past total_bits() is
  // set (the whole-word kernels rely on it), and nothing past the row's
  // words_per_record() words is touched.  A malformed record fails as
  // Encode does and leaves the row as it was.
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
        NcvrLikeSchema(), {5.1, 5.0, 20.0 + static_cast<double>(seed), 7.2},
        rng);
    ASSERT_TRUE(encoder.ok());
    const size_t bits = encoder.value().total_bits();
    const size_t words = encoder.value().words_per_record();
    ASSERT_EQ(words, (bits + 63) / 64);
    for (const Record& record : SyntheticRecords(60)) {
      std::vector<uint64_t> row(words + 1, 0);
      ASSERT_TRUE(encoder.value().EncodeRow(record, row.data()).ok());
      EXPECT_EQ(std::vector<uint64_t>(row.begin(), row.begin() + words),
                encoder.value().Encode(record).value().bits.words());
      if (bits % 64 != 0) {
        EXPECT_EQ(row[words - 1] >> (bits % 64), 0u) << "record " << record.id;
      }
      EXPECT_EQ(row[words], 0u) << "record " << record.id;
    }
    std::vector<uint64_t> row(words, 0);
    const Record bad{9, {"TOO", "FEW"}};
    const Status status = encoder.value().EncodeRow(bad, row.data());
    EXPECT_EQ(status.ToString(),
              encoder.value().Encode(bad).status().ToString());
    EXPECT_EQ(status.ToString(),
              encoder.value().CheckRecord(bad).ToString());
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(row, std::vector<uint64_t>(words, 0));
  }
}

TEST(EncodeAllParallelTest, ParallelErrorMatchesSerialError) {
  // A malformed record must yield the same (first-in-order) error at any
  // thread count.
  Rng rng(14);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      NcvrLikeSchema(), {5.1, 5.0, 20.0, 7.2}, rng);
  ASSERT_TRUE(encoder.ok());
  std::vector<Record> records = SyntheticRecords(100);
  records[40].fields.pop_back();  // first bad record
  records[90].fields.pop_back();  // a later one in another chunk

  Result<std::vector<EncodedRecord>> serial = encoder.value().EncodeAll(records);
  ASSERT_FALSE(serial.ok());
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    Result<std::vector<EncodedRecord>> parallel =
        encoder.value().EncodeAll(records, &pool);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status().ToString(), serial.status().ToString())
        << threads << " threads";
  }
}

// --- Differential: the one-pass encoders against a step-by-step reference
// built from Normalize, Grams, GramIndex, g and the Bloom positions.

BitVector ReferenceCVector(const CVectorEncoder& encoder,
                           std::string_view raw) {
  BitVector bv(encoder.vector_size());
  for (uint64_t ind : ReferenceIndexes(encoder.extractor(), raw)) {
    bv.Set(static_cast<size_t>(encoder.hash()(ind)));
  }
  return bv;
}

BitVector ReferenceBloom(const BloomFilterEncoder& encoder,
                         const BloomFilterOptions& options,
                         std::string_view raw) {
  const BloomHashFamily family(options.num_hashes, options.num_bits,
                               options.seed);
  BitVector bv(options.num_bits);
  std::vector<size_t> positions;
  for (uint64_t ind : ReferenceIndexes(encoder.extractor(), raw)) {
    positions.clear();
    family.Positions(ind, &positions);
    for (size_t pos : positions) bv.Set(pos);
  }
  return bv;
}

BitVector ReferenceQGramVector(const QGramExtractor& e, std::string_view raw) {
  BitVector bv(static_cast<size_t>(e.IndexSpaceSize()));
  for (uint64_t ind : ReferenceIndexes(e, raw)) bv.Set(static_cast<size_t>(ind));
  return bv;
}

struct EncodingConfig {
  size_t q;
  bool pad;
};

constexpr EncodingConfig kEncodingConfigs[] = {
    {1, false}, {2, false}, {3, false}, {1, true}, {2, true}, {3, true}};

/// Four attributes over the paper's three alphabets; Uppercase only when
/// unpadded, since padding needs the '_' symbol.
Schema DifferentialSchema(EncodingConfig config) {
  const QGramOptions options{.q = config.q, .pad = config.pad};
  const Alphabet* names =
      config.pad ? &Alphabet::UppercasePadded() : &Alphabet::Uppercase();
  Schema schema;
  schema.attributes = {{"FirstName", names, options},
                       {"LastName", &Alphabet::UppercasePadded(), options},
                       {"Address", &Alphabet::Alphanumeric(), options},
                       {"Town", names, options}};
  return schema;
}

std::vector<Record> RandomRecords(size_t n, size_t num_fields, Rng& rng) {
  std::vector<Record> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].id = i;
    for (size_t f = 0; f < num_fields; ++f) {
      records[i].fields.push_back(RandomField(rng));
    }
  }
  return records;
}

TEST(EncoderDifferentialTest, AttributeEncodersMatchReference) {
  Rng rng(714);
  const BloomFilterOptions bloom_options{.num_bits = 97, .num_hashes = 5};
  for (const EncodingConfig config : kEncodingConfigs) {
    for (const AttributeSpec& spec : DifferentialSchema(config).attributes) {
      SCOPED_TRACE(testing::Message()
                   << "alphabet=" << spec.alphabet->symbols()
                   << " q=" << config.q << " pad=" << config.pad);
      Result<QGramExtractor> extractor =
          QGramExtractor::Create(*spec.alphabet, spec.qgram);
      ASSERT_TRUE(extractor.ok());
      Result<CVectorEncoder> cvector =
          CVectorEncoder::CreateWithSize(extractor.value(), 41, rng);
      Result<BloomFilterEncoder> bloom =
          BloomFilterEncoder::Create(extractor.value(), bloom_options);
      Result<QGramVectorEncoder> full =
          QGramVectorEncoder::Create(extractor.value());
      ASSERT_TRUE(cvector.ok() && bloom.ok() && full.ok());
      for (int i = 0; i < 300; ++i) {
        const std::string raw = RandomField(rng);
        ASSERT_EQ(cvector.value().Encode(raw),
                  ReferenceCVector(cvector.value(), raw))
            << "raw=" << raw;
        ASSERT_EQ(bloom.value().Encode(raw),
                  ReferenceBloom(bloom.value(), bloom_options, raw))
            << "raw=" << raw;
        ASSERT_EQ(full.value().Encode(raw),
                  ReferenceQGramVector(extractor.value(), raw))
            << "raw=" << raw;
      }
    }
  }
}

TEST(EncoderDifferentialTest, GramTableMatchesReferenceOnEveryBigram) {
  // The strings of one and two symbols reach every bigram index a value
  // can produce, so each table entry an encoder can read is checked
  // against g.  Normalize() drops '_', so unpadded encoders reach the
  // bigrams of the other symbols; padded ones reach all but "__".
  Rng rng(718);
  const Alphabet* alphabets[] = {&Alphabet::Uppercase(),
                                 &Alphabet::UppercasePadded(),
                                 &Alphabet::Alphanumeric()};
  for (const Alphabet* alphabet : alphabets) {
    const std::string& symbols = alphabet->symbols();
    std::vector<std::string> values;
    for (const char a : symbols) {
      values.emplace_back(1, a);
      for (const char b : symbols) values.push_back(std::string{a, b});
    }
    const bool has_pad = alphabet->Contains(kPadChar);
    for (bool pad : {false, true}) {
      if (pad && !has_pad) continue;
      SCOPED_TRACE(testing::Message()
                   << "alphabet=" << symbols << " pad=" << pad);
      Result<QGramExtractor> extractor =
          QGramExtractor::Create(*alphabet, {.q = 2, .pad = pad});
      ASSERT_TRUE(extractor.ok());
      ASSERT_LE(extractor.value().IndexSpaceSize(),
                CVectorEncoder::kMaxTableEntries);
      Result<CVectorEncoder> encoder =
          CVectorEncoder::CreateWithSize(extractor.value(), 97, rng);
      ASSERT_TRUE(encoder.ok());
      std::vector<bool> reached(extractor.value().IndexSpaceSize(), false);
      for (const std::string& value : values) {
        ASSERT_EQ(encoder.value().Encode(value),
                  ReferenceCVector(encoder.value(), value))
            << "value=" << value;
        extractor.value().ForEachIndex(
            value, [&](uint64_t ind) { reached[ind] = true; });
      }
      const size_t kept = symbols.size() - (has_pad ? 1 : 0);
      EXPECT_EQ(static_cast<size_t>(
                    std::count(reached.begin(), reached.end(), true)),
                pad ? reached.size() - 1 : kept * kept);
    }
  }
}

TEST(EncoderDifferentialTest, AboveTableBoundMatchesReference) {
  // |S|^q past kMaxTableEntries: the encoder evaluates g per gram.
  Rng rng(719);
  const struct {
    const Alphabet* alphabet;
    QGramOptions options;
  } configs[] = {
      {&Alphabet::Alphanumeric(), {.q = 4, .pad = false}},
      {&Alphabet::Alphanumeric(), {.q = 4, .pad = true}},
      {&Alphabet::UppercasePadded(), {.q = 4, .pad = true}},
      {&Alphabet::Uppercase(), {.q = 5, .pad = false}},
  };
  for (const auto& config : configs) {
    SCOPED_TRACE(testing::Message()
                 << "alphabet=" << config.alphabet->symbols()
                 << " q=" << config.options.q << " pad=" << config.options.pad);
    Result<QGramExtractor> extractor =
        QGramExtractor::Create(*config.alphabet, config.options);
    ASSERT_TRUE(extractor.ok());
    ASSERT_GT(extractor.value().IndexSpaceSize(),
              CVectorEncoder::kMaxTableEntries);
    Result<CVectorEncoder> encoder =
        CVectorEncoder::Create(extractor.value(), 20.0, rng);
    ASSERT_TRUE(encoder.ok());
    for (int i = 0; i < 300; ++i) {
      const std::string raw = RandomField(rng);
      ASSERT_EQ(encoder.value().Encode(raw),
                ReferenceCVector(encoder.value(), raw))
          << "raw=" << raw;
    }
  }
}

TEST(EncoderDifferentialTest, CopiedEncoderEncodesAsItsSource) {
  // A copy owns its gram -> bit table: it encodes as its source did, also
  // after the source is gone.
  Rng rng(720);
  const std::vector<Record> records = RandomRecords(300, 4, rng);
  for (const EncodingConfig config : kEncodingConfigs) {
    SCOPED_TRACE(testing::Message() << "q=" << config.q << " pad=" << config.pad);
    std::optional<CVectorRecordEncoder> source = CVectorRecordEncoder::Create(
        DifferentialSchema(config), {5.1, 5.0, 20.0, 7.2}, rng).value();
    std::vector<BitVector> want;
    for (const Record& record : records) {
      want.push_back(source->Encode(record).value().bits);
    }
    const CVectorRecordEncoder copy = *source;
    const CVectorEncoder attribute_copy = source->attribute_encoder(2);
    std::vector<BitVector> attribute_want;
    for (const Record& record : records) {
      attribute_want.push_back(
          source->attribute_encoder(2).Encode(record.fields[2]));
    }
    source.reset();
    for (size_t r = 0; r < records.size(); ++r) {
      ASSERT_EQ(copy.Encode(records[r]).value().bits, want[r]) << "record " << r;
      ASSERT_EQ(attribute_copy.Encode(records[r].fields[2]), attribute_want[r])
          << "record " << r;
    }
  }
}

/// The record vector as the concatenation of per-attribute references.
template <typename RecordEncoder, typename Reference>
void ExpectRecordsMatchReference(const RecordEncoder& encoder,
                                 const std::vector<Record>& records,
                                 const Reference& reference) {
  Result<std::vector<EncodedRecord>> serial = encoder.EncodeAll(records);
  ThreadPool pool(4);
  Result<std::vector<EncodedRecord>> parallel =
      encoder.EncodeAll(records, &pool);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  for (size_t r = 0; r < records.size(); ++r) {
    BitVector expected;
    for (size_t attr = 0; attr < records[r].fields.size(); ++attr) {
      expected.Append(reference(encoder.attribute_encoder(attr),
                                records[r].fields[attr]));
    }
    ASSERT_EQ(expected.size(), encoder.total_bits());
    ASSERT_EQ(serial.value()[r].bits, expected) << "record " << r << " serial";
    ASSERT_EQ(parallel.value()[r].bits, expected)
        << "record " << r << " at 4 threads";
    ASSERT_EQ(encoder.Encode(records[r]).value().bits, expected)
        << "record " << r;
  }
}

TEST(EncoderDifferentialTest, CVectorRecordsMatchReference) {
  Rng rng(715);
  for (const EncodingConfig config : kEncodingConfigs) {
    SCOPED_TRACE(testing::Message() << "q=" << config.q << " pad=" << config.pad);
    Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
        DifferentialSchema(config), {5.1, 5.0, 20.0, 7.2}, rng);
    ASSERT_TRUE(encoder.ok());
    const std::vector<Record> records = RandomRecords(400, 4, rng);
    ExpectRecordsMatchReference(encoder.value(), records, ReferenceCVector);
    for (size_t attr = 0; attr < 4; ++attr) {
      ASSERT_EQ(encoder.value().EncodeAttribute(attr, records[0].fields[attr]),
                ReferenceCVector(encoder.value().attribute_encoder(attr),
                                 records[0].fields[attr]));
    }
  }
}

TEST(EncoderDifferentialTest, BloomRecordsMatchReference) {
  Rng rng(716);
  const BloomFilterOptions options{.num_bits = 130, .num_hashes = 7};
  for (const EncodingConfig config : kEncodingConfigs) {
    SCOPED_TRACE(testing::Message() << "q=" << config.q << " pad=" << config.pad);
    Result<BloomRecordEncoder> encoder =
        BloomRecordEncoder::Create(DifferentialSchema(config), options);
    ASSERT_TRUE(encoder.ok());
    ExpectRecordsMatchReference(
        encoder.value(), RandomRecords(200, 4, rng),
        [&](const BloomFilterEncoder& attr, std::string_view raw) {
          return ReferenceBloom(attr, options, raw);
        });
  }
}

}  // namespace
}  // namespace cbvlink
