#include "src/io/serialization.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/common/crc32.h"
#include "src/common/random.h"

namespace cbvlink {
namespace {

EncodedRecord MakeRecord(RecordId id, size_t bits, uint64_t seed) {
  EncodedRecord r;
  r.id = id;
  r.bits = BitVector(bits);
  Rng rng(seed);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(0.3)) r.bits.Set(i);
  }
  return r;
}

TEST(SerializationTest, RoundTripEmpty) {
  std::stringstream stream;
  ASSERT_TRUE(WriteEncodedRecords({}, stream).ok());
  Result<std::vector<EncodedRecord>> loaded = ReadEncodedRecords(stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(SerializationTest, RoundTrip120BitRecords) {
  std::vector<EncodedRecord> records;
  for (RecordId id = 0; id < 50; ++id) {
    records.push_back(MakeRecord(id, 120, id * 7 + 1));
  }
  std::stringstream stream;
  ASSERT_TRUE(WriteEncodedRecords(records, stream).ok());
  Result<std::vector<EncodedRecord>> loaded = ReadEncodedRecords(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(loaded.value()[i].id, records[i].id);
    EXPECT_EQ(loaded.value()[i].bits, records[i].bits);
  }
}

TEST(SerializationTest, RoundTripOddWidths) {
  for (const size_t bits : {1u, 63u, 64u, 65u, 127u, 128u, 267u}) {
    std::vector<EncodedRecord> records{MakeRecord(9, bits, 3)};
    std::stringstream stream;
    ASSERT_TRUE(WriteEncodedRecords(records, stream).ok()) << bits;
    Result<std::vector<EncodedRecord>> loaded = ReadEncodedRecords(stream);
    ASSERT_TRUE(loaded.ok()) << bits;
    EXPECT_EQ(loaded.value()[0].bits, records[0].bits) << bits;
  }
}

TEST(SerializationTest, WidthMismatchRejected) {
  std::vector<EncodedRecord> records{MakeRecord(1, 120, 1),
                                     MakeRecord(2, 64, 2)};
  std::stringstream stream;
  EXPECT_FALSE(WriteEncodedRecords(records, stream).ok());
}

TEST(SerializationTest, ForeignMagicRejected) {
  std::stringstream stream;
  stream << "this is not a cbvlink file at all";
  Result<std::vector<EncodedRecord>> loaded = ReadEncodedRecords(stream);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, TruncationDetected) {
  std::vector<EncodedRecord> records;
  for (RecordId id = 0; id < 10; ++id) {
    records.push_back(MakeRecord(id, 120, id + 1));
  }
  std::stringstream stream;
  ASSERT_TRUE(WriteEncodedRecords(records, stream).ok());
  const std::string full = stream.str();
  // Cut the payload in the middle of a record.
  std::stringstream cut(full.substr(0, full.size() / 2));
  Result<std::vector<EncodedRecord>> loaded = ReadEncodedRecords(cut);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(SerializationTest, TruncatedHeaderDetected) {
  std::stringstream cut("CB");
  EXPECT_EQ(ReadEncodedRecords(cut).status().code(), StatusCode::kIOError);
}

TEST(SerializationTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/records.cbv";
  std::vector<EncodedRecord> records{MakeRecord(5, 120, 11),
                                     MakeRecord(6, 120, 12)};
  ASSERT_TRUE(WriteEncodedRecordsToFile(records, path).ok());
  Result<std::vector<EncodedRecord>> loaded =
      ReadEncodedRecordsFromFile(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[1].bits, records[1].bits);
}

TEST(SerializationTest, FileErrorsSurfaceAsIOError) {
  EXPECT_EQ(WriteEncodedRecordsToFile({}, "/nonexistent_dir/x.cbv").code(),
            StatusCode::kIOError);
  EXPECT_EQ(ReadEncodedRecordsFromFile("/nonexistent_dir/x.cbv")
                .status()
                .code(),
            StatusCode::kIOError);
}

TEST(SerializationTest, ServiceSnapshotRoundTrip) {
  ServiceSnapshot snapshot;
  snapshot.attributes = {
      {"LastName", "ABCDEFGHIJKLMNOPQRSTUVWXYZ_", 2, false},
      {"FirstName", "ABCDEFGHIJKLMNOPQRSTUVWXYZ_", 3, true},
  };
  snapshot.expected_qgrams = {5.1, 7.25};
  snapshot.rule_text = "((f1 <= 4) AND (f2 <= 8))";
  snapshot.record_K = 25;
  snapshot.record_theta = 3;
  snapshot.delta = 0.05;
  snapshot.sizing_max_collisions = 2.0;
  snapshot.sizing_confidence_ratio = 0.25;
  snapshot.seed = 99;
  snapshot.max_bucket_size = 128;
  snapshot.overflow_policy = 1;
  for (RecordId id = 0; id < 10; ++id) {
    snapshot.records.push_back(MakeRecord(id, 40, id + 1));
  }

  std::stringstream stream;
  ASSERT_TRUE(WriteServiceSnapshot(snapshot, stream).ok());
  Result<ServiceSnapshot> loaded = ReadServiceSnapshot(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ServiceSnapshot& got = loaded.value();
  ASSERT_EQ(got.attributes.size(), 2u);
  EXPECT_EQ(got.attributes[0].name, "LastName");
  EXPECT_EQ(got.attributes[1].alphabet_symbols,
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ_");
  EXPECT_EQ(got.attributes[1].qgram_q, 3u);
  EXPECT_TRUE(got.attributes[1].qgram_pad);
  EXPECT_FALSE(got.attributes[0].qgram_pad);
  EXPECT_EQ(got.expected_qgrams, snapshot.expected_qgrams);
  EXPECT_EQ(got.rule_text, snapshot.rule_text);
  EXPECT_EQ(got.record_K, 25u);
  EXPECT_EQ(got.record_theta, 3u);
  EXPECT_DOUBLE_EQ(got.delta, 0.05);
  EXPECT_DOUBLE_EQ(got.sizing_max_collisions, 2.0);
  EXPECT_DOUBLE_EQ(got.sizing_confidence_ratio, 0.25);
  EXPECT_EQ(got.seed, 99u);
  EXPECT_EQ(got.max_bucket_size, 128u);
  EXPECT_EQ(got.overflow_policy, 1u);
  ASSERT_EQ(got.records.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(got.records[i].bits, snapshot.records[i].bits);
  }
}

TEST(SerializationTest, ServiceSnapshotForeignMagicRejected) {
  std::stringstream stream;
  ASSERT_TRUE(WriteEncodedRecords({}, stream).ok());
  Result<ServiceSnapshot> loaded = ReadServiceSnapshot(stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, ServiceSnapshotTruncationDetected) {
  ServiceSnapshot snapshot;
  snapshot.attributes = {{"f1", "ABC_", 2, true}};
  snapshot.expected_qgrams = {4.0};
  snapshot.rule_text = "f1 <= 4";
  snapshot.records.push_back(MakeRecord(1, 16, 5));
  std::stringstream stream;
  ASSERT_TRUE(WriteServiceSnapshot(snapshot, stream).ok());
  const std::string full = stream.str();
  for (const size_t cut : {size_t{4}, size_t{40}, full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(ReadServiceSnapshot(truncated).ok()) << "cut=" << cut;
  }
}

TEST(SerializationTest, WireCostMatchesPaperClaim) {
  // A 120-bit NCVR record costs 8 (id) + 16 (two words) bytes on the
  // wire, versus tens of bytes of raw strings — the compactness claim.
  // The v2 container adds a fixed 4-byte CRC32C trailer per file.
  std::vector<EncodedRecord> records{MakeRecord(1, 120, 1)};
  std::stringstream stream;
  ASSERT_TRUE(WriteEncodedRecords(records, stream).ok());
  const size_t header = 4 + 4 + 8 + 8;
  const size_t trailer = 4;
  EXPECT_EQ(stream.str().size(), header + 8 + 16 + trailer);
}

TEST(SerializationTest, OnDiskByteLayoutIsPinned) {
  // Regression for the reader/writer word-layout contract: bit i of a
  // record lives at bit (i % 64) of little-endian word (i / 64), exactly
  // as BitVector::words() stores it. A layout change would silently
  // corrupt every snapshot in the field, so the bytes are pinned here.
  EncodedRecord record;
  record.id = 9;
  record.bits = BitVector(67);
  record.bits.Set(0);
  record.bits.Set(2);
  record.bits.Set(64);  // second word, bit 0
  record.bits.Set(66);  // second word, bit 2
  std::stringstream stream;
  ASSERT_TRUE(WriteEncodedRecords({record}, stream).ok());
  const std::string bytes = stream.str();

  const auto le32 = [](uint32_t v) {
    std::string s(4, '\0');
    for (int i = 0; i < 4; ++i) s[i] = static_cast<char>(v >> (8 * i));
    return s;
  };
  const auto le64 = [](uint64_t v) {
    std::string s(8, '\0');
    for (int i = 0; i < 8; ++i) s[i] = static_cast<char>(v >> (8 * i));
    return s;
  };
  std::string expected;
  expected += "CBVL";                  // magic
  expected += le32(2);                 // format version
  expected += le64(1);                 // record count
  expected += le64(67);                // bits per record
  expected += le64(9);                 // record id
  expected += le64(0b101);             // word 0: bits 0 and 2
  expected += le64(0b101);             // word 1: bits 64 and 66
  expected += le32(Crc32c(expected.data(), expected.size()));
  EXPECT_EQ(bytes, expected);

  // And the reader reconstructs the identical BitVector from it.
  std::stringstream in(bytes);
  Result<std::vector<EncodedRecord>> loaded = ReadEncodedRecords(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()[0].bits, record.bits);
  ASSERT_EQ(record.bits.words().size(), 2u);
  EXPECT_EQ(record.bits.words()[0], 0b101u);
  EXPECT_EQ(record.bits.words()[1], 0b101u);
}

TEST(SerializationTest, AtomicFileWriteLeavesNoTemp) {
  const std::string path = testing::TempDir() + "/atomic_records.cbv";
  std::vector<EncodedRecord> records{MakeRecord(5, 120, 11)};
  ASSERT_TRUE(WriteEncodedRecordsToFile(records, path).ok());
  std::ifstream tmp(AtomicTempPath(path), std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "temp file survived a successful commit";
  ASSERT_TRUE(ReadEncodedRecordsFromFile(path).ok());
}

}  // namespace
}  // namespace cbvlink
