// Corruption sweep + crash-safety harness for the durable snapshot
// format (ISSUE 2 acceptance criteria): every truncation and every
// single-byte flip of a valid file must come back as a non-OK Status —
// never a crash, hang, or unbounded allocation — and a failpoint-killed
// save must never lose the previous good snapshot.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/failpoint.h"
#include "src/common/random.h"
#include "src/datagen/generators.h"
#include "src/io/serialization.h"
#include "src/service/linkage_service.h"
#include "tests/legacy_snapshot.h"

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

// A small but fully populated snapshot (every block type non-empty) so
// the byte sweeps cover each section of the format.
ServiceSnapshot ReferenceSnapshot() {
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
  snapshot.seed = 99;
  snapshot.max_bucket_size = 128;
  snapshot.overflow_policy = 1;
  for (RecordId id = 0; id < 10; ++id) {
    snapshot.records.push_back(MakeRecord(id, 70, id + 1));
  }
  snapshot.tombstones = {20, 21};
  snapshot.last_sequence = 5;
  return snapshot;
}

std::string SerializeSnapshot(const ServiceSnapshot& snapshot) {
  std::ostringstream out;
  EXPECT_TRUE(WriteServiceSnapshot(snapshot, out).ok());
  return out.str();
}

Status ReadSnapshotBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return ReadServiceSnapshot(in).status();
}

Status ReadRecordBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return ReadEncodedRecords(in).status();
}

TEST(CorruptionSweepTest, SnapshotTruncatedAtEveryOffsetIsRejected) {
  const std::string full = SerializeSnapshot(ReferenceSnapshot());
  ASSERT_GT(full.size(), 100u);
  ASSERT_TRUE(ReadSnapshotBytes(full).ok());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const Status st = ReadSnapshotBytes(full.substr(0, cut));
    EXPECT_FALSE(st.ok()) << "truncation at offset " << cut
                          << " was accepted";
  }
}

TEST(CorruptionSweepTest, SnapshotByteFlipAtEveryOffsetIsRejected) {
  const std::string full = SerializeSnapshot(ReferenceSnapshot());
  // CRC32C detects every single-byte error, so all of these — including
  // flips inside the trailer itself — must fail; the hard caps keep
  // flipped length fields from demanding huge allocations on the way.
  for (size_t i = 0; i < full.size(); ++i) {
    for (const unsigned char delta : {0x01, 0x80, 0xFF}) {
      std::string corrupt = full;
      corrupt[i] = static_cast<char>(corrupt[i] ^ delta);
      const Status st = ReadSnapshotBytes(corrupt);
      EXPECT_FALSE(st.ok())
          << "flip ^" << int{delta} << " at offset " << i << " was accepted";
    }
  }
}

TEST(CorruptionSweepTest, LegacyV3SnapshotSweep) {
  // A version 3 file still passes its num_shards and bucket section
  // through the caps and the checksum before the reader drops them.
  const std::string full = LegacyV3SnapshotBytes(
      ReferenceSnapshot(), 8,
      {{0, 0x1234, false, {1, 2, 3}}, {2, 0xffff, true, {7}}});
  std::istringstream in(full);
  Result<ServiceSnapshot> read = ReadServiceSnapshot(in);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().records.size(), 10u);
  EXPECT_EQ(read.value().tombstones, (std::vector<RecordId>{20, 21}));
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(ReadSnapshotBytes(full.substr(0, cut)).ok()) << cut;
  }
  for (size_t i = 0; i < full.size(); ++i) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    EXPECT_FALSE(ReadSnapshotBytes(corrupt).ok()) << i;
  }
}

TEST(CorruptionSweepTest, RecordFileSweep) {
  std::vector<EncodedRecord> records;
  for (RecordId id = 0; id < 12; ++id) {
    records.push_back(MakeRecord(id, 120, id * 3 + 1));
  }
  std::ostringstream out;
  ASSERT_TRUE(WriteEncodedRecords(records, out).ok());
  const std::string full = out.str();
  ASSERT_TRUE(ReadRecordBytes(full).ok());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(ReadRecordBytes(full.substr(0, cut)).ok()) << cut;
  }
  for (size_t i = 0; i < full.size(); ++i) {
    std::string corrupt = full;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    EXPECT_FALSE(ReadRecordBytes(corrupt).ok()) << i;
  }
}

TEST(CorruptionSweepTest, AdversarialLengthFieldsAreCappedNotAllocated) {
  // Hand-craft headers whose length fields demand absurd allocations;
  // the reader must reject them (quickly) instead of resize()-ing.
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
  const std::string record_magic = le32(0x4c564243);
  const std::string snapshot_magic = le32(0x53564243);
  const std::string v2 = le32(2);

  // Record file claiming 2^62 records of 2^61 bits each.
  EXPECT_EQ(ReadRecordBytes(record_magic + v2 + le64(uint64_t{1} << 62) +
                            le64(uint64_t{1} << 61))
                .code(),
            StatusCode::kInvalidArgument);
  // Record file with a plausible width but an impossible count for the
  // stream's actual size: bounds-checked as truncation.
  EXPECT_FALSE(
      ReadRecordBytes(record_magic + v2 + le64(uint64_t{1} << 40) + le64(120))
          .ok());
  // Snapshot whose rule string claims 4 GiB.
  std::string snap = snapshot_magic + v2;
  for (int i = 0; i < 3; ++i) snap += le64(1);       // seed, K, theta
  for (int i = 0; i < 3; ++i) snap += le64(0x3FE0000000000000ull);  // doubles
  snap += le64(16) + le64(0) + le32(0);              // shards, cap, policy
  snap += le32(0xFFFFFFFFu);                         // rule length
  EXPECT_FALSE(ReadSnapshotBytes(snap).ok());
}

TEST(CorruptionSweepTest, LegacyV1FilesStillReadable) {
  // A version-1 encoded-record file (no CRC trailer), byte-for-byte as
  // the PR-1 writer produced it: one 3-bit record {id=9, bits=101}.
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
  const std::string v1_file = le32(0x4c564243) + le32(1) + le64(1) + le64(3) +
                              le64(9) + le64(0b101);
  std::istringstream in(v1_file);
  Result<std::vector<EncodedRecord>> loaded = ReadEncodedRecords(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].id, 9u);
  EXPECT_TRUE(loaded.value()[0].bits.Test(0));
  EXPECT_FALSE(loaded.value()[0].bits.Test(1));
  EXPECT_TRUE(loaded.value()[0].bits.Test(2));

  // v1 had no checksum, but padding bits past the declared width are
  // still rejected — the only hard corruption signal v1 carries.
  const std::string bad_padding = le32(0x4c564243) + le32(1) + le64(1) +
                                  le64(3) + le64(9) + le64(0b1101);
  std::istringstream bad(bad_padding);
  EXPECT_EQ(ReadEncodedRecords(bad).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Crash safety of SaveSnapshotToFile -------------------------------

class KillDuringSaveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::DeactivateAll();
    Result<NcvrGenerator> gen = NcvrGenerator::Create();
    ASSERT_TRUE(gen.ok());
    CbvHbConfig config;
    config.schema = gen.value().schema();
    config.rule = Rule::And({Rule::Pred(0, 4), Rule::Pred(1, 4),
                             Rule::Pred(2, 4), Rule::Pred(3, 4)});
    config.record_K = 30;
    config.record_theta = 4;
    config.expected_qgrams = {5.1, 5.0, 20.0, 7.2};
    config.seed = 5;
    Result<std::unique_ptr<LinkageService>> created =
        LinkageService::Create(config);
    ASSERT_TRUE(created.ok());
    service_ = std::move(created).value();
    Rng rng(1);
    for (size_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(service_->Insert(gen.value().Generate(i, rng)).ok());
    }
    // One path per test and process: ctest -j runs the tests of this
    // fixture concurrently, and a shared path lets one test's saves and
    // removals land in the other's snapshot.
    path_ = testing::TempDir() + "/kill_during_save_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(getpid()) + ".cbvs";
    RemoveFiles();
  }

  void TearDown() override {
    Failpoints::DeactivateAll();
    RemoveFiles();
  }

  void RemoveFiles() const {
    std::remove(path_.c_str());
    std::remove(AtomicTempPath(path_).c_str());
    std::remove(SnapshotBackupPath(path_).c_str());
  }

  std::unique_ptr<LinkageService> service_;
  std::string path_;
};

TEST_F(KillDuringSaveTest, FailureAtEverySaveStepKeepsPreviousSnapshot) {
  ASSERT_TRUE(service_->SaveSnapshotToFile(path_).ok());
  const size_t good_size = service_->size();

  // Grow the service so a lost save would be observable.
  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(2);
  for (size_t i = 100; i < 110; ++i) {
    ASSERT_TRUE(service_->Insert(gen.value().Generate(i, rng)).ok());
  }

  const char* kSites[] = {"io.write_snapshot", "io.atomic.open",
                          "io.atomic.write", "io.atomic.fsync",
                          "io.atomic.rename"};
  for (const char* site : kSites) {
    Failpoints::Activate(site, FailpointAction::kError);
    EXPECT_FALSE(service_->SaveSnapshotToFile(path_).ok()) << site;
    Failpoints::Deactivate(site);

    Result<std::unique_ptr<LinkageService>> restored =
        LinkageService::RestoreFromFile(path_);
    ASSERT_TRUE(restored.ok())
        << site << ": " << restored.status().ToString();
    EXPECT_EQ(restored.value()->size(), good_size) << site;
    EXPECT_EQ(restored.value()->metrics().restore_fallbacks, 0u) << site;
  }

  // Torn writes of every prefix length class: 0 bytes, mid-header,
  // mid-payload, all-but-one.
  std::ostringstream full;
  ASSERT_TRUE(service_->SaveSnapshot(full).ok());
  const size_t total = full.str().size();
  for (const size_t bytes :
       {size_t{0}, size_t{6}, total / 2, total - 1}) {
    Failpoints::Activate("io.atomic.write", FailpointAction::kShortWrite,
                         bytes);
    EXPECT_FALSE(service_->SaveSnapshotToFile(path_).ok()) << bytes;
    Failpoints::Deactivate("io.atomic.write");
    Result<std::unique_ptr<LinkageService>> restored =
        LinkageService::RestoreFromFile(path_);
    ASSERT_TRUE(restored.ok()) << bytes;
    EXPECT_EQ(restored.value()->size(), good_size) << bytes;
  }

  // With no failpoints, the save commits and restore sees the new state.
  ASSERT_TRUE(service_->SaveSnapshotToFile(path_).ok());
  Result<std::unique_ptr<LinkageService>> fresh =
      LinkageService::RestoreFromFile(path_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value()->size(), service_->size());
}

TEST_F(KillDuringSaveTest, CorruptPrimaryFallsBackToBackup) {
  ASSERT_TRUE(service_->SaveSnapshotToFile(path_).ok());
  const size_t old_size = service_->size();

  Result<NcvrGenerator> gen = NcvrGenerator::Create();
  ASSERT_TRUE(gen.ok());
  Rng rng(3);
  for (size_t i = 200; i < 205; ++i) {
    ASSERT_TRUE(service_->Insert(gen.value().Generate(i, rng)).ok());
  }
  // Second save hard-links the first snapshot to .bak before committing.
  ASSERT_TRUE(service_->SaveSnapshotToFile(path_).ok());

  // Bit-rot the primary mid-file.
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Result<std::unique_ptr<LinkageService>> restored =
      LinkageService::RestoreFromFile(path_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->size(), old_size);
  EXPECT_EQ(restored.value()->metrics().restore_fallbacks, 1u);

  // With the backup also gone, the primary's own error surfaces.
  std::remove(SnapshotBackupPath(path_).c_str());
  EXPECT_FALSE(LinkageService::RestoreFromFile(path_).ok());
}

}  // namespace
}  // namespace cbvlink
