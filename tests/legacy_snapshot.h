// Version 2 and 3 service snapshots, byte for byte, for the tests that
// check that such files still read and restore.  They are built from the
// version 4 writer's output: version 3 is the records-only version 4
// layout plus a u64 num_shards after sizing_confidence_ratio and a bucket
// section between the records and the mutation block; version 2 is
// version 3 without the mutation block.

#ifndef CBVLINK_TESTS_LEGACY_SNAPSHOT_H_
#define CBVLINK_TESTS_LEGACY_SNAPSHOT_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/io/serialization.h"

namespace cbvlink {

/// One bucket of a version 1–3 bucket section.
struct LegacyBucket {
  uint64_t group = 0;
  uint64_t key = 0;
  bool overflowed = false;
  std::vector<RecordId> ids;
};

inline std::string LittleEndian(uint64_t v, size_t bytes) {
  std::string s(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) s[i] = static_cast<char>(v >> (8 * i));
  return s;
}

/// The version `version` (2 or 3) file of `snapshot` with `num_shards`
/// and `buckets`.  Version 2 drops the tombstones and the sequence floor.
inline std::string LegacySnapshotBytes(
    const ServiceSnapshot& snapshot, uint32_t version,
    uint64_t num_shards = 16, const std::vector<LegacyBucket>& buckets = {}) {
  std::ostringstream out;
  EXPECT_TRUE(WriteServiceSnapshot(snapshot, out).ok());
  std::string bytes = out.str();
  bytes.resize(bytes.size() - 4);  // the CRC, re-sealed below
  bytes.replace(4, 4, LittleEndian(version, 4));
  std::string section = LittleEndian(buckets.size(), 8);
  for (const LegacyBucket& bucket : buckets) {
    section += LittleEndian(bucket.group, 8) + LittleEndian(bucket.key, 8) +
               LittleEndian(bucket.overflowed ? 1 : 0, 4) +
               LittleEndian(bucket.ids.size(), 8);
    for (const RecordId id : bucket.ids) section += LittleEndian(id, 8);
  }
  const size_t mutation_block = 8 + 8 + 8 * snapshot.tombstones.size();
  const size_t mutation_offset = bytes.size() - mutation_block;
  if (version < 3) {
    bytes.replace(mutation_offset, mutation_block, section);
  } else {
    bytes.insert(mutation_offset, section);
  }
  constexpr size_t kNumShardsOffset = 4 + 4 + 3 * 8 + 3 * 8;
  bytes.insert(kNumShardsOffset, LittleEndian(num_shards, 8));
  return bytes + LittleEndian(Crc32c(bytes.data(), bytes.size()), 4);
}

}  // namespace cbvlink

#endif  // CBVLINK_TESTS_LEGACY_SNAPSHOT_H_
