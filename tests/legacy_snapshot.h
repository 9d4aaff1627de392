// Version 3 service snapshots, byte for byte, for the tests that check
// that such files still read and restore.  Version 3 is the records-only
// version 4 layout plus a u64 num_shards after sizing_confidence_ratio
// and a bucket section between the records and the mutation block.

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

/// The version 3 file of `snapshot` with `num_shards` and `buckets`.
inline std::string LegacyV3SnapshotBytes(
    const ServiceSnapshot& snapshot, uint64_t num_shards,
    const std::vector<LegacyBucket>& buckets) {
  // The writer's version 3 carries num_shards 16 and an empty bucket
  // section; splice in the requested ones and re-seal the checksum.
  std::ostringstream out;
  EXPECT_TRUE(WriteServiceSnapshot(snapshot, out, /*version=*/3).ok());
  std::string bytes = out.str();
  constexpr size_t kNumShardsOffset = 4 + 4 + 3 * 8 + 3 * 8;
  bytes.replace(kNumShardsOffset, 8, LittleEndian(num_shards, 8));
  std::string section = LittleEndian(buckets.size(), 8);
  for (const LegacyBucket& bucket : buckets) {
    section += LittleEndian(bucket.group, 8) + LittleEndian(bucket.key, 8) +
               LittleEndian(bucket.overflowed ? 1 : 0, 4) +
               LittleEndian(bucket.ids.size(), 8);
    for (const RecordId id : bucket.ids) section += LittleEndian(id, 8);
  }
  const size_t mutation_block = 8 + 8 + 8 * snapshot.tombstones.size();
  const size_t section_offset = bytes.size() - 4 - mutation_block - 8;
  bytes.replace(section_offset, 8, section);
  bytes.resize(bytes.size() - 4);
  return bytes + LittleEndian(Crc32c(bytes.data(), bytes.size()), 4);
}

}  // namespace cbvlink

#endif  // CBVLINK_TESTS_LEGACY_SNAPSHOT_H_
