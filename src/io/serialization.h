// Binary serialization of encoded record sets and service snapshots.
//
// The paper's motivation for compact embeddings is distributed settings
// where custodians ship embeddings instead of strings (Sections 1 and
// 5.2).  This module defines that wire format: a small header
// (magic, version, record-vector width, count) followed by fixed-width
// (id, bits) entries, so a 120-bit NCVR record costs 8 + 16 bytes on
// disk/wire.
//
// Layout (little-endian), format version 2:
//   u32 magic 'CBVL'   u32 version   u64 num_records   u64 bits_per_record
//   repeated: u64 id, ceil(bits/64) * u64 words
//   u32 CRC32C over every preceding byte   (top-level files only)
//
// A *service snapshot* ('CBVS') persists what a linkage service needs
// to restart warm: the encoder/linker configuration (enough to rebuild
// the random components identically from the seed), the bucket cap and
// overflow policy, the live records, and the mutation block — the
// delete/update sequence floor and the tombstoned ids.  Version 4 saves
// no blocking tables: a restore rebuilds them from the records, as a
// compaction does.  Versions 1–3 stay readable; their num_shards and
// bucket section are checked and dropped, and versions 1–2 have no
// mutation block.  DESIGN.md §7 has the byte layout.

// Durability contract (version 2):
//  * Every top-level file ends in a CRC32C trailer (src/common/crc32.h)
//    over all preceding bytes, so bit rot and torn writes are detected
//    before any content is trusted.  Readers still accept version-1
//    files (no trailer).
//  * Every length field is validated against a hard cap and, when the
//    stream is seekable, against the bytes actually remaining — a
//    corrupt count can never demand an unbounded allocation.
//  * The *ToFile writers are atomic: they write `path.tmp`, fsync,
//    hard-link the previous `path` to `path.bak` (snapshots only), and
//    rename over `path`.  A crash at any point leaves the previous good
//    file intact; `path.tmp` is never trusted by readers because the
//    rename is the commit point.
//
// Fault injection: the writers hit the failpoints `io.write_records`,
// `io.write_snapshot`, `io.atomic.open`, `io.atomic.write` (supports
// short_write), `io.atomic.fsync`, and `io.atomic.rename`
// (src/common/failpoint.h).

#ifndef CBVLINK_IO_SERIALIZATION_H_
#define CBVLINK_IO_SERIALIZATION_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/record.h"
#include "src/common/status.h"
#include "src/embedding/record_encoder.h"

namespace cbvlink {

/// Flat little-endian encoding of one raw (string-field) Record — the
/// payload format shared by journal frames (src/io/journal.h) and the
/// binary network protocol (src/net/protocol.h): u64 id, u32 num_fields,
/// then u32 length + bytes per field.  Appends to `*out`.
void WireEncodeRecord(const Record& record, std::string* out);

/// Decodes one WireEncodeRecord payload from the front of `data`.  On
/// success `*consumed` is the number of bytes read (trailing bytes are
/// left for the caller).  Returns InvalidArgument on an over-cap field
/// count/length and IOError on truncated input — the same split the
/// snapshot readers use, so framing layers can tell corruption from a
/// partial read.
Status WireDecodeRecord(std::string_view data, Record* record,
                        size_t* consumed);

/// Where an atomic *ToFile write stages its data before the commit
/// rename (`path` + ".tmp").
std::string AtomicTempPath(const std::string& path);

/// Where the atomic snapshot writer hard-links the previous good
/// snapshot (`path` + ".bak") — the fallback candidate for
/// LinkageService::RestoreFromFile when the primary is corrupt.
std::string SnapshotBackupPath(const std::string& path);

/// Writes `payload` to `path` through the atomic protocol every writer
/// in this module uses (stage in AtomicTempPath(path), fsync, rename —
/// the commit point — then fsync the directory, best-effort).  No .bak
/// is kept.  Exposed for small operational artifacts that must never be
/// read torn (telemetry dumps, bench trajectory files); hits the
/// io.atomic.* failpoints like every other writer.
Status WriteFileAtomically(const std::string& path,
                           const std::string& payload);

/// Writes encoded records (all of equal width) to a stream, ending in a
/// CRC32C trailer.  Returns InvalidArgument on width mismatches, IOError
/// on stream failure.
Status WriteEncodedRecords(const std::vector<EncodedRecord>& records,
                           std::ostream& out);

/// Writes to a file path atomically (tmp + fsync + rename).
Status WriteEncodedRecordsToFile(const std::vector<EncodedRecord>& records,
                                 const std::string& path);

/// Reads an encoded record set (version 1 or 2).  Returns
/// InvalidArgument on a corrupt or foreign header, an over-cap length
/// field, or a checksum mismatch, and IOError on truncated input.
Result<std::vector<EncodedRecord>> ReadEncodedRecords(std::istream& in);

/// Reads from a file path.
Result<std::vector<EncodedRecord>> ReadEncodedRecordsFromFile(
    const std::string& path);

/// One linkage attribute of a persisted schema.  The alphabet is stored by
/// value (its ordered symbol string) so a restore does not depend on the
/// process that wrote the snapshot.
struct SnapshotAttribute {
  std::string name;
  std::string alphabet_symbols;
  uint64_t qgram_q = 2;
  bool qgram_pad = false;
};

/// Everything a linkage service persists: configuration + data.  The
/// random components (encoder hash functions, LSH bit samples) are not
/// stored bit-for-bit — they are reproduced deterministically from `seed`
/// and the configuration, which this struct captures completely.
struct ServiceSnapshot {
  // Encoder / linker configuration.
  std::vector<SnapshotAttribute> attributes;
  /// Resolved expected q-gram counts (estimation is not redone on restore).
  std::vector<double> expected_qgrams;
  /// Classification rule in ParseRule() syntax.
  std::string rule_text;
  uint64_t record_K = 30;
  uint64_t record_theta = 4;
  double delta = 0.1;
  double sizing_max_collisions = 1.0;
  double sizing_confidence_ratio = 1.0 / 3.0;
  uint64_t seed = 7;

  // Service options.
  uint64_t max_bucket_size = 0;
  /// Raw service-layer overflow-policy tag (opaque to this module).
  uint32_t overflow_policy = 0;

  // Data: the live records, sorted by id.
  std::vector<EncodedRecord> records;

  // Mutation state (snapshot version 3+; older files restore with both
  // at their defaults).
  /// Record ids deleted but not yet reclaimed by compaction.  Disjoint
  /// from `records` — a tombstoned record's vector is already gone.
  std::vector<RecordId> tombstones;
  /// Highest delete/update sequence the service had acknowledged when
  /// the snapshot was taken; replay skips sequenced frames at or below
  /// this floor.
  uint64_t last_sequence = 0;
};

/// Writes a service snapshot, ending in a CRC32C trailer.  Returns
/// IOError on stream failure.  `version` selects the format for
/// compatibility testing: 0 (the default) writes the current version 4;
/// 3 writes num_shards 16 and an empty bucket section; 2 additionally
/// drops the mutation block and requires `tombstones` empty and
/// `last_sequence` zero.
Status WriteServiceSnapshot(const ServiceSnapshot& snapshot,
                            std::ostream& out, uint32_t version = 0);

/// Writes to a file path atomically: the snapshot is staged in
/// AtomicTempPath(path), fsynced, the previous snapshot (if any) is
/// hard-linked to SnapshotBackupPath(path), and the stage is renamed
/// over `path`.  A crash at any step never loses the previous good
/// snapshot.
Status WriteServiceSnapshotToFile(const ServiceSnapshot& snapshot,
                                  const std::string& path);

/// Reads a service snapshot (version 1 to 4).  Returns InvalidArgument
/// on a corrupt or foreign header, an over-cap length field, a checksum
/// mismatch, or a version 1–3 num_shards that is not a nonzero power of
/// two, and IOError on truncated input.
Result<ServiceSnapshot> ReadServiceSnapshot(std::istream& in);

/// Reads from a file path.
Result<ServiceSnapshot> ReadServiceSnapshotFromFile(const std::string& path);

}  // namespace cbvlink

#endif  // CBVLINK_IO_SERIALIZATION_H_
