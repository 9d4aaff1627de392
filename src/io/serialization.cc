#include "src/io/serialization.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "src/common/crc32.h"
#include "src/common/failpoint.h"
#include "src/common/str.h"

namespace cbvlink {

namespace {

constexpr uint32_t kMagic = 0x4c564243;  // "CBVL" little-endian
constexpr uint32_t kSnapshotMagic = 0x53564243;  // "CBVS" little-endian
// Version 1: no CRC trailer, lengths trusted.  Version 2: CRC32C trailer
// on top-level files, every length field capped and bounds-checked.
// Writers emit version 2; readers accept both.
constexpr uint32_t kVersionLegacy = 1;
constexpr uint32_t kVersion = 2;
// Snapshot ('CBVS') versions run ahead of the record-file version:
// version 3 appends a mutation block (delete/update sequence floor +
// tombstoned record ids) after the buckets; version 4 drops num_shards
// and the bucket section.  Writers emit version 4 (2 and 3 on request,
// with num_shards 16 and no buckets); readers accept 1–4.
constexpr uint32_t kSnapshotVersion = 4;

// Hard caps on untrusted length fields.  Each bounds the single largest
// allocation a corrupt field can demand (the "allocation budget" of the
// corruption-sweep tests) well above any legitimate value: the paper's
// record vectors are 120–267 bits, schemas a handful of attributes.
constexpr uint64_t kMaxBitsPerRecord = uint64_t{1} << 20;   // 128 KiB/record
constexpr uint32_t kMaxStringBytes = uint32_t{1} << 20;     // 1 MiB
constexpr uint32_t kMaxAttributes = 1u << 12;
constexpr uint64_t kMaxRecordCount = uint64_t{1} << 33;
constexpr uint64_t kMaxBucketCount = uint64_t{1} << 33;
// When the stream size is unknown (non-seekable), reserve at most this
// many elements up front; growth past it is pay-as-you-read.
constexpr uint64_t kBlindReserveLimit = uint64_t{1} << 16;

void EncodeU32(uint32_t v, unsigned char buf[4]) {
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
}

/// Stream writer that folds every written byte into a running CRC32C.
class CrcWriter {
 public:
  explicit CrcWriter(std::ostream& out) : out_(out) {}

  void Raw(const void* p, size_t n) {
    crc_ = Crc32cExtend(crc_, p, n);
    out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  }

  void U32(uint32_t v) {
    unsigned char buf[4];
    EncodeU32(v, buf);
    Raw(buf, 4);
  }

  void U64(uint64_t v) {
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    Raw(buf, 8);
  }

  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }

  /// Appends the accumulated CRC (the trailer itself is not folded in).
  void CrcTrailer() {
    unsigned char buf[4];
    EncodeU32(crc_, buf);
    out_.write(reinterpret_cast<const char*>(buf), 4);
  }

 private:
  std::ostream& out_;
  uint32_t crc_ = kCrc32cInit;
};

/// Stream reader that folds every consumed byte into a running CRC32C
/// and validates length fields against hard caps and (for seekable
/// streams) the bytes actually remaining.  Getters return false on
/// failure; Error() then maps the failure to a Status: IOError for
/// truncation, InvalidArgument for cap/bounds/CRC violations.
class CrcReader {
 public:
  explicit CrcReader(std::istream& in) : in_(in) {
    const std::istream::pos_type pos = in.tellg();
    if (pos != std::istream::pos_type(-1)) {
      in.seekg(0, std::ios::end);
      const std::istream::pos_type end = in.tellg();
      if (end != std::istream::pos_type(-1) && end >= pos) {
        remaining_ = static_cast<uint64_t>(end - pos);
        bounded_ = true;
      }
      in.clear();
      in.seekg(pos);
    } else {
      in.clear();
    }
  }

  bool bounded() const { return bounded_; }

  bool Raw(void* p, size_t n) {
    if (failed_) return false;
    if (bounded_ && n > remaining_) {
      failed_ = true;
      return false;
    }
    if (!in_.read(static_cast<char*>(p), static_cast<std::streamsize>(n))) {
      failed_ = true;
      return false;
    }
    if (bounded_) remaining_ -= n;
    crc_ = Crc32cExtend(crc_, p, n);
    return true;
  }

  bool U32(uint32_t* v) {
    unsigned char buf[4];
    if (!Raw(buf, 4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(buf[i]) << (8 * i);
    return true;
  }

  bool U64(uint64_t* v) {
    unsigned char buf[8];
    if (!Raw(buf, 8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(buf[i]) << (8 * i);
    return true;
  }

  bool F64(double* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(bits));
    return true;
  }

  /// Length-prefixed string; the length is capped and checked against
  /// the remaining stream before any allocation.
  bool Str(std::string* s) {
    uint32_t size = 0;
    if (!U32(&size)) return false;
    if (size > kMaxStringBytes) {
      return Invalid(StrFormat("string length %u exceeds cap %u", size,
                               kMaxStringBytes));
    }
    if (bounded_ && size > remaining_) {
      failed_ = true;
      return false;
    }
    s->resize(size);
    return size == 0 || Raw(s->data(), size);
  }

  /// Validates a just-read count of items costing at least `item_bytes`
  /// each: rejects counts over `max_count` (InvalidArgument) and counts
  /// whose payload cannot fit in the remaining stream (truncation).
  bool CheckCount(uint64_t count, uint64_t max_count, uint64_t item_bytes,
                  const char* what) {
    if (count > max_count) {
      return Invalid(StrFormat("%s count %llu exceeds cap %llu", what,
                               static_cast<unsigned long long>(count),
                               static_cast<unsigned long long>(max_count)));
    }
    if (bounded_ && item_bytes != 0 && count > remaining_ / item_bytes) {
      failed_ = true;  // declares more payload than the stream holds
      return false;
    }
    return true;
  }

  /// How many elements to reserve for a validated count: the full count
  /// when the stream bound proves it fits, a fixed limit otherwise.
  size_t ReserveHint(uint64_t count) const {
    return static_cast<size_t>(
        bounded_ ? count : std::min(count, kBlindReserveLimit));
  }

  /// Reads and checks the CRC trailer (the stored CRC is not folded
  /// into the running one).
  bool VerifyCrcTrailer() {
    const uint32_t expected = crc_;
    unsigned char buf[4];
    if (failed_ || (bounded_ && remaining_ < 4) ||
        !in_.read(reinterpret_cast<char*>(buf), 4)) {
      failed_ = true;
      return false;
    }
    if (bounded_) remaining_ -= 4;
    uint32_t stored = 0;
    for (int i = 0; i < 4; ++i) {
      stored |= static_cast<uint32_t>(buf[i]) << (8 * i);
    }
    if (stored != expected) return Invalid("checksum mismatch");
    return true;
  }

  /// The Status for the first recorded failure, contextualized.
  Status Error(const char* context) const {
    if (!invalid_.empty()) {
      return Status::InvalidArgument(invalid_ + " in " + context);
    }
    return Status::IOError(std::string("truncated ") + context);
  }

 private:
  bool Invalid(std::string why) {
    failed_ = true;
    if (invalid_.empty()) invalid_ = std::move(why);
    return false;
  }

  std::istream& in_;
  uint32_t crc_ = kCrc32cInit;
  uint64_t remaining_ = 0;
  bool bounded_ = false;
  bool failed_ = false;
  std::string invalid_;
};

// ---------------------------------------------------------------------
// Encoded-record block (shared between standalone files and the nested
// block inside snapshots; the CRC trailer exists only at top level).

Status WriteEncodedRecordsBody(CrcWriter& w,
                               const std::vector<EncodedRecord>& records) {
  const uint64_t bits = records.empty() ? 0 : records.front().bits.size();
  for (const EncodedRecord& r : records) {
    if (r.bits.size() != bits) {
      return Status::InvalidArgument(
          StrFormat("record %llu has %zu bits, expected %llu",
                    static_cast<unsigned long long>(r.id), r.bits.size(),
                    static_cast<unsigned long long>(bits)));
    }
  }
  w.U32(kMagic);
  w.U32(kVersion);
  w.U64(records.size());
  w.U64(bits);
  for (const EncodedRecord& r : records) {
    w.U64(r.id);
    for (uint64_t word : r.bits.words()) w.U64(word);
  }
  return Status::OK();
}

Status ReadEncodedRecordsBody(CrcReader& r, std::vector<EncodedRecord>* out,
                              uint32_t* version_out) {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t count = 0;
  uint64_t bits = 0;
  if (!r.U32(&magic)) return r.Error("header");
  if (magic != kMagic) {
    return Status::InvalidArgument("not a cbvlink encoded-record file");
  }
  if (!r.U32(&version)) return r.Error("header");
  if (version != kVersionLegacy && version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported version %u", version));
  }
  *version_out = version;
  if (!r.U64(&count) || !r.U64(&bits)) return r.Error("header");
  if (bits > kMaxBitsPerRecord) {
    return Status::InvalidArgument(
        StrFormat("record width %llu bits exceeds cap %llu",
                  static_cast<unsigned long long>(bits),
                  static_cast<unsigned long long>(kMaxBitsPerRecord)));
  }
  const size_t words_per_record = (static_cast<size_t>(bits) + 63) / 64;
  const uint64_t record_bytes = 8 + 8 * words_per_record;
  if (!r.CheckCount(count, kMaxRecordCount, record_bytes, "record")) {
    return r.Error("record count");
  }
  out->reserve(r.ReserveHint(count));
  std::vector<uint64_t> words;
  for (uint64_t i = 0; i < count; ++i) {
    EncodedRecord rec;
    if (!r.U64(&rec.id)) {
      return r.Error(
          StrFormat("record %llu", static_cast<unsigned long long>(i))
              .c_str());
    }
    words.assign(words_per_record, 0);
    for (size_t w = 0; w < words_per_record; ++w) {
      if (!r.U64(&words[w])) {
        return r.Error(
            StrFormat("record %llu", static_cast<unsigned long long>(i))
                .c_str());
      }
    }
    // Word count and padding are validated by the BitVector boundary:
    // a set padding bit (corruption) would silently skew every
    // whole-word Hamming distance, so it is rejected here rather than
    // debug-asserted downstream.
    Result<BitVector> bv =
        BitVector::FromWordsValidated(static_cast<size_t>(bits), words);
    if (!bv.ok()) {
      return Status::InvalidArgument(
          StrFormat("record %llu: %s", static_cast<unsigned long long>(i),
                    std::string(bv.status().message()).c_str()));
    }
    rec.bits = std::move(bv).value();
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Atomic file persistence: write path.tmp, fsync, (optionally) hard-link
// the previous path to path.bak, rename, fsync the directory.  The
// rename is the commit point; a crash at any earlier step leaves the
// previous file untouched.

Status AtomicWriteFile(const std::string& path, const std::string& payload,
                       bool keep_backup) {
  const std::string tmp = AtomicTempPath(path);
  CBVLINK_FAILPOINT("io.atomic.open");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::IOError(
        StrFormat("open %s: %s", tmp.c_str(), std::strerror(errno)));
  }

  size_t limit = payload.size();
  if (Failpoints::AnyActive()) {
    const FailpointHit hit = Failpoints::Eval("io.atomic.write");
    if (hit.action == FailpointAction::kError) {
      ::close(fd);  // tmp left behind, as a crash would leave it
      return Status::IOError("failpoint 'io.atomic.write' injected failure");
    }
    if (hit.action == FailpointAction::kShortWrite) {
      limit = std::min<size_t>(limit, static_cast<size_t>(hit.param));
    }
  }

  const char* p = payload.data();
  size_t left = limit;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st = Status::IOError(
          StrFormat("write %s: %s", tmp.c_str(), std::strerror(errno)));
      ::close(fd);
      return st;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  if (limit != payload.size()) {
    ::close(fd);  // simulated torn write: partial tmp persisted
    return Status::IOError(
        "failpoint 'io.atomic.write' injected short write");
  }

  {
    const Status st = FailpointInject("io.atomic.fsync");
    if (!st.ok()) {
      ::close(fd);
      return st;
    }
  }
  if (::fsync(fd) != 0) {
    const Status st = Status::IOError(
        StrFormat("fsync %s: %s", tmp.c_str(), std::strerror(errno)));
    ::close(fd);
    return st;
  }
  ::close(fd);

  if (keep_backup && ::access(path.c_str(), F_OK) == 0) {
    // Best-effort: the previous good file survives the rename as .bak,
    // giving RestoreFromFile a fallback against later primary bit rot.
    const std::string bak = SnapshotBackupPath(path);
    ::unlink(bak.c_str());
    (void)::link(path.c_str(), bak.c_str());
  }

  CBVLINK_FAILPOINT("io.atomic.rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError(StrFormat("rename %s -> %s: %s", tmp.c_str(),
                                     path.c_str(), std::strerror(errno)));
  }

  // Make the rename itself durable (best-effort; not all filesystems
  // support directory fsync).
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dirfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirfd >= 0) {
    (void)::fsync(dirfd);
    ::close(dirfd);
  }
  return Status::OK();
}

}  // namespace

void WireEncodeRecord(const Record& record, std::string* out) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<unsigned char>(record.id >> (8 * i));
  }
  out->append(reinterpret_cast<const char*>(buf), 8);
  EncodeU32(static_cast<uint32_t>(record.fields.size()), buf);
  out->append(reinterpret_cast<const char*>(buf), 4);
  for (const std::string& field : record.fields) {
    EncodeU32(static_cast<uint32_t>(field.size()), buf);
    out->append(reinterpret_cast<const char*>(buf), 4);
    out->append(field);
  }
}

Status WireDecodeRecord(std::string_view data, Record* record,
                        size_t* consumed) {
  size_t pos = 0;
  const auto u32 = [&](uint32_t* v) {
    if (data.size() - pos < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(
                static_cast<unsigned char>(data[pos + static_cast<size_t>(i)]))
            << (8 * i);
    }
    pos += 4;
    return true;
  };
  if (data.size() < 12) return Status::IOError("record payload truncated");
  record->id = 0;
  for (int i = 0; i < 8; ++i) {
    record->id |= static_cast<uint64_t>(
                      static_cast<unsigned char>(data[static_cast<size_t>(i)]))
                  << (8 * i);
  }
  pos = 8;
  uint32_t num_fields = 0;
  u32(&num_fields);
  if (num_fields > kMaxAttributes) {
    return Status::InvalidArgument(
        StrFormat("record field count %u exceeds cap %u", num_fields,
                  kMaxAttributes));
  }
  record->fields.clear();
  record->fields.reserve(num_fields);
  for (uint32_t f = 0; f < num_fields; ++f) {
    uint32_t len = 0;
    if (!u32(&len)) return Status::IOError("record payload truncated");
    if (len > kMaxStringBytes) {
      return Status::InvalidArgument(
          StrFormat("record field length %u exceeds cap %u", len,
                    kMaxStringBytes));
    }
    if (data.size() - pos < len) {
      return Status::IOError("record payload truncated");
    }
    record->fields.emplace_back(data.substr(pos, len));
    pos += len;
  }
  *consumed = pos;
  return Status::OK();
}

std::string AtomicTempPath(const std::string& path) { return path + ".tmp"; }

Status WriteFileAtomically(const std::string& path,
                           const std::string& payload) {
  return AtomicWriteFile(path, payload, /*keep_backup=*/false);
}

std::string SnapshotBackupPath(const std::string& path) {
  return path + ".bak";
}

Status WriteEncodedRecords(const std::vector<EncodedRecord>& records,
                           std::ostream& out) {
  CBVLINK_FAILPOINT("io.write_records");
  CrcWriter w(out);
  CBVLINK_RETURN_NOT_OK(WriteEncodedRecordsBody(w, records));
  w.CrcTrailer();
  if (!out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteEncodedRecordsToFile(const std::vector<EncodedRecord>& records,
                                 const std::string& path) {
  std::ostringstream buffer;
  CBVLINK_RETURN_NOT_OK(WriteEncodedRecords(records, buffer));
  return AtomicWriteFile(path, buffer.str(), /*keep_backup=*/false);
}

Result<std::vector<EncodedRecord>> ReadEncodedRecords(std::istream& in) {
  CrcReader r(in);
  std::vector<EncodedRecord> records;
  uint32_t version = 0;
  Status st = ReadEncodedRecordsBody(r, &records, &version);
  if (!st.ok()) return st;
  if (version >= kVersion && !r.VerifyCrcTrailer()) {
    return r.Error("record-file checksum");
  }
  return records;
}

Result<std::vector<EncodedRecord>> ReadEncodedRecordsFromFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open for read: " + path);
  return ReadEncodedRecords(in);
}

Status WriteServiceSnapshot(const ServiceSnapshot& snapshot,
                            std::ostream& out, uint32_t version) {
  CBVLINK_FAILPOINT("io.write_snapshot");
  if (version == 0) version = kSnapshotVersion;
  if (version < kVersion || version > kSnapshotVersion) {
    return Status::InvalidArgument(
        StrFormat("cannot write snapshot version %u", version));
  }
  const bool legacy = version < 4;
  if (version < 3 && (!snapshot.tombstones.empty() ||
                      snapshot.last_sequence != 0)) {
    return Status::InvalidArgument(
        "snapshot version 2 cannot carry tombstones or a sequence floor");
  }
  CrcWriter w(out);
  w.U32(kSnapshotMagic);
  w.U32(version);
  w.U64(snapshot.seed);
  w.U64(snapshot.record_K);
  w.U64(snapshot.record_theta);
  w.F64(snapshot.delta);
  w.F64(snapshot.sizing_max_collisions);
  w.F64(snapshot.sizing_confidence_ratio);
  if (legacy) w.U64(16);  // num_shards
  w.U64(snapshot.max_bucket_size);
  w.U32(snapshot.overflow_policy);
  w.Str(snapshot.rule_text);
  w.U32(static_cast<uint32_t>(snapshot.attributes.size()));
  for (const SnapshotAttribute& attr : snapshot.attributes) {
    w.Str(attr.name);
    w.Str(attr.alphabet_symbols);
    w.U64(attr.qgram_q);
    w.U32(attr.qgram_pad ? 1 : 0);
  }
  w.U32(static_cast<uint32_t>(snapshot.expected_qgrams.size()));
  for (double b : snapshot.expected_qgrams) w.F64(b);
  // The record payload reuses the standalone encoded-record block format,
  // nested header included, so tooling can share the reader.  The
  // snapshot's single trailing CRC covers the nested block too.
  CBVLINK_RETURN_NOT_OK(WriteEncodedRecordsBody(w, snapshot.records));
  if (legacy) w.U64(0);  // an empty bucket section
  if (version >= 3) {
    // Mutation block: the highest acknowledged delete/update sequence
    // (the replay dedupe floor) and every live tombstone.
    w.U64(snapshot.last_sequence);
    w.U64(snapshot.tombstones.size());
    for (RecordId id : snapshot.tombstones) w.U64(id);
  }
  w.CrcTrailer();
  if (!out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteServiceSnapshotToFile(const ServiceSnapshot& snapshot,
                                  const std::string& path) {
  std::ostringstream buffer;
  CBVLINK_RETURN_NOT_OK(WriteServiceSnapshot(snapshot, buffer));
  return AtomicWriteFile(path, buffer.str(), /*keep_backup=*/true);
}

Result<ServiceSnapshot> ReadServiceSnapshot(std::istream& in) {
  CrcReader r(in);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!r.U32(&magic)) return r.Error("snapshot header");
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a cbvlink service snapshot");
  }
  if (!r.U32(&version)) return r.Error("snapshot header");
  if (version < kVersionLegacy || version > kSnapshotVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported snapshot version %u", version));
  }
  const bool legacy = version < 4;
  ServiceSnapshot snapshot;
  uint32_t policy = 0;
  uint64_t num_shards = 1;
  if (!r.U64(&snapshot.seed) || !r.U64(&snapshot.record_K) ||
      !r.U64(&snapshot.record_theta) || !r.F64(&snapshot.delta) ||
      !r.F64(&snapshot.sizing_max_collisions) ||
      !r.F64(&snapshot.sizing_confidence_ratio) ||
      (legacy && !r.U64(&num_shards)) || !r.U64(&snapshot.max_bucket_size) ||
      !r.U32(&policy) || !r.Str(&snapshot.rule_text)) {
    return r.Error("snapshot configuration");
  }
  snapshot.overflow_policy = policy;
  uint32_t num_attributes = 0;
  if (!r.U32(&num_attributes) ||
      // Each attribute costs at least two empty strings + u64 + u32.
      !r.CheckCount(num_attributes, kMaxAttributes, 4 + 4 + 8 + 4,
                    "attribute")) {
    return r.Error("snapshot schema");
  }
  snapshot.attributes.resize(num_attributes);
  for (SnapshotAttribute& attr : snapshot.attributes) {
    uint32_t pad = 0;
    if (!r.Str(&attr.name) || !r.Str(&attr.alphabet_symbols) ||
        !r.U64(&attr.qgram_q) || !r.U32(&pad)) {
      return r.Error("snapshot schema");
    }
    attr.qgram_pad = pad != 0;
  }
  uint32_t num_expected = 0;
  if (!r.U32(&num_expected) ||
      !r.CheckCount(num_expected, kMaxAttributes, 8, "expected-qgram")) {
    return r.Error("snapshot expected-qgram block");
  }
  snapshot.expected_qgrams.resize(num_expected);
  for (double& b : snapshot.expected_qgrams) {
    if (!r.F64(&b)) return r.Error("snapshot expected-qgram block");
  }
  uint32_t nested_version = 0;
  Status records_st =
      ReadEncodedRecordsBody(r, &snapshot.records, &nested_version);
  if (!records_st.ok()) return records_st;
  if (legacy) {
    // The bucket section of versions 1–3, read through the same caps and
    // checksum and then dropped: Restore rebuilds the tables.
    uint64_t num_buckets = 0;
    if (!r.U64(&num_buckets) ||
        // Minimum bucket: group + key + flag + empty id list.
        !r.CheckCount(num_buckets, kMaxBucketCount, 8 + 8 + 4 + 8,
                      "bucket")) {
      return r.Error("snapshot bucket block");
    }
    uint64_t word = 0;  // group, key, then each id
    uint32_t overflowed = 0;
    uint64_t count = 0;
    for (uint64_t i = 0; i < num_buckets; ++i) {
      if (!r.U64(&word) || !r.U64(&word) || !r.U32(&overflowed) ||
          !r.U64(&count) ||
          !r.CheckCount(count, kMaxRecordCount, 8, "bucket id")) {
        return r.Error("snapshot bucket block");
      }
      for (uint64_t j = 0; j < count; ++j) {
        if (!r.U64(&word)) return r.Error("snapshot bucket block");
      }
    }
  }
  if (version >= 3) {
    uint64_t num_tombstones = 0;
    if (!r.U64(&snapshot.last_sequence) || !r.U64(&num_tombstones) ||
        !r.CheckCount(num_tombstones, kMaxRecordCount, 8, "tombstone")) {
      return r.Error("snapshot mutation block");
    }
    snapshot.tombstones.reserve(r.ReserveHint(num_tombstones));
    for (uint64_t i = 0; i < num_tombstones; ++i) {
      RecordId id = 0;
      if (!r.U64(&id)) return r.Error("snapshot mutation block");
      snapshot.tombstones.push_back(id);
    }
  }
  if (version >= kVersion && !r.VerifyCrcTrailer()) {
    return r.Error("snapshot checksum");
  }
  // Versions 1–3 carried the lock-shard count of the service that wrote
  // them; it no longer configures anything, but a value no writer ever
  // produced still marks the file as corrupt.
  if (num_shards == 0 || (num_shards & (num_shards - 1)) != 0) {
    return Status::InvalidArgument(
        "snapshot num_shards must be a nonzero power of two");
  }
  return snapshot;
}

Result<ServiceSnapshot> ReadServiceSnapshotFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open for read: " + path);
  return ReadServiceSnapshot(in);
}

}  // namespace cbvlink
