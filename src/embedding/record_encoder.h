// Record-level encoders: attribute schemas, concatenation layout, and the
// encoders Charlie applies to whole records (Sections 4.1 and 5.2).
//
// A record-level vector is the concatenation of attribute-level vectors;
// the RecordLayout remembers where each attribute's bits live so the
// blocking layer can sample attribute-specific positions and the matcher
// can evaluate attribute-level distances in place.
//
// A record is encoded into a row: words_per_record() packed words, in
// which each attribute encoder sets its bits straight into its segment
// from the raw field (see QGramExtractor::ForEachIndex); no
// per-attribute vector or normalized copy of the field is built.  The
// segments are not word aligned (15/15/68/22 bits for NCVR), which is why
// the bits are set in place rather than copied.  EncodeRow writes a row
// the caller owns — a VectorStore arena row, or a batch matcher's
// per-thread row block — and Encode() wraps one row in a BitVector.

#ifndef CBVLINK_EMBEDDING_RECORD_ENCODER_H_
#define CBVLINK_EMBEDDING_RECORD_ENCODER_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/random.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/embedding/bloom_filter.h"
#include "src/embedding/cvector.h"
#include "src/embedding/optimal_size.h"
#include "src/text/alphabet.h"
#include "src/text/normalize.h"
#include "src/text/qgram.h"

namespace cbvlink {

class ThreadPool;

/// Static description of one linkage attribute f_i.
struct AttributeSpec {
  /// Attribute name (e.g. "LastName"); informational.
  std::string name;
  /// Symbol set for normalization and q-gram indexing.
  const Alphabet* alphabet = &Alphabet::UppercasePadded();
  /// q-gram extraction parameters.
  QGramOptions qgram;
};

/// The common attribute set the data custodians agree on (Section 3).
struct Schema {
  std::vector<AttributeSpec> attributes;

  size_t num_attributes() const { return attributes.size(); }
};

/// Bit positions of each attribute inside a concatenated record vector.
class RecordLayout {
 public:
  struct Segment {
    size_t offset = 0;
    size_t size = 0;
  };

  RecordLayout() = default;

  /// Appends an attribute of `size` bits; returns its index.
  size_t Add(size_t size) {
    segments_.push_back({total_bits_, size});
    total_bits_ += size;
    return segments_.size() - 1;
  }

  size_t num_attributes() const { return segments_.size(); }
  size_t total_bits() const { return total_bits_; }
  const Segment& segment(size_t i) const { return segments_[i]; }

 private:
  std::vector<Segment> segments_;
  size_t total_bits_ = 0;
};

/// A record embedded into a Hamming space, tagged with its identifier.
struct EncodedRecord {
  RecordId id = 0;
  BitVector bits;
};

/// Estimates the average q-gram count b^(f_i) for each attribute of
/// `schema` from a sample of records (Section 5.2: Charlie samples strings
/// to compute b).  Records with fewer fields than the schema are skipped.
std::vector<double> EstimateExpectedQGrams(const Schema& schema,
                                           const std::vector<Record>& sample);

/// Encodes records into concatenated attribute-level c-vectors — the
/// paper's cBV representation.
class CVectorRecordEncoder {
 public:
  /// Creates an encoder whose attribute sizes follow Theorem 1 for the
  /// given expected q-gram counts (one per schema attribute).
  static Result<CVectorRecordEncoder> Create(
      const Schema& schema, const std::vector<double>& expected_qgrams,
      Rng& rng, const OptimalSizeOptions& options = {});

  /// Encodes one record.  Returns InvalidArgument when the record has a
  /// different field count than the schema.
  Result<EncodedRecord> Encode(const Record& record) const;

  /// InvalidArgument when `record` has a different field count than the
  /// schema: the one reason Encode and EncodeRow fail.
  Status CheckRecord(const Record& record) const;

  /// Encode() into `row`, words_per_record() words that must be zero.
  /// Sets only bits below total_bits(), so the padding past them stays
  /// zero, as the whole-word Hamming kernels require.  Fails as Encode
  /// does, leaving `row` untouched.
  Status EncodeRow(const Record& record, uint64_t* row) const;

  /// Batch Encode: out[i] = Encode(records[i]), sharded over `pool` when
  /// one is supplied (null = serial).  Chunk boundaries depend only on
  /// the input size and the pool size, and each output slot is written
  /// by exactly one chunk, so the result is byte-identical to the serial
  /// path at any thread count.  On any per-record failure the first
  /// error (in chunk order) is returned.  `min_chunk` bounds scheduling
  /// overhead (0 = default); it never affects the output.
  Result<std::vector<EncodedRecord>> EncodeAll(std::span<const Record> records,
                                               ThreadPool* pool = nullptr,
                                               size_t min_chunk = 0) const;

  /// Encodes a single attribute value (raw, pre-normalization) on its
  /// own; equals bits [offset, offset + size) of the record vector, where
  /// offset and size come from layout().segment(attr).
  BitVector EncodeAttribute(size_t attr, std::string_view raw_value) const;

  /// Hamming distance between two encoded records restricted to attribute
  /// `attr` — the u^(f_i) of the classification rules.
  size_t AttributeDistance(const BitVector& a, const BitVector& b,
                           size_t attr) const {
    const RecordLayout::Segment& seg = layout_.segment(attr);
    return a.HammingDistanceRange(b, seg.offset, seg.size);
  }

  const Schema& schema() const { return schema_; }
  const RecordLayout& layout() const { return layout_; }
  /// The c-vector encoder of attribute `attr` (its g and m).
  const CVectorEncoder& attribute_encoder(size_t attr) const {
    return encoders_[attr];
  }

  /// The total record-vector size (the paper's m-bar_opt; 120 bits for the
  /// NCVR schema of Table 3).
  size_t total_bits() const { return layout_.total_bits(); }

  /// Words of one encoded row: ceil(total_bits() / 64), 2 for NCVR.
  size_t words_per_record() const { return (total_bits() + 63) / 64; }

 private:
  CVectorRecordEncoder(Schema schema, std::vector<CVectorEncoder> encoders,
                       RecordLayout layout)
      : schema_(std::move(schema)),
        encoders_(std::move(encoders)),
        layout_(std::move(layout)) {}

  Schema schema_;
  std::vector<CVectorEncoder> encoders_;
  RecordLayout layout_;
};

/// Encodes records into concatenated field-level Bloom filters — the BfH
/// baseline's record representation.
class BloomRecordEncoder {
 public:
  /// Creates an encoder with one `options`-sized filter per attribute.
  static Result<BloomRecordEncoder> Create(const Schema& schema,
                                           BloomFilterOptions options = {});

  /// Encodes one record; same contract as CVectorRecordEncoder::Encode.
  Result<EncodedRecord> Encode(const Record& record) const;

  /// Batch Encode; same contract and determinism guarantee as
  /// CVectorRecordEncoder::EncodeAll.
  Result<std::vector<EncodedRecord>> EncodeAll(std::span<const Record> records,
                                               ThreadPool* pool = nullptr,
                                               size_t min_chunk = 0) const;

  /// Attribute-level Hamming distance (used by BfH only at match time).
  size_t AttributeDistance(const BitVector& a, const BitVector& b,
                           size_t attr) const {
    const RecordLayout::Segment& seg = layout_.segment(attr);
    return a.HammingDistanceRange(b, seg.offset, seg.size);
  }

  const Schema& schema() const { return schema_; }
  const RecordLayout& layout() const { return layout_; }
  size_t total_bits() const { return layout_.total_bits(); }
  const BloomFilterEncoder& attribute_encoder(size_t attr) const {
    return encoders_[attr];
  }

 private:
  BloomRecordEncoder(Schema schema, std::vector<BloomFilterEncoder> encoders,
                     RecordLayout layout)
      : schema_(std::move(schema)),
        encoders_(std::move(encoders)),
        layout_(std::move(layout)) {}

  Schema schema_;
  std::vector<BloomFilterEncoder> encoders_;
  RecordLayout layout_;
};

}  // namespace cbvlink

#endif  // CBVLINK_EMBEDDING_RECORD_ENCODER_H_
