// Full q-gram vectors (Section 4.1, Figure 1).
//
// A q-gram vector BV of a string s is the |S|^q-bit vector with bit F(gr)
// set for every q-gram gr of the padded s.  These deterministic vectors
// realize the distance-to-error correspondence of Section 5.1
// (u_H <= alpha * u_E) and are the reference against which the compact
// c-vectors are validated.

#ifndef CBVLINK_EMBEDDING_QGRAM_VECTOR_H_
#define CBVLINK_EMBEDDING_QGRAM_VECTOR_H_

#include <string_view>

#include "src/common/bitvector.h"
#include "src/common/status.h"
#include "src/text/qgram.h"

namespace cbvlink {

/// Encodes attribute values as full q-gram vectors of |S|^q bits.
class QGramVectorEncoder {
 public:
  /// Creates an encoder over the extractor's alphabet and q.  Returns
  /// OutOfRange when |S|^q is too large to materialize (the encoder caps
  /// vectors at 2^26 bits = 8 MiB; full q-gram vectors beyond that defeat
  /// their purpose, use c-vectors instead).
  static Result<QGramVectorEncoder> Create(QGramExtractor extractor);

  /// The vector size m = |S|^q.
  size_t vector_size() const { return vector_size_; }

  /// Encodes one attribute value, normalized on the fly.
  BitVector Encode(std::string_view value) const;

  /// Encode() into bits [offset, offset + vector_size()) of `out`, which
  /// must be that large and have those bits clear.
  void EncodeInto(std::string_view value, size_t offset, BitVector* out) const;

  const QGramExtractor& extractor() const { return extractor_; }

 private:
  QGramVectorEncoder(QGramExtractor extractor, size_t vector_size)
      : extractor_(std::move(extractor)), vector_size_(vector_size) {}

  QGramExtractor extractor_;
  size_t vector_size_;
};

}  // namespace cbvlink

#endif  // CBVLINK_EMBEDDING_QGRAM_VECTOR_H_
