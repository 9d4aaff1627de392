// Compact q-gram vectors — the paper's c-vectors (Section 5.2, Figure 4).
//
// A c-vector folds the q-gram index set U_s of a string through one
// randomly drawn pairwise-independent hash g(x) = ((a*x + b) mod P) mod m
// into an m-bit vector, where m = m_opt from Theorem 1 keeps the expected
// collision count below rho with confidence 1 - r.  All values of one
// attribute share the same g so that their Hamming distances in the
// compact space track the distances between full q-gram vectors.
//
// g is the same function for every value of the attribute, and its domain
// is the index space |S|^q (676 to 1,444 for bigrams), so the encoder
// tabulates it once, at construction: bit_of_gram_[x] = g(x).  Encoding is
// then one pass (QGramExtractor::ForEachIndex) that looks each q-gram index
// up in that table and sets the bit.  g stays the definition: it fills the
// table, and it is evaluated per q-gram when |S|^q exceeds
// kMaxTableEntries (q >= 4 on the built-in alphabets).  U_s is a set, but
// setting a bit is idempotent, so repeated q-grams need no sort or
// de-duplication.

#ifndef CBVLINK_EMBEDDING_CVECTOR_H_
#define CBVLINK_EMBEDDING_CVECTOR_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/embedding/optimal_size.h"
#include "src/text/qgram.h"

namespace cbvlink {

/// Per-attribute encoder of strings into m-bit c-vectors.
class CVectorEncoder {
 public:
  /// The largest index space |S|^q whose gram -> bit table an encoder
  /// keeps (256 KB of entries).  Above it, Encode() evaluates g per gram.
  static constexpr uint64_t kMaxTableEntries = uint64_t{1} << 16;

  /// Creates an encoder whose size is derived from the expected q-gram
  /// count `b` via Theorem 1.  Propagates sizing errors.
  static Result<CVectorEncoder> Create(QGramExtractor extractor,
                                       double expected_qgrams, Rng& rng,
                                       const OptimalSizeOptions& options = {});

  /// Creates an encoder with an explicitly chosen size m (> 0).
  static Result<CVectorEncoder> CreateWithSize(QGramExtractor extractor,
                                               size_t m, Rng& rng);

  /// The c-vector size m (m_opt when derived from Theorem 1).
  size_t vector_size() const { return static_cast<size_t>(hash_.range()); }

  /// Encodes one attribute value: bit g(x) set for each x in U_s.  The
  /// value is normalized on the fly, so a raw value and its Normalize()d
  /// form encode identically.
  BitVector Encode(std::string_view value) const;

  /// Encode() into bits [offset, offset + vector_size()) of the packed
  /// words at `words` (bit i in word i / 64), which must hold those bits
  /// and have them clear.  Record encoders call this at each attribute's
  /// RecordLayout offset, straight into a record row.
  void EncodeInto(std::string_view value, size_t offset,
                  uint64_t* words) const;

  const QGramExtractor& extractor() const { return extractor_; }
  const PairwiseHash& hash() const { return hash_; }

 private:
  CVectorEncoder(QGramExtractor extractor, PairwiseHash hash);

  QGramExtractor extractor_;
  PairwiseHash hash_;
  /// g(x) for every index x < |S|^q; empty when |S|^q > kMaxTableEntries.
  /// g < kHashPrime < 2^31, so every entry fits.
  std::vector<uint32_t> bit_of_gram_;
};

}  // namespace cbvlink

#endif  // CBVLINK_EMBEDDING_CVECTOR_H_
