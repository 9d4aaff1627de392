// Field-level Bloom-filter embedding — the BfH baseline's representation
// (Section 6.1; Schnell, Bachteler & Reiher 2009).
//
// Each attribute value is embedded into a fixed-size (default 500-bit)
// Bloom filter by inserting every bigram with `num_hashes` (default 15)
// independent hash functions.  The paper builds those from MD5/SHA1; we
// use the double-hashing construction (see common/hashing.h), which is the
// standard substitute and preserves the statistical behaviour that drives
// the experiments: distances depend on string length, and the dense bit
// patterns give BfH its characteristic blocking profile.
//
// Like the c-vector encoder, it sets bits straight from the one-pass
// QGramExtractor::ForEachIndex; repeated q-grams set the same bits again.

#ifndef CBVLINK_EMBEDDING_BLOOM_FILTER_H_
#define CBVLINK_EMBEDDING_BLOOM_FILTER_H_

#include <string_view>

#include "src/common/bitvector.h"
#include "src/common/hashing.h"
#include "src/common/status.h"
#include "src/text/qgram.h"

namespace cbvlink {

/// Options for field-level Bloom filters; defaults follow the paper.
struct BloomFilterOptions {
  /// Filter size in bits (paper: 500).
  size_t num_bits = 500;
  /// Hash functions applied per q-gram (paper: 15).
  size_t num_hashes = 15;
  /// Seed for the hash family.  All values of all attributes share the
  /// family so identical grams map identically, as with cryptographic
  /// functions.
  uint64_t seed = 0x62664861736833ULL;  // "BfHash3"
};

/// Encodes attribute values as fixed-size Bloom filters.
class BloomFilterEncoder {
 public:
  /// Creates an encoder.  Returns InvalidArgument for zero sizes.
  static Result<BloomFilterEncoder> Create(QGramExtractor extractor,
                                           BloomFilterOptions options = {});

  size_t vector_size() const { return family_.num_bits(); }
  size_t num_hashes() const { return family_.k(); }

  /// Encodes one attribute value, normalized on the fly.
  BitVector Encode(std::string_view value) const;

  /// Encode() into bits [offset, offset + vector_size()) of the packed
  /// words at `words`, which must hold those bits and have them clear.
  void EncodeInto(std::string_view value, size_t offset,
                  uint64_t* words) const;

  const QGramExtractor& extractor() const { return extractor_; }

 private:
  BloomFilterEncoder(QGramExtractor extractor, BloomHashFamily family)
      : extractor_(std::move(extractor)), family_(family) {}

  QGramExtractor extractor_;
  BloomHashFamily family_;
};

}  // namespace cbvlink

#endif  // CBVLINK_EMBEDDING_BLOOM_FILTER_H_
