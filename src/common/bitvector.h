// A compact, word-packed bit vector with fast Hamming distance.
//
// BitVector is the fundamental value type of the library: q-gram vectors,
// c-vectors, and Bloom filters (Sections 4.1, 5.2 and 6.1 of the paper) are
// all BitVectors of different sizes.  Hamming distance between two vectors
// is computed word-by-word with hardware popcount, which is what makes the
// compact Hamming space "particularly lightweight" for distance
// computations (Section 1).

#ifndef CBVLINK_COMMON_BITVECTOR_H_
#define CBVLINK_COMMON_BITVECTOR_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace cbvlink {

/// Sets bit `i` of the word-packed sequence at `words` (bit i lives in
/// word i / 64), which must hold it.
inline void SetWordBit(uint64_t* words, size_t i) noexcept {
  words[i >> 6] |= uint64_t{1} << (i & 63);
}

/// Hamming distance between two word-packed bit sequences of `num_words`
/// 64-bit words.  Padding bits past the logical length must be zero in
/// both operands (the BitVector invariant), so whole-word XOR+popcount is
/// exact.  This is the kernel the arena-backed matching engine runs
/// directly on contiguous storage, bypassing BitVector objects.
inline size_t HammingDistanceWords(const uint64_t* a, const uint64_t* b,
                                   size_t num_words) noexcept {
  size_t dist = 0;
  for (size_t i = 0; i < num_words; ++i) {
    dist += static_cast<size_t>(std::popcount(a[i] ^ b[i]));
  }
  return dist;
}

/// Hamming distance restricted to the bit range [offset, offset+length)
/// of two word-packed sequences.  The range must lie within both
/// sequences; bit 0 of word 0 is bit 0.
inline size_t HammingDistanceRangeWords(const uint64_t* a, const uint64_t* b,
                                        size_t offset,
                                        size_t length) noexcept {
  if (length == 0) return 0;
  const size_t first_word = offset >> 6;
  const size_t last_bit = offset + length - 1;
  const size_t last_word = last_bit >> 6;
  size_t dist = 0;
  for (size_t w = first_word; w <= last_word; ++w) {
    uint64_t x = a[w] ^ b[w];
    if (w == first_word) {
      const size_t lead = offset & 63;
      x &= ~uint64_t{0} << lead;
    }
    if (w == last_word) {
      const size_t trail = last_bit & 63;
      if (trail != 63) x &= (uint64_t{1} << (trail + 1)) - 1;
    }
    dist += static_cast<size_t>(std::popcount(x));
  }
  return dist;
}

/// Fixed-size sequence of bits packed into 64-bit words.
class BitVector {
 public:
  /// Constructs an empty (zero-bit) vector.
  BitVector() = default;

  /// Constructs a vector of `num_bits` bits, all cleared.
  explicit BitVector(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  /// Number of addressable bits.
  size_t size() const noexcept { return num_bits_; }

  /// True iff size() == 0.
  bool empty() const noexcept { return num_bits_ == 0; }

  /// Sets bit `i` to 1.  Requires i < size().
  void Set(size_t i) noexcept {
    assert(i < num_bits_);
    SetWordBit(words_.data(), i);
  }

  /// Clears bit `i`.  Requires i < size().
  void Clear(size_t i) noexcept {
    assert(i < num_bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  /// Sets bit `i` to `value`.  Requires i < size().
  void Assign(size_t i, bool value) noexcept {
    if (value) {
      Set(i);
    } else {
      Clear(i);
    }
  }

  /// Returns bit `i`.  Requires i < size().
  bool Test(size_t i) const noexcept {
    assert(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Number of bits set to 1.
  size_t PopCount() const noexcept {
    size_t total = 0;
    for (uint64_t w : words_) total += static_cast<size_t>(std::popcount(w));
    return total;
  }

  /// Clears every bit, keeping the size.
  void Reset() noexcept {
    for (uint64_t& w : words_) w = 0;
  }

  /// Appends all bits of `other` after the current bits, growing this
  /// vector.  Used to build record-level vectors by concatenating
  /// attribute-level vectors (Section 4.1).
  void Append(const BitVector& other);

  /// Returns the sub-vector [offset, offset + length).  Requires the range
  /// to be within size().
  BitVector Slice(size_t offset, size_t length) const;

  /// Raw word storage (little-endian bit order within each word).
  const std::vector<uint64_t>& words() const noexcept { return words_; }

  /// Rebuilds a vector of `num_bits` bits from its word representation —
  /// the exact inverse of words(), used by deserialization so the on-disk
  /// word layout round-trips without a bit-by-bit reconstruction.
  /// Requires words.size() == ceil(num_bits / 64) and every padding bit
  /// past `num_bits` in the last word to be zero (operator== and
  /// PopCount() depend on that invariant); callers deserializing
  /// untrusted input must validate both before calling.
  static BitVector FromWords(size_t num_bits, std::vector<uint64_t> words);

  /// FromWords for untrusted input (snapshot restore, wire payloads):
  /// returns InvalidArgument instead of relying on the debug-only asserts
  /// when the word count does not match ceil(num_bits / 64) or a padding
  /// bit past `num_bits` is set.  A set padding bit would silently skew
  /// every whole-word Hamming distance involving the vector, so it is
  /// rejected at the boundary rather than trusted.
  static Result<BitVector> FromWordsValidated(size_t num_bits,
                                              std::vector<uint64_t> words);

  /// Hamming distance to `other`.  Requires equal sizes.
  size_t HammingDistance(const BitVector& other) const noexcept {
    assert(num_bits_ == other.num_bits_);
    return HammingDistanceWords(words_.data(), other.words_.data(),
                                words_.size());
  }

  /// Hamming distance restricted to the bit range [offset, offset+length),
  /// which must lie within both vectors.  Used for attribute-level
  /// distances on concatenated record vectors without copying.
  size_t HammingDistanceRange(const BitVector& other, size_t offset,
                              size_t length) const noexcept;

  /// Jaccard distance 1 - |a&b| / |a|b| over the set bits; 0 when both are
  /// all-zero (identical empty sets).
  double JaccardDistance(const BitVector& other) const noexcept;

  bool operator==(const BitVector& other) const noexcept {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  /// '0'/'1' string, bit 0 first.  Intended for tests and debugging.
  std::string ToString() const;

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace cbvlink

#endif  // CBVLINK_COMMON_BITVECTOR_H_
