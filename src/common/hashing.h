// Hash families used across the embedding and LSH layers.
//
// * PairwiseHash — the paper's g(x) = ((a*x + b) mod P) mod m with
//   P = 2^31 - 1 (Section 5.2), used to fold q-gram indexes into compact
//   c-vectors.
// * BloomHashFamily — k independent index hashes for the BfH baseline's
//   field-level Bloom filters.  The paper uses MD5/SHA1-derived functions;
//   we substitute the standard double-hashing scheme h_i(x) = h1 + i*h2
//   over two strong 64-bit mixes, which Kirsch & Mitzenmacher showed is
//   asymptotically equivalent for Bloom-filter purposes.
// * Mix64 / HashCombine — general-purpose mixing for bucket keys.

#ifndef CBVLINK_COMMON_HASHING_H_
#define CBVLINK_COMMON_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/random.h"

namespace cbvlink {

/// Mersenne prime 2^31 - 1, the modulus the paper suggests for g(x).
inline constexpr uint64_t kHashPrime = (uint64_t{1} << 31) - 1;

/// Strong 64-bit finalizer (splittable-random / murmur3 style).
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Combines a hash value into an accumulator (boost::hash_combine shape,
/// 64-bit constants).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 12) +
                 (seed >> 4));
}

/// One member of the pairwise-independent family
/// g(x) = ((a*x + b) mod P) mod m, with a, b drawn uniformly from (0, P).
class PairwiseHash {
 public:
  /// Constructs the identity-range hash with given coefficients.
  /// Requires 0 < a < P, 0 <= b < P, m > 0.
  PairwiseHash(uint64_t a, uint64_t b, uint64_t m) : a_(a), b_(b), m_(m) {}

  /// Draws a random member of the family mapping into [0, m).
  static PairwiseHash Random(Rng& rng, uint64_t m);

  /// Applies the hash.
  uint64_t operator()(uint64_t x) const {
    return ((a_ * (x % kHashPrime) + b_) % kHashPrime) % m_;
  }

  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }
  uint64_t range() const { return m_; }

 private:
  uint64_t a_;
  uint64_t b_;
  uint64_t m_;
};

/// k index hashes into [0, num_bits) for Bloom-filter insertion, generated
/// by double hashing from a 64-bit seed.
class BloomHashFamily {
 public:
  /// Creates a family of `k` hashes into [0, num_bits).
  /// Requires k > 0 and num_bits > 0.
  BloomHashFamily(size_t k, size_t num_bits, uint64_t seed)
      : k_(k), num_bits_(num_bits), seed_(seed) {}

  size_t k() const { return k_; }
  size_t num_bits() const { return num_bits_; }

  /// Calls `fn(size_t position)` for each of the k positions of element
  /// `x`, in order.
  template <typename Fn>
  void ForEachPosition(uint64_t x, Fn&& fn) const {
    const uint64_t h1 = Mix64(x ^ seed_);
    const uint64_t h2 = Mix64(x + 0x9e3779b97f4a7c15ULL + seed_) | 1;
    for (size_t i = 0; i < k_; ++i) {
      fn(static_cast<size_t>((h1 + i * h2) % num_bits_));
    }
  }

  /// Appends the k positions for element `x` to `out`.
  void Positions(uint64_t x, std::vector<size_t>* out) const {
    ForEachPosition(x, [out](size_t pos) { out->push_back(pos); });
  }

 private:
  size_t k_;
  size_t num_bits_;
  uint64_t seed_;
};

/// FNV-1a over arbitrary bytes; used for hashing composite blocking keys.
uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0);

}  // namespace cbvlink

#endif  // CBVLINK_COMMON_HASHING_H_
