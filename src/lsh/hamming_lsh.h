// Hamming LSH — the HB mechanism's hash family (Section 4.2).
//
// A base hash function returns the bit at a uniformly sampled position; a
// composite function h_l concatenates K base functions.  The K positions
// are sampled *without* replacement, so two vectors at Hamming distance u
// in an m-bit range collide under h_l with probability
// C(m-u, K) / C(m, K) = prod_{i=0}^{K-1} (m-u-i)/(m-i), which is at most
// the (1 - u/m)^K of Definition 3 — a repeated position would contribute
// no selectivity, quietly inflating collision rates above what the L
// calibration assumed.  The family can be restricted to a bit range of
// the record vector, which is how attribute-level h_l^(f_i) functions are
// built (Section 5.4).
//
// Key of h_l: its K sampled bits, in sample order, packed most-significant
// first into 64-bit chunks (a shorter last chunk holds any remainder),
// folded as acc = HashCombine(acc, chunk) from acc = 0.  Snapshots
// store no keys (a restore recomputes them).
//
// The family computes all L keys of a vector in one table-driven pass
// (DESIGN.md §9).  Every chunk of every function is a lane of the
// smallest width (8, 16, 32 or 64 bits) that holds min(K, 64) bits;
// lanes are grouped into 32-byte blocks.  At Create the family lists,
// per block, the 4-bit nibbles of the vector that hold a sampled
// position of one of the block's lanes, and for each such nibble a
// 16-row table: row v holds, in each lane, the bits that nibble value v
// sets in that lane's chunk.  A key pass ORs one row per listed nibble
// into each block, then folds the lanes into keys.

#ifndef CBVLINK_LSH_HAMMING_LSH_H_
#define CBVLINK_LSH_HAMMING_LSH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bitvector.h"
#include "src/common/hashing.h"
#include "src/common/random.h"
#include "src/common/status.h"

namespace cbvlink {

/// One composite hash function h_l: K sampled bit positions, in sample
/// order.  Its key is computed by the family (HammingLshFamily::Keys).
class HammingHashFunction {
 public:
  /// Samples K *distinct* positions uniformly (Floyd's algorithm) from
  /// [offset, offset + range_bits).  Requires K <= range_bits; the
  /// family's Create enforces that before calling.
  static HammingHashFunction Sample(size_t K, size_t offset,
                                    size_t range_bits, Rng& rng);

  /// The function that samples `positions`, in that order.
  explicit HammingHashFunction(std::vector<uint32_t> positions)
      : positions_(std::move(positions)) {}

  const std::vector<uint32_t>& positions() const { return positions_; }

 private:
  std::vector<uint32_t> positions_;
};

/// Room for `n` blocking keys: on the stack up to kInline keys, on the
/// heap beyond, so a key pass over a usual L allocates nothing.
class KeyBuffer {
 public:
  static constexpr size_t kInline = 256;

  explicit KeyBuffer(size_t n) : n_(n) {
    if (n > kInline) heap_.resize(n);
  }
  KeyBuffer(const KeyBuffer&) = delete;
  KeyBuffer& operator=(const KeyBuffer&) = delete;

  std::span<uint64_t> span() {
    return {n_ > kInline ? heap_.data() : inline_, n_};
  }
  uint64_t operator[](size_t i) const {
    return n_ > kInline ? heap_[i] : inline_[i];
  }

 private:
  size_t n_;
  uint64_t inline_[kInline];
  std::vector<uint64_t> heap_;
};

/// A family of L composite functions over (a range of) an m-bit space.
class HammingLshFamily {
 public:
  /// Creates L composite functions of K distinct base samples over the
  /// bit range [offset, offset + range_bits), and the key-pass tables.
  /// Returns InvalidArgument for zero K, L, or range, and for K >
  /// range_bits.
  static Result<HammingLshFamily> Create(size_t K, size_t L, size_t offset,
                                         size_t range_bits, Rng& rng);

  /// The family whose function l samples lists[l], in list order, with
  /// the key-pass tables (Create is Floyd sampling plus this).  Every
  /// list holds the same number K of positions, K > 0; InvalidArgument
  /// otherwise, and for no lists.
  static Result<HammingLshFamily> FromPositions(
      std::vector<std::vector<uint32_t>> lists);

  /// Convenience: range = the whole vector [0, num_bits).
  static Result<HammingLshFamily> CreateFull(size_t K, size_t L,
                                             size_t num_bits, Rng& rng) {
    return Create(K, L, 0, num_bits, rng);
  }

  size_t K() const { return K_; }
  size_t L() const { return functions_.size(); }

  /// Writes the blocking key of `bv` under h_l to keys[l] for every l,
  /// in one pass.  `keys` holds L() keys; `bv` spans the family's range.
  void Keys(const BitVector& bv, std::span<uint64_t> keys) const;

  /// Keys() of the vector packed in `words` (an arena row, say), which
  /// must span every position the family samples.
  void Keys(const uint64_t* words, std::span<uint64_t> keys) const;

  /// Blocking key of `bv` under h_l alone.  Runs the whole Keys pass;
  /// code that needs several groups' keys calls Keys once.
  uint64_t Key(const BitVector& bv, size_t l) const {
    KeyBuffer keys(L());
    Keys(bv, keys.span());
    return keys[l];
  }

  const HammingHashFunction& function(size_t l) const {
    return functions_[l];
  }

 private:
  HammingLshFamily(size_t K, std::vector<HammingHashFunction> functions);

  /// Keys() for lanes of type `Lane`, 32 bytes of them per block.
  template <typename Lane>
  void KeysWithLanes(const uint64_t* words, std::span<uint64_t> keys) const;

  size_t K_;
  std::vector<HammingHashFunction> functions_;
  /// Lane width in bits: the smallest of 8, 16, 32, 64 holding
  /// min(K, 64); 64-bit chunks per key, ceil(K / 64).
  size_t lane_bits_ = 0;
  size_t chunks_per_key_ = 0;
  /// One past the last bit any function samples; Keys reads no further.
  size_t end_bit_ = 0;
  /// Listed nibbles, block after block: nibble_bits_[e] is the bit
  /// offset of entry e's nibble in the vector, block_end_[b] one past
  /// block b's last entry.
  std::vector<uint32_t> nibble_bits_;
  std::vector<uint32_t> block_end_;
  /// Entry e's 16 rows of 32 bytes: row v at words [(16 e + v) * 4, +4).
  std::vector<uint64_t> rows_;
};

}  // namespace cbvlink

#endif  // CBVLINK_LSH_HAMMING_LSH_H_
