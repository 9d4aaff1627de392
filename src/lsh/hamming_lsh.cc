#include "src/lsh/hamming_lsh.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "src/common/str.h"

namespace cbvlink {

// The rows lay lanes out as a little-endian 256-bit integer (lane i of
// width w is bits [i * w, (i + 1) * w)), which is how the vector types
// read them only on a little-endian target.
static_assert(std::endian::native == std::endian::little);

HammingHashFunction HammingHashFunction::Sample(size_t K, size_t offset,
                                                size_t range_bits, Rng& rng) {
  // K distinct positions via Floyd's algorithm: for j in [range-K, range)
  // draw t uniform on [0, j]; take t unless already chosen, else j.  Each
  // K-subset is equally likely, with exactly K draws from `rng`.
  // Sampling with replacement here silently weakened the composite hash:
  // a repeated position contributes no selectivity, so an h_l with d
  // duplicates behaves like K-d and the family's collision probability
  // drifts above the (1 - u/m)^K the L calibration assumed.
  std::vector<uint32_t> positions;
  positions.reserve(K);
  const auto chosen = [&](uint32_t pos) {
    for (const uint32_t p : positions) {
      if (p == pos) return true;
    }
    return false;
  };
  for (size_t j = range_bits - K; j < range_bits; ++j) {
    const size_t t = rng.Below(j + 1);
    const uint32_t candidate = static_cast<uint32_t>(offset + t);
    positions.push_back(chosen(candidate)
                            ? static_cast<uint32_t>(offset + j)
                            : candidate);
  }
  return HammingHashFunction(std::move(positions));
}

HammingLshFamily::HammingLshFamily(size_t K,
                                   std::vector<HammingHashFunction> functions)
    : K_(K), functions_(std::move(functions)) {
  // Lanes: chunk c of function l is lane l * chunks + c.  Its bits are
  // positions [64c, 64c + n) in sample order, the first one its most
  // significant (n = 64 but for the last chunk's remainder), exactly as
  // the per-bit packing shifts them in.
  chunks_per_key_ = (K + 63) / 64;
  lane_bits_ = std::max<size_t>(8, std::bit_ceil(std::min<size_t>(K, 64)));
  const size_t lanes_per_block = 256 / lane_bits_;
  const size_t num_lanes = functions_.size() * chunks_per_key_;

  // One contribution per sampled position: its nibble, its bit in the
  // nibble, and the bit it sets in its block's 256-bit row (little-endian
  // lane layout: lane i, bit k is row bit i * lane_bits + k).
  struct Contribution {
    uint32_t nibble_bit;
    uint32_t bit_in_nibble;
    uint32_t row_bit;
  };
  std::vector<std::vector<Contribution>> blocks(
      (num_lanes + lanes_per_block - 1) / lanes_per_block);
  for (size_t l = 0; l < functions_.size(); ++l) {
    const std::vector<uint32_t>& positions = functions_[l].positions();
    for (size_t t = 0; t < positions.size(); ++t) {
      const size_t chunk = t / 64;
      const size_t chunk_bits = std::min<size_t>(64, K - 64 * chunk);
      const size_t lane = l * chunks_per_key_ + chunk;
      const uint32_t pos = positions[t];
      blocks[lane / lanes_per_block].push_back(
          {pos & ~3u, pos & 3u,
           static_cast<uint32_t>((lane % lanes_per_block) * lane_bits_ +
                                 chunk_bits - 1 - (t - 64 * chunk))});
      end_bit_ = std::max<size_t>(end_bit_, size_t{pos} + 1);
    }
  }

  // Entries: per block, each listed nibble in ascending order with its 16
  // rows; row v sets the bits of the contributions whose nibble bit is
  // set in v.
  for (std::vector<Contribution>& block : blocks) {
    std::sort(block.begin(), block.end(),
              [](const Contribution& x, const Contribution& y) {
                return x.nibble_bit < y.nibble_bit;
              });
    for (size_t first = 0; first < block.size();) {
      size_t last = first;
      while (last < block.size() &&
             block[last].nibble_bit == block[first].nibble_bit) {
        ++last;
      }
      nibble_bits_.push_back(block[first].nibble_bit);
      const size_t base = rows_.size();
      rows_.resize(base + 16 * 4, 0);
      for (uint32_t v = 0; v < 16; ++v) {
        for (size_t c = first; c < last; ++c) {
          if ((v >> block[c].bit_in_nibble) & 1) {
            rows_[base + v * 4 + block[c].row_bit / 64] |=
                uint64_t{1} << (block[c].row_bit % 64);
          }
        }
      }
      first = last;
    }
    block_end_.push_back(static_cast<uint32_t>(nibble_bits_.size()));
  }
}

void HammingLshFamily::Keys(const BitVector& bv,
                            std::span<uint64_t> keys) const {
  assert(bv.size() >= end_bit_);
  Keys(bv.words().data(), keys);
}

void HammingLshFamily::Keys(const uint64_t* words,
                            std::span<uint64_t> keys) const {
  assert(keys.size() == L());
  switch (lane_bits_) {
    case 8:
      return KeysWithLanes<uint8_t>(words, keys);
    case 16:
      return KeysWithLanes<uint16_t>(words, keys);
    case 32:
      return KeysWithLanes<uint32_t>(words, keys);
    default:
      return KeysWithLanes<uint64_t>(words, keys);
  }
}

template <typename Lane>
void HammingLshFamily::KeysWithLanes(const uint64_t* words,
                                     std::span<uint64_t> keys) const {
  // GCC/Clang vector extension: a 32-byte block of lanes is OR-ed as two
  // 16-byte halves, the width every x86-64 (SSE2) and AArch64 target
  // holds in registers.  (A 32-byte vector type is lowered through the
  // stack on targets without 32-byte registers.)
  typedef Lane Half __attribute__((vector_size(16)));
  constexpr size_t kLanesPerBlock = 2 * sizeof(Half) / sizeof(Lane);
  const size_t num_lanes = keys.size() * chunks_per_key_;
  const uint32_t* const nibble_bits = nibble_bits_.data();
  const uint64_t* const rows = rows_.data();
  size_t entry = 0;
  size_t lane = 0;
  size_t key = 0;
  size_t chunk = 0;
  uint64_t acc = 0;
  for (const uint32_t block_end : block_end_) {
    Half low = {};
    Half high = {};
    for (; entry < block_end; ++entry) {
      const uint32_t bit = nibble_bits[entry];
      const size_t nibble = (words[bit >> 6] >> (bit & 63)) & 15;
      const uint64_t* const row = rows + (entry * 16 + nibble) * 4;
      Half row_low;
      Half row_high;
      std::memcpy(&row_low, row, sizeof(Half));
      std::memcpy(&row_high, row + 2, sizeof(Half));
      low |= row_low;
      high |= row_high;
    }
    // Fold the block's lanes, in lane order, into keys.
    Lane lanes[kLanesPerBlock];
    for (size_t i = 0; i < kLanesPerBlock / 2; ++i) {
      lanes[i] = low[i];
      lanes[kLanesPerBlock / 2 + i] = high[i];
    }
    for (size_t i = 0; i < kLanesPerBlock && lane < num_lanes; ++i, ++lane) {
      acc = HashCombine(acc, uint64_t{lanes[i]});
      if (++chunk == chunks_per_key_) {
        keys[key++] = acc;
        acc = 0;
        chunk = 0;
      }
    }
  }
}

Result<HammingLshFamily> HammingLshFamily::Create(size_t K, size_t L,
                                                  size_t offset,
                                                  size_t range_bits,
                                                  Rng& rng) {
  if (K == 0) return Status::InvalidArgument("K must be positive");
  if (L == 0) return Status::InvalidArgument("L must be positive");
  if (range_bits == 0) {
    return Status::InvalidArgument(
        StrFormat("empty sampling range at offset %zu", offset));
  }
  if (K > range_bits) {
    return Status::InvalidArgument(
        StrFormat("K = %zu exceeds the %zu-bit sampling range at offset %zu "
                  "(distinct positions require K <= range)",
                  K, range_bits, offset));
  }
  std::vector<std::vector<uint32_t>> lists;
  lists.reserve(L);
  for (size_t l = 0; l < L; ++l) {
    lists.push_back(
        HammingHashFunction::Sample(K, offset, range_bits, rng).positions());
  }
  return FromPositions(std::move(lists));
}

Result<HammingLshFamily> HammingLshFamily::FromPositions(
    std::vector<std::vector<uint32_t>> lists) {
  if (lists.empty()) return Status::InvalidArgument("no position lists");
  const size_t K = lists[0].size();
  if (K == 0) return Status::InvalidArgument("empty position list");
  std::vector<HammingHashFunction> functions;
  functions.reserve(lists.size());
  for (std::vector<uint32_t>& list : lists) {
    if (list.size() != K) {
      return Status::InvalidArgument(
          StrFormat("position lists of %zu and %zu entries", K, list.size()));
    }
    functions.emplace_back(std::move(list));
  }
  return HammingLshFamily(K, std::move(functions));
}

}  // namespace cbvlink
