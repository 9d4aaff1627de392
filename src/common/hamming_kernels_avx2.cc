// AVX2 Hamming kernels: 256-bit XOR plus the vpshufb nibble-LUT popcount
// (AVX2 has no vector popcount instruction).  Compiled with -mavx2 in an
// isolated translation unit; nothing here executes unless the dispatcher
// verified AVX2 via CPUID, so the rest of the binary stays baseline
// x86-64.
//
// Shape of the win: the LUT pipeline costs ~8 ops per 256 bits, so it
// pays off on wide records (Bloom-filter configurations, 500+ bits).
// For the 2-word cBV shape the scalar popcnt pair is already near
// optimal; the 2-word conjunction therefore keeps scalar popcnt, XORs
// each row once and evaluates every predicate branch-free instead of
// forcing ymm traffic.

#include "src/common/hamming_kernels.h"

#if CBVLINK_HAVE_AVX2_BUILD

#include <immintrin.h>

#include <bit>

#include "src/common/hamming_kernels_internal.h"

namespace cbvlink {
namespace {

/// Per-64-bit-lane popcount of a 256-bit vector (nibble LUT + SAD).
inline __m256i Popcnt256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline size_t HorizontalSum(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<size_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<size_t>(_mm_extract_epi64(sum, 1));
}

size_t Avx2Distance(const uint64_t* a, const uint64_t* b, size_t num_words) {
  __m256i acc = _mm256_setzero_si256();
  size_t w = 0;
  for (; w + 4 <= num_words; w += 4) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    acc = _mm256_add_epi64(acc, Popcnt256(x));
  }
  size_t dist = HorizontalSum(acc);
  for (; w < num_words; ++w) {
    dist += static_cast<size_t>(std::popcount(a[w] ^ b[w]));
  }
  return dist;
}

size_t Avx2RangeDistance(const uint64_t* a, const uint64_t* b, size_t offset,
                         size_t length) {
  return SpanDistance<Avx2Distance>(
      a, b, MaskedPredicate::ForRange(offset, length, 0));
}

/// 2-word rows (the paper's 120-bit cBV): XOR each row once, then every
/// predicate is two masked popcnts and a compare, with no branch per
/// predicate.
void Avx2Conjunction2(const uint64_t* probe, const uint64_t* rows,
                      const uint32_t* dense, size_t n,
                      const MaskedPredicate* preds, size_t num_preds,
                      uint8_t* out) {
  uint64_t mask0[kMaxPackedPredicates];
  uint64_t mask1[kMaxPackedPredicates];
  for (size_t p = 0; p < num_preds; ++p) {
    mask0[p] = WordMask(preds[p], 0);
    mask1[p] = WordMask(preds[p], 1);
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* row =
        rows + static_cast<size_t>(dense != nullptr ? dense[i] : i) * 2;
    const uint64_t x0 = probe[0] ^ row[0];
    const uint64_t x1 = probe[1] ^ row[1];
    bool verdict = true;
    for (size_t p = 0; p < num_preds; ++p) {
      const uint64_t dist =
          static_cast<uint64_t>(std::popcount(x0 & mask0[p])) +
          static_cast<uint64_t>(std::popcount(x1 & mask1[p]));
      verdict &= dist <= preds[p].theta;
    }
    out[i] = verdict ? 1 : 0;
  }
}

void Avx2BatchConjunction(const uint64_t* probe, const uint64_t* rows,
                          size_t stride, const uint32_t* dense, size_t n,
                          const MaskedPredicate* preds, size_t num_preds,
                          uint8_t* out) {
  if (stride == 2 && num_preds <= kMaxPackedPredicates) {
    Avx2Conjunction2(probe, rows, dense, n, preds, num_preds, out);
  } else {
    ConjunctionPerRow<Avx2Distance>(probe, rows, stride, dense, n, preds,
                                    num_preds, out);
  }
}

constexpr KernelSet kAvx2Kernels = {
    "avx2", Avx2Distance, Avx2RangeDistance, Avx2BatchConjunction,
};

}  // namespace

const KernelSet* Avx2Kernels() { return &kAvx2Kernels; }

}  // namespace cbvlink

#endif  // CBVLINK_HAVE_AVX2_BUILD
