// AVX-512 Hamming kernels: 512-bit XOR + the VPOPCNTDQ vector popcount.
// Compiled with -mavx512{f,bw,dq,vl,vpopcntdq} in an isolated translation
// unit; the dispatcher only routes here after CPUID+XGETBV confirmed the
// full feature set, so the rest of the binary stays baseline x86-64.
//
// The 2-word cBV specialization (Table 3's 120-bit record) evaluates
// four candidates per zmm register: each candidate's two words occupy one
// 128-bit lane, and per predicate one masked VPOPCNTQ covers all four, a
// pairwise lane add + compare-mask yields four verdicts — the batch shape
// Algorithm 2's candidate loop feeds, for the paper's PL rule as much as
// for a whole-record threshold.

#include "src/common/hamming_kernels.h"

#if CBVLINK_HAVE_AVX512_BUILD

#include <immintrin.h>

#include <bit>

#include "src/common/hamming_kernels_internal.h"

namespace cbvlink {
namespace {

size_t Avx512Distance(const uint64_t* a, const uint64_t* b,
                      size_t num_words) {
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= num_words; w += 8) {
    const __m512i x =
        _mm512_xor_si512(_mm512_loadu_si512(a + w), _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  if (w < num_words) {
    // Masked loads suppress faults on the inactive lanes, so reading at
    // the buffer edge is safe.
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (num_words - w)) - 1u);
    const __m512i x = _mm512_xor_si512(_mm512_maskz_loadu_epi64(mask, a + w),
                                       _mm512_maskz_loadu_epi64(mask, b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  return static_cast<size_t>(_mm512_reduce_add_epi64(acc));
}

size_t Avx512RangeDistance(const uint64_t* a, const uint64_t* b,
                           size_t offset, size_t length) {
  return SpanDistance<Avx512Distance>(
      a, b, MaskedPredicate::ForRange(offset, length, 0));
}

/// 2-word rows (the paper's 120-bit cBV): four candidates per zmm, one
/// per 128-bit lane.  Per predicate: AND with the predicate's two word
/// masks, VPOPCNTQ, a lane-pair add, and a compare that ANDs its verdict
/// into the running mask.
void Avx512Conjunction2(const uint64_t* probe, const uint64_t* rows,
                        const uint32_t* dense, size_t n,
                        const MaskedPredicate* preds, size_t num_preds,
                        uint8_t* out) {
  __m512i masks[kMaxPackedPredicates];
  __m512i thetas[kMaxPackedPredicates];
  for (size_t p = 0; p < num_preds; ++p) {
    masks[p] = _mm512_broadcast_i32x4(
        _mm_set_epi64x(static_cast<long long>(WordMask(preds[p], 1)),
                       static_cast<long long>(WordMask(preds[p], 0))));
    thetas[p] = _mm512_set1_epi64(static_cast<long long>(preds[p].theta));
  }
  // Probe replicated into all four 128-bit lanes.
  const __m512i probe4 = _mm512_broadcast_i32x4(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(probe)));
  const auto row_at = [&](size_t i) {
    return rows + static_cast<size_t>(dense != nullptr ? dense[i] : i) * 2;
  };
  for (size_t i = 0; i < n; i += 4) {
    const size_t count = n - i < 4 ? n - i : 4;
    // Candidate j of this block in lane j; lanes past `count` stay zero
    // and their verdicts are dropped.
    __m512i v;
    if (dense == nullptr) {
      v = _mm512_maskz_loadu_epi64(
          static_cast<__mmask8>((1u << (2 * count)) - 1u), row_at(i));
    } else {
      v = _mm512_setzero_si512();
      for (size_t j = 0; j < count; ++j) {
        const __m128i r =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row_at(i + j)));
        v = _mm512_mask_broadcast_i32x4(
            v, static_cast<__mmask16>(0xfu << (4 * j)), r);
      }
    }
    const __m512i x = _mm512_xor_si512(v, probe4);
    // Qword lanes 0, 2, 4, 6 carry the four candidates' verdicts.
    __mmask8 holds = 0x55;
    for (size_t p = 0; p < num_preds; ++p) {
      const __m512i c = _mm512_popcnt_epi64(_mm512_and_si512(x, masks[p]));
      const __m512i sums = _mm512_add_epi64(c, _mm512_unpackhi_epi64(c, c));
      holds = _mm512_mask_cmple_epu64_mask(holds, sums, thetas[p]);
    }
    for (size_t j = 0; j < count; ++j) {
      out[i + j] = static_cast<uint8_t>((holds >> (2 * j)) & 1);
    }
  }
}

void Avx512BatchConjunction(const uint64_t* probe, const uint64_t* rows,
                            size_t stride, const uint32_t* dense, size_t n,
                            const MaskedPredicate* preds, size_t num_preds,
                            uint8_t* out) {
  if (stride == 2 && num_preds <= kMaxPackedPredicates) {
    Avx512Conjunction2(probe, rows, dense, n, preds, num_preds, out);
  } else {
    ConjunctionPerRow<Avx512Distance>(probe, rows, stride, dense, n, preds,
                                      num_preds, out);
  }
}

constexpr KernelSet kAvx512Kernels = {
    "avx512", Avx512Distance, Avx512RangeDistance, Avx512BatchConjunction,
};

}  // namespace

const KernelSet* Avx512Kernels() { return &kAvx512Kernels; }

}  // namespace cbvlink

#endif  // CBVLINK_HAVE_AVX512_BUILD
