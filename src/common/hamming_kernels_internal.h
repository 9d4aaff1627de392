// Building blocks shared by the per-ISA kernel translation units
// (hamming_kernels.cc, hamming_kernels_avx2.cc, hamming_kernels_avx512.cc).
// Not part of the public API.
//
// Everything here has internal linkage.  Each translation unit compiles
// these helpers with its own ISA flags; a shared inline definition would
// let the linker keep, say, the AVX-512 copy and hand it to a scalar
// caller on a CPU without AVX-512.

#ifndef CBVLINK_COMMON_HAMMING_KERNELS_INTERNAL_H_
#define CBVLINK_COMMON_HAMMING_KERNELS_INTERNAL_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "src/common/hamming_kernels.h"

namespace cbvlink {
namespace {

/// Distance over one predicate's span: masked head and tail words, and
/// the interior words through the ISA's whole-word `Interior` distance.
template <size_t (*Interior)(const uint64_t*, const uint64_t*, size_t)>
inline size_t SpanDistance(const uint64_t* a, const uint64_t* b,
                           const MaskedPredicate& pred) {
  if (pred.num_words == 0) return 0;
  const size_t first = pred.first_word;
  const size_t last = first + pred.num_words - 1;
  size_t dist = static_cast<size_t>(
      std::popcount((a[first] ^ b[first]) & pred.head_mask));
  if (last == first) return dist;
  dist += static_cast<size_t>(
      std::popcount((a[last] ^ b[last]) & pred.tail_mask));
  if (last > first + 1) {
    dist += Interior(a + first + 1, b + first + 1, last - first - 1);
  }
  return dist;
}

/// The row-at-a-time masked-conjunction kernel: predicates in list
/// order, abandoning a row at its first failing predicate.  The scalar
/// set's batch kernel, and every set's path for rows wider than its
/// packed specializations.
template <size_t (*Interior)(const uint64_t*, const uint64_t*, size_t)>
void ConjunctionPerRow(const uint64_t* probe, const uint64_t* rows,
                       size_t stride, const uint32_t* dense, size_t n,
                       const MaskedPredicate* preds, size_t num_preds,
                       uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t* row =
        rows + static_cast<size_t>(dense != nullptr ? dense[i] : i) * stride;
    uint8_t verdict = 1;
    for (size_t p = 0; p < num_preds; ++p) {
      if (SpanDistance<Interior>(probe, row, preds[p]) > preds[p].theta) {
        verdict = 0;
        break;
      }
    }
    out[i] = verdict;
  }
}

/// The mask `pred` applies to word `w` of a row: all-zero outside its
/// span.  The packed 2-word kernels precompute one per word.
inline uint64_t WordMask(const MaskedPredicate& pred, size_t w) {
  if (w < pred.first_word || w >= size_t{pred.first_word} + pred.num_words) {
    return 0;
  }
  uint64_t mask = ~uint64_t{0};
  if (w == pred.first_word) mask &= pred.head_mask;
  if (w == pred.first_word + pred.num_words - 1) mask &= pred.tail_mask;
  return mask;
}

/// Predicates the packed 2-word kernels keep in registers; longer lists
/// take the row-at-a-time path.
constexpr size_t kMaxPackedPredicates = 8;

}  // namespace
}  // namespace cbvlink

#endif  // CBVLINK_COMMON_HAMMING_KERNELS_INTERNAL_H_
