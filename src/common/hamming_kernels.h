// Runtime-dispatched Hamming-distance kernels over word-packed vectors.
//
// The compact Hamming space makes distance computation "particularly
// lightweight" (Section 1); every downstream stage — Algorithm 2's
// blocking comparison, online serving, replication catch-up — bottlenecks
// on pairwise comparison cost.  This layer turns the scalar
// word-at-a-time popcount of bitvector.h into a KernelSet of function
// pointers with scalar, AVX2, and AVX-512 VPOPCNTDQ implementations,
// selected once per process from CPUID so one baseline-x86-64 binary uses
// the widest ISA the host actually has (DESIGN.md §14).
//
// Contracts shared by every implementation:
//  * Operands are zero-padded past the logical bit width (the BitVector
//    invariant, inherited by the VectorStore arena), so whole-word
//    XOR+popcount is exact.
//  * Distances are exact integers — every implementation returns results
//    byte-identical to the scalar reference on any input; the equivalence
//    suite in tests/test_hamming_kernels.cc is the gate.
//  * The batch kernel exposes only the per-row verdict of a conjunction
//    of `distance <= theta` predicates, so it may abandon a candidate
//    once one predicate fails (early-exit); the verdict is still exact.
//
// Selection: ActiveKernels() resolves once, preferring AVX-512 (F+BW+DQ+
// VL+VPOPCNTDQ) over AVX2 over scalar, each gated on both compile-time
// availability and CPUID+XGETBV at runtime — the dispatcher never calls
// into an ISA the CPU lacks.  CBVLINK_KERNEL=scalar|avx2|avx512 overrides
// the choice for tests and CI; requesting an unavailable set falls back
// to the best available one with a one-line stderr notice instead of
// executing an illegal instruction.

#ifndef CBVLINK_COMMON_HAMMING_KERNELS_H_
#define CBVLINK_COMMON_HAMMING_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace cbvlink {

/// One predicate of a masked conjunction: the Hamming distance over one
/// bit segment must be at most `theta`.  The segment is pre-cut into the
/// words it spans plus head and tail masks, so a kernel reads only those
/// words and never re-derives bit offsets per row.
struct MaskedPredicate {
  /// The span [first_word, first_word + num_words); num_words == 0 is an
  /// empty segment (distance 0, so the predicate always holds).
  uint32_t first_word = 0;
  uint32_t num_words = 0;
  /// ANDed into the span's first and last word respectively.  For a
  /// one-word span both hold the combined mask, so a kernel may apply
  /// either one.
  uint64_t head_mask = 0;
  uint64_t tail_mask = 0;
  uint64_t theta = 0;

  /// The predicate "distance over bits [offset, offset + length) <=
  /// theta".
  static MaskedPredicate ForRange(size_t offset, size_t length,
                                  size_t theta);
};

/// One dispatchable family of Hamming kernels.  All function pointers are
/// always non-null.
struct KernelSet {
  /// "scalar", "avx2", or "avx512" — stable names used by CBVLINK_KERNEL,
  /// the telemetry gauge, and the bench kernels dimension.
  const char* name;

  /// Whole-record distance over `num_words` zero-padded words.
  size_t (*distance)(const uint64_t* a, const uint64_t* b, size_t num_words);

  /// Distance restricted to bits [offset, offset + length), which must
  /// lie within both operands.
  size_t (*range_distance)(const uint64_t* a, const uint64_t* b,
                           size_t offset, size_t length);

  /// 1xN masked-conjunction kernel, the batch classifier behind every
  /// AND-of-thresholds rule: for each i in [0, n),
  ///   row_i = rows + (dense ? dense[i] : i) * stride
  ///   out[i] = 1 iff every predicate in preds[0, num_preds) holds for
  ///            (probe, row_i), else 0.
  /// `dense == nullptr` means rows are consecutive (a gathered scratch
  /// buffer); otherwise `dense` holds arena row indices (the matcher's
  /// deduplicated bucket candidates).  Every span must lie within
  /// `stride` words.  An empty list holds for every row.  May abandon a
  /// row once one predicate fails; the verdict is still exact.
  void (*batch_conjunction)(const uint64_t* probe, const uint64_t* rows,
                            size_t stride, const uint32_t* dense, size_t n,
                            const MaskedPredicate* preds, size_t num_preds,
                            uint8_t* out);
};

/// The portable reference implementation; always available.
const KernelSet& ScalarKernels();

/// Compiled-in SIMD sets, or nullptr when the toolchain could not build
/// them.  A non-null return says nothing about the *CPU*: callers must
/// still check CpuSupports*() before executing (ActiveKernels does).
const KernelSet* Avx2Kernels();
const KernelSet* Avx512Kernels();

/// CPUID + XGETBV feature probes (false on non-x86-64 builds).
bool CpuSupportsAvx2();
/// AVX-512 F+BW+DQ+VL+VPOPCNTDQ with OS ZMM state support.
bool CpuSupportsAvx512Popcnt();

/// Pure selection logic, exposed for tests: `env` is the CBVLINK_KERNEL
/// value (nullptr/empty = auto).  Never returns a set the given support
/// flags rule out; unknown or unavailable requests fall back to the best
/// supported set.  `notice`, when non-null, receives a human-readable
/// explanation when the request could not be honoured (left untouched
/// otherwise).
const KernelSet& ResolveKernels(const char* env, bool has_avx2,
                                bool has_avx512, const char** notice);

/// The process-wide active set: resolved once on first call from
/// CBVLINK_KERNEL and the CPU probes, then cached.  Thread-safe.
const KernelSet& ActiveKernels();

/// Test/bench hook: overrides the set ActiveKernels() returns (nullptr
/// restores automatic resolution).  Process-wide, not thread-safe against
/// concurrent matching — flip it only between runs.
void ForceKernelsForTest(const KernelSet* kernels);

}  // namespace cbvlink

#endif  // CBVLINK_COMMON_HAMMING_KERNELS_H_
