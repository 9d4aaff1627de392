#include "src/common/hamming_kernels.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/common/bitvector.h"
#include "src/common/hamming_kernels_internal.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define CBVLINK_X86_64 1
#endif

namespace cbvlink {

namespace {

// ---------------------------------------------------------------------
// Scalar reference kernels.  `distance` and `range_distance` delegate to
// the inline bitvector.h implementations so there is exactly one scalar
// truth; the batch kernel is the shared row-at-a-time conjunction loop.

size_t ScalarDistance(const uint64_t* a, const uint64_t* b,
                      size_t num_words) {
  return HammingDistanceWords(a, b, num_words);
}

size_t ScalarRangeDistance(const uint64_t* a, const uint64_t* b,
                           size_t offset, size_t length) {
  return HammingDistanceRangeWords(a, b, offset, length);
}

constexpr KernelSet kScalarKernels = {
    "scalar", ScalarDistance, ScalarRangeDistance,
    ConjunctionPerRow<ScalarDistance>,
};

// ---------------------------------------------------------------------
// CPU feature detection.  Raw CPUID + XGETBV rather than
// __builtin_cpu_supports so the probed bit set (notably AVX512VPOPCNTDQ)
// does not depend on the compiler version.

#ifdef CBVLINK_X86_64

uint64_t ReadXcr0() {
  uint32_t eax = 0;
  uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

struct CpuFeatures {
  bool avx2 = false;
  bool avx512_popcnt = false;
};

CpuFeatures ProbeCpu() {
  CpuFeatures features;
  uint32_t eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return features;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  if (!osxsave) return features;  // OS does not manage extended state
  const uint64_t xcr0 = ReadXcr0();
  const bool ymm_enabled = (xcr0 & 0x6) == 0x6;          // XMM + YMM
  const bool zmm_enabled = (xcr0 & 0xe6) == 0xe6;        // + opmask/ZMM
  if (!ymm_enabled) return features;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return features;
  features.avx2 = (ebx & (1u << 5)) != 0;
  const bool avx512f = (ebx & (1u << 16)) != 0;
  const bool avx512dq = (ebx & (1u << 17)) != 0;
  const bool avx512bw = (ebx & (1u << 30)) != 0;
  const bool avx512vl = (ebx & (1u << 31)) != 0;
  const bool avx512vpopcntdq = (ecx & (1u << 14)) != 0;
  features.avx512_popcnt = zmm_enabled && avx512f && avx512dq && avx512bw &&
                           avx512vl && avx512vpopcntdq;
  return features;
}

const CpuFeatures& CachedCpuFeatures() {
  static const CpuFeatures features = ProbeCpu();
  return features;
}

#endif  // CBVLINK_X86_64

std::atomic<const KernelSet*> g_forced_kernels{nullptr};

}  // namespace

MaskedPredicate MaskedPredicate::ForRange(size_t offset, size_t length,
                                          size_t theta) {
  MaskedPredicate pred;
  pred.theta = theta;
  if (length == 0) return pred;
  const size_t last_bit = offset + length - 1;
  pred.first_word = static_cast<uint32_t>(offset >> 6);
  pred.num_words = static_cast<uint32_t>((last_bit >> 6) - (offset >> 6) + 1);
  pred.head_mask = ~uint64_t{0} << (offset & 63);
  pred.tail_mask = ~uint64_t{0} >> (63 - (last_bit & 63));
  if (pred.num_words == 1) {
    pred.head_mask &= pred.tail_mask;
    pred.tail_mask = pred.head_mask;
  }
  return pred;
}

const KernelSet& ScalarKernels() { return kScalarKernels; }

// The per-ISA translation units define these when the toolchain could
// compile them; the stubs below cover builds without the flags.
#if !CBVLINK_HAVE_AVX2_BUILD
const KernelSet* Avx2Kernels() { return nullptr; }
#endif
#if !CBVLINK_HAVE_AVX512_BUILD
const KernelSet* Avx512Kernels() { return nullptr; }
#endif

bool CpuSupportsAvx2() {
#ifdef CBVLINK_X86_64
  return CachedCpuFeatures().avx2;
#else
  return false;
#endif
}

bool CpuSupportsAvx512Popcnt() {
#ifdef CBVLINK_X86_64
  return CachedCpuFeatures().avx512_popcnt;
#else
  return false;
#endif
}

const KernelSet& ResolveKernels(const char* env, bool has_avx2,
                                bool has_avx512, const char** notice) {
  const KernelSet* avx2 = has_avx2 ? Avx2Kernels() : nullptr;
  const KernelSet* avx512 = has_avx512 ? Avx512Kernels() : nullptr;
  const KernelSet& best =
      avx512 != nullptr ? *avx512 : avx2 != nullptr ? *avx2 : kScalarKernels;
  if (env == nullptr || *env == '\0') return best;
  if (std::strcmp(env, "scalar") == 0) return kScalarKernels;
  if (std::strcmp(env, "avx2") == 0) {
    if (avx2 != nullptr) return *avx2;
    if (notice != nullptr) {
      *notice = "CBVLINK_KERNEL=avx2 unavailable (CPU or build lacks AVX2)";
    }
    return kScalarKernels;  // never dispatch above an explicit request
  }
  if (std::strcmp(env, "avx512") == 0) {
    if (avx512 != nullptr) return *avx512;
    if (notice != nullptr) {
      *notice =
          "CBVLINK_KERNEL=avx512 unavailable (CPU or build lacks AVX-512 "
          "VPOPCNTDQ)";
    }
    return avx2 != nullptr ? *avx2 : kScalarKernels;
  }
  if (notice != nullptr) *notice = "unknown CBVLINK_KERNEL value";
  return best;
}

const KernelSet& ActiveKernels() {
  const KernelSet* forced = g_forced_kernels.load(std::memory_order_acquire);
  if (forced != nullptr) return *forced;
  static const KernelSet& resolved = []() -> const KernelSet& {
    const char* notice = nullptr;
    const KernelSet& set =
        ResolveKernels(std::getenv("CBVLINK_KERNEL"), CpuSupportsAvx2(),
                       CpuSupportsAvx512Popcnt(), &notice);
    if (notice != nullptr) {
      std::fprintf(stderr, "cbvlink: %s; using '%s' kernels\n", notice,
                   set.name);
    }
    return set;
  }();
  return resolved;
}

void ForceKernelsForTest(const KernelSet* kernels) {
  g_forced_kernels.store(kernels, std::memory_order_release);
}

}  // namespace cbvlink
