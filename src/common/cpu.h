// Run-time CPU dispatch for the SIMD kernels.
//
// A few hot loops (the PCG32 block fill in common/rng.h, the render noise
// in video/raster.cpp, the K = 3 GMM update in vision/gmm.cpp) have x86
// versions compiled with the GCC/Clang target attribute, so the rest of the
// build keeps its baseline ISA and no -march flag is needed.  There are
// three tiers, tried from the top:
//   * kAvx512: AVX512F, AVX512BW, AVX512DQ and AVX512VL, 16 lanes per step;
//   * kAvx2: AVX2, 8 lanes per step;
//   * kScalar: plain C++, on every CPU.
// Each kernel takes the best tier this CPU has (best_simd_tier(), asked
// once per process), and every tier produces the same bytes as the scalar
// one: the headers of the kernels list the rules that keep them equal.  The
// x86 tiers are compiled only where TANGRAM_AVX2_KERNELS is 1: x86-64 builds
// by GCC or Clang, unless TANGRAM_NO_AVX2 is defined.  Defining it
// (-DCMAKE_CXX_FLAGS=-DTANGRAM_NO_AVX2) gives the portable build, which runs
// the scalar kernels only.
//
// GCC 12's avx512fintrin.h trips -Wuninitialized and -Wmaybe-uninitialized
// in its own inline functions (its intrinsics start from a deliberately
// undefined vector; GCC PR 105593).  Both are turned off for the intrinsics
// headers only, never for project code.

#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(TANGRAM_NO_AVX2)
#define TANGRAM_AVX2_KERNELS 1
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
// The target attribute of the AVX-512 tier's functions.
#define TANGRAM_AVX512_TARGET "avx512f,avx512bw,avx512dq,avx512vl"
#else
#define TANGRAM_AVX2_KERNELS 0
#endif

namespace tangram::common {

// The kernel tiers, lowest first.
enum class SimdTier { kScalar, kAvx2, kAvx512 };

// The best tier this process can run: an x86 build on a CPU with the
// tier's instruction sets.
[[nodiscard]] inline SimdTier best_simd_tier() {
#if TANGRAM_AVX2_KERNELS
  static const SimdTier best = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl"))
      return SimdTier::kAvx512;
    if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
    return SimdTier::kScalar;
  }();
  return best;
#else
  return SimdTier::kScalar;
#endif
}

// Whether this process can run `tier`: every tier up to the best one.
[[nodiscard]] inline bool simd_tier_supported(SimdTier tier) {
  return tier <= best_simd_tier();
}

}  // namespace tangram::common
