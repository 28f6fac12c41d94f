// Run-time CPU dispatch for the AVX2 kernels.
//
// A few hot loops (the PCG32 block fill in common/rng.h, the render noise
// in video/raster.cpp, the K = 3 GMM update in vision/gmm.cpp) have an AVX2
// version compiled with the GCC/Clang target attribute, so the rest of the
// build keeps its baseline ISA and no -march flag is needed.  Each picks its
// kernel with cpu_has_avx2(), which asks the CPU once per process.  The
// AVX2 kernels are compiled only where TANGRAM_AVX2_KERNELS is 1: x86-64
// builds by GCC or Clang, unless TANGRAM_NO_AVX2 is defined.  Defining it
// (-DCMAKE_CXX_FLAGS=-DTANGRAM_NO_AVX2) gives the portable build, which runs
// the scalar kernels only.  Every AVX2 kernel produces the same bytes as its
// scalar counterpart.

#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(TANGRAM_NO_AVX2)
#define TANGRAM_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define TANGRAM_AVX2_KERNELS 0
#endif

namespace tangram::common {

// Whether this process can run the AVX2 kernels: an AVX2 build on a CPU
// with AVX2.
[[nodiscard]] inline bool cpu_has_avx2() {
#if TANGRAM_AVX2_KERNELS
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

}  // namespace tangram::common
