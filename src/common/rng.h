// Deterministic random number generation.
//
// Every stochastic component in the simulator draws from an explicitly seeded
// Rng so experiments are bit-reproducible across runs and machines.  The
// engine is PCG32 (O'Neill 2014): tiny state, excellent statistical quality,
// and — unlike std::mt19937 — identical streams across standard libraries.
//
// Thread-safety / per-sim seeding contract (audited for the parallel sweep
// runner): Rng is a 16-byte value type with NO static or global state — this
// header defines no globals, never touches ::rand/std::random_device, and
// every draw mutates only the owning object.  Each simulation owns its Rngs
// (seeded from its config seed, decorrelated via the `stream` parameter or
// fork()), so any number of sims can run concurrently on different threads
// and each produces the byte-identical result it would produce alone.  Do
// not share one Rng object across sims or threads — hand each consumer its
// own seeded instance instead, which is also what keeps results independent
// of scheduling order.
//
// Block draws.  fill_u32() writes the next n next_u32() outputs at once, on
// the best SIMD tier of the CPU (common/cpu.h).  The AVX-512 tier runs 16
// PCG32 states side by side, states k .. k + 15 of the one sequence, each
// stepped 16 at a time by the jump-ahead constants: 16 steps of
// state' = A * state + inc are one step of
// state' = A^16 * state + (1 + A + ... + A^15) * inc.  It multiplies with
// the exact 64-bit vpmullq, narrows each lane's xorshifted word and rotation
// count to 32 bits (vpmovqd keeps the low half, as the scalar casts do) and
// rotates with vprord.  The AVX2 tier runs eight states with A^8 and
// (1 + ... + A^7) * inc, its 64-bit multiply built from three 32 x 32 -> 64
// ones.  Integer arithmetic mod 2^64 is exact, so on every tier the outputs
// and the state left behind are those of n next_u32() calls, bit for bit;
// the last n % 16 (or n % 8) words are next_u32() calls.  draw_avx512()
// hands the AVX-512 tier's blocks of 16 words to a caller's function while
// they are still in registers (the render noise converts them there), and
// keeps the state private to the Rng as fill_u32() does.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <stdexcept>

#include "common/cpu.h"

namespace tangram::common {

class Rng {
 public:
  // `seed` selects the stream content; `stream` selects one of 2^63
  // independent sequences for the same seed (used to decorrelate e.g.
  // per-camera noise from per-function latency jitter).
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 1) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    next_u32();
    state_ += seed;
    next_u32();
  }

  std::uint32_t next_u32() {
    const std::uint64_t old = state_;
    state_ = old * kMult + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  // Writes the next n next_u32() outputs to out[0 .. n) and leaves the
  // generator where n next_u32() calls would.
  void fill_u32(std::uint32_t* out, std::size_t n) {
    fill_u32(out, n, best_simd_tier());
  }

  // fill_u32() on `tier`, which must be supported (simd_tier_supported).
  // Every tier writes the same words; for tests and benchmarks.
  void fill_u32(std::uint32_t* out, std::size_t n, SimdTier tier) {
    if (!simd_tier_supported(tier))
      throw std::invalid_argument("Rng::fill_u32: tier not supported");
#if TANGRAM_AVX2_KERNELS
    std::size_t done = 0;
    if (tier == SimdTier::kAvx512)
      done = fill_u32_avx512(out, n);
    else if (tier == SimdTier::kAvx2 && n >= 8)
      done = fill_u32_avx2(out, n);
    out += done;
    n -= done;
#endif
    for (std::size_t i = 0; i < n; ++i) out[i] = next_u32();
  }

#if TANGRAM_AVX2_KERNELS
  // The AVX-512 tier's draw: the next n - n % 16 outputs, 16 at a time, in
  // order.  Block b goes to sink(16 * b, first, second), the block's
  // outputs 0 .. 7 in `first` and 8 .. 15 in `second`.  Returns how many
  // outputs it drew and leaves the generator after them.  Call it only
  // where simd_tier_supported(SimdTier::kAvx512), with a sink callable from
  // an AVX-512 function (a lambda with TANGRAM_AVX512_TARGET).  The states
  // of a block's outputs 0 .. 7 are in `lo`, those of 8 .. 15 in `hi`.
  template <class Sink>
  __attribute__((target(TANGRAM_AVX512_TARGET))) std::size_t draw_avx512(
      std::size_t n, Sink&& sink) {
    static constexpr std::size_t kLanes = 16;
    static constexpr Jump kJump = jump(static_cast<int>(kLanes));
    if (n < kLanes) return 0;
    long long s[kLanes] = {};
    for (auto& lane : s) {
      lane = static_cast<long long>(state_);
      state_ = state_ * kMult + inc_;
    }
    __m512i lo = _mm512_loadu_si512(s);
    __m512i hi = _mm512_loadu_si512(s + 8);
    const __m512i mult = _mm512_set1_epi64(static_cast<long long>(kJump.mult));
    const __m512i inc =
        _mm512_set1_epi64(static_cast<long long>(kJump.inc_scale * inc_));
    const std::size_t blocks = n / kLanes;
    for (std::size_t b = 0; b < blocks; ++b) {
      sink(b * kLanes, output_words(lo), output_words(hi));
      lo = _mm512_add_epi64(_mm512_mullo_epi64(lo, mult), inc);
      hi = _mm512_add_epi64(_mm512_mullo_epi64(hi, mult), inc);
    }
    state_ = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm512_castsi512_si128(lo)));
    return blocks * kLanes;
  }
#endif

  std::uint64_t next_u64() {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  // Uniform in [0, 1).
  double uniform() { return next_u32() * 0x1.0p-32; }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  int uniform_int(int lo, int hi) {
    const auto span = static_cast<std::uint32_t>(hi - lo + 1);
    return lo + static_cast<int>(bounded(span));
  }

  bool bernoulli(double p) { return uniform() < p; }

  // Standard normal via Box–Muller (no cached second value — simplicity over
  // a 2x speedup that never matters here).
  double normal() {
    double u1 = uniform();
    if (u1 <= 1e-300) u1 = 1e-300;
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  // Lognormal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  double exponential(double rate) {
    double u = uniform();
    if (u <= 1e-300) u = 1e-300;
    return -std::log(u) / rate;
  }

  int poisson(double mean) {
    // Knuth's algorithm; fine for the small means used here (< ~50).
    const double limit = std::exp(-mean);
    int k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }

  // Derive an independent child generator (e.g. one per camera).
  Rng fork(std::uint64_t salt) {
    return Rng(next_u64() ^ (salt * 0x9e3779b97f4a7c15ULL), next_u64() | 1);
  }

 private:
  static constexpr std::uint64_t kMult = 6364136223846793005ULL;  // A

  // k steps at once: state_{i+k} = mult * state_i + inc_scale * inc_.
  struct Jump {
    std::uint64_t mult;
    std::uint64_t inc_scale;
  };
  static constexpr Jump jump(int steps) {
    Jump j{1, 0};
    for (int k = 0; k < steps; ++k)
      j = {j.mult * kMult, j.inc_scale * kMult + 1};
    return j;
  }

#if TANGRAM_AVX2_KERNELS
  // One step of four lanes: s * mult + inc mod 2^64, the 64-bit product
  // built from three 32 x 32 -> 64 multiplies (the high x high term only
  // reaches bits >= 64).
  __attribute__((target("avx2"), always_inline)) static __m256i step_lanes(
      __m256i s, __m256i mult, __m256i mult_hi, __m256i inc) {
    const __m256i lo = _mm256_mul_epu32(s, mult);
    const __m256i cross = _mm256_add_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64(s, 32), mult),
        _mm256_mul_epu32(s, mult_hi));
    return _mm256_add_epi64(
        _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32)), inc);
  }

  // next_u32()'s output function of four lanes, in each lane's low 32 bits.
  // The xorshifted word is copied into both halves, so a 64-bit right shift
  // by rot leaves its 32-bit right rotation in the low half.
  __attribute__((target("avx2"), always_inline)) static __m256i output_lanes(
      __m256i s) {
    const __m256i x = _mm256_srli_epi64(
        _mm256_xor_si256(_mm256_srli_epi64(s, 18), s), 27);
    const __m256i both = _mm256_blend_epi32(x, _mm256_slli_epi64(x, 32), 0xAA);
    return _mm256_srlv_epi64(both, _mm256_srli_epi64(s, 59));
  }

  // fill_u32() for the whole blocks of eight in out[0 .. n); returns how
  // many outputs it wrote.  Lanes `even` hold the states of a block's
  // outputs 0, 2, 4, 6 and `odd` those of 1, 3, 5, 7, so one blend
  // interleaves the two into output order.
  __attribute__((target("avx2"))) std::size_t fill_u32_avx2(
      std::uint32_t* out, std::size_t n) {
    static constexpr std::size_t kLanes = 8;
    static constexpr Jump kJump = jump(static_cast<int>(kLanes));
    long long s[kLanes] = {};
    for (auto& lane : s) {
      lane = static_cast<long long>(state_);
      state_ = state_ * kMult + inc_;
    }
    __m256i even = _mm256_setr_epi64x(s[0], s[2], s[4], s[6]);
    __m256i odd = _mm256_setr_epi64x(s[1], s[3], s[5], s[7]);
    const __m256i mult = _mm256_set1_epi64x(static_cast<long long>(kJump.mult));
    const __m256i mult_hi =
        _mm256_set1_epi64x(static_cast<long long>(kJump.mult >> 32));
    const __m256i inc =
        _mm256_set1_epi64x(static_cast<long long>(kJump.inc_scale * inc_));
    const std::size_t blocks = n / kLanes;
    for (std::size_t b = 0; b < blocks; ++b) {
      const __m256i words =
          _mm256_blend_epi32(output_lanes(even),
                             _mm256_slli_epi64(output_lanes(odd), 32), 0xAA);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + b * kLanes), words);
      even = step_lanes(even, mult, mult_hi, inc);
      odd = step_lanes(odd, mult, mult_hi, inc);
    }
    state_ = static_cast<std::uint64_t>(
        _mm_cvtsi128_si64(_mm256_castsi256_si128(even)));
    return blocks * kLanes;
  }

  // next_u32()'s output function of eight lanes: the low 32 bits of the
  // xorshifted word and of the rotation count, then a 32-bit rotate.
  __attribute__((target(TANGRAM_AVX512_TARGET), always_inline)) static __m256i
  output_words(__m512i s) {
    const __m512i x = _mm512_srli_epi64(
        _mm512_xor_si512(_mm512_srli_epi64(s, 18), s), 27);
    return _mm256_rorv_epi32(_mm512_cvtepi64_epi32(x),
                             _mm512_cvtepi64_epi32(_mm512_srli_epi64(s, 59)));
  }

  // fill_u32() for the whole blocks of 16 in out[0 .. n); returns how many
  // outputs it wrote.
  __attribute__((target(TANGRAM_AVX512_TARGET))) std::size_t fill_u32_avx512(
      std::uint32_t* out, std::size_t n) {
    return draw_avx512(
        n, [out](std::size_t i, __m256i first, __m256i second) __attribute__((
               target(TANGRAM_AVX512_TARGET), always_inline)) {
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), first);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 8), second);
        });
  }
#endif

  // Lemire-style unbiased bounded draw.
  std::uint32_t bounded(std::uint32_t bound) {
    if (bound <= 1) return 0;
    const std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint32_t r = next_u32();
      if (r >= threshold) return r % bound;
    }
  }

  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
};

}  // namespace tangram::common
