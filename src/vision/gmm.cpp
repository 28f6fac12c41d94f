#include "vision/gmm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/cpu.h"

namespace tangram::vision {

GmmBackgroundSubtractor::GmmBackgroundSubtractor(common::Size frame,
                                                 GmmParams params)
    : size_(frame), params_(params) {
  if (frame.empty())
    throw std::invalid_argument("GmmBackgroundSubtractor: empty frame size");
  if (params_.num_gaussians < 1 || params_.num_gaussians > 8)
    throw std::invalid_argument("GmmBackgroundSubtractor: K must be in 1..8");
  planes_.assign(3 * static_cast<std::size_t>(frame.area()) *
                     static_cast<std::size_t>(params_.num_gaussians),
                 0.0f);
}

std::vector<GmmBackgroundSubtractor::Gaussian>
GmmBackgroundSubtractor::mixtures() const {
  const auto n = static_cast<std::size_t>(size_.area());
  const auto k = static_cast<std::size_t>(params_.num_gaussians);
  const float* weight = planes_.data();
  const float* mean = weight + k * n;
  const float* variance = mean + k * n;
  std::vector<Gaussian> out(n * k);
  for (std::size_t px = 0; px < n; ++px)
    for (std::size_t i = 0; i < k; ++i)
      out[px * k + i] = Gaussian{weight[i * n + px], mean[i * n + px],
                                 variance[i * n + px]};
  return out;
}

namespace {

using Gaussian = GmmBackgroundSubtractor::Gaussian;

// The parameters in the types the update computes with, read once per frame.
struct Constants {
  explicit Constants(const GmmParams& params)
      : k(params.num_gaussians),
        alpha(static_cast<float>(params.learning_rate)),
        rho(alpha),
        threshold(params.match_threshold),
        background_ratio(params.background_ratio),
        min_variance(static_cast<float>(params.min_variance)),
        initial_weight(static_cast<float>(params.initial_weight)),
        initial_variance(static_cast<float>(params.initial_variance)),
        lone_exact(std::isfinite(alpha)) {}

  int k;
  float alpha;
  // Stauffer-Grimson uses alpha*N(x); the common practical simplification
  // uses alpha directly.
  double rho;
  double threshold;
  double background_ratio;
  float min_variance;
  float initial_weight;
  float initial_variance;
  // The lone-component shortcut needs alpha * 0 == 0.
  bool lone_exact;
};

// The model's planes for one frame of n pixels: component i of a field is
// the n floats at field + i * n.
struct Planes {
  float* weight;
  float* mean;
  float* variance;
  std::size_t n;
};

Planes planes_of(std::vector<float>& planes, int k, std::size_t n) {
  float* base = planes.data();
  const std::size_t field = static_cast<std::size_t>(k) * n;
  return Planes{base, base + field, base + 2 * field, n};
}

// Descending by weight, equal weights kept in their current order.  That is
// exactly what std::sort produced here: libstdc++ insertion-sorts ranges of
// at most 16 elements, and insertion sort is stable.  K = 3 uses the
// equivalent adjacent compare-swap network (a two-pass bubble sort): with K
// fixed at 3, BM_GmmApply/480 runs 1.5x faster with the network than with
// the insertion sort (81M vs 53M px/s, median of 12 alternating runs on a
// 4-CPU Xeon, GCC 12 -O3).
template <int K>
void order_by_weight(Gaussian* mix, int k) {
  if constexpr (K == 3) {
    if (mix[1].weight > mix[0].weight) std::swap(mix[0], mix[1]);
    if (mix[2].weight > mix[1].weight) std::swap(mix[1], mix[2]);
    if (mix[1].weight > mix[0].weight) std::swap(mix[0], mix[1]);
  } else {
    for (int i = 1; i < k; ++i) {
      const Gaussian g = mix[i];
      int j = i;
      for (; j > 0 && g.weight > mix[j - 1].weight; --j) mix[j] = mix[j - 1];
      mix[j] = g;
    }
  }
}

// Steps 1-4 of the update for one pixel whose k components are in `mix`.
// Returns whether the pixel is foreground.
template <int K>
bool update_pixel(const Constants& c, Gaussian* mix, int k, double value) {
  // 1. First matching component, in descending-weight order.
  int matched = -1;
  for (int i = 0; i < k; ++i) {
    if (mix[i].weight <= 0.0f) break;
    const double d = value - mix[i].mean;
    if (d * d <= c.threshold * mix[i].variance) {
      matched = i;
      break;
    }
  }

  if (matched >= 0) {
    // 2a. Pull the matched component toward the value; every weight moves
    //     toward its ownership indicator.
    Gaussian& g = mix[matched];
    const double d = value - g.mean;
    g.mean += static_cast<float>(c.rho * d);
    g.variance += static_cast<float>(c.rho * (d * d - g.variance));
    g.variance = std::max(g.variance, c.min_variance);
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      mix[i].weight +=
          c.alpha * ((i == matched ? 1.0f : 0.0f) - mix[i].weight);
    }
  } else {
    // 2b. Replace the (first) weakest component with one centred on the
    //     value.
    int weakest = 0;
    for (int i = 1; i < k; ++i)
      if (mix[i].weight < mix[weakest].weight) weakest = i;
    mix[weakest] = Gaussian{c.initial_weight, static_cast<float>(value),
                            c.initial_variance};
  }

  // 3. Renormalise and restore descending-weight order.
  float wsum = 0.0f;
  for (int i = 0; i < k; ++i) wsum += std::max(0.0f, mix[i].weight);
  if (wsum > 0.0f)
    for (int i = 0; i < k; ++i) mix[i].weight /= wsum;
  order_by_weight<K>(mix, k);

  // 4. Background = the top components accumulating `background_ratio`
  //    weight.  The pixel is foreground if it matches none of them.
  float acc = 0.0f;
  for (int i = 0; i < k; ++i) {
    if (mix[i].weight <= 0.0f) break;
    acc += mix[i].weight;
    const double d = value - mix[i].mean;
    if (d * d <= c.threshold * mix[i].variance) return false;
    if (acc >= c.background_ratio) break;
  }
  return true;
}

// Classify + update pixels [begin, end), writing the mask to `dst`.  K is
// the mixture size, or 0 to take it from `c`.  `c` and `p` are copies: the
// loop's float stores could alias a referenced Constants, and the compiler
// would then reload every parameter after each store.
template <int K>
void update_scalar(const Constants c, const Planes p,
                   const std::uint8_t* src, std::uint8_t* dst,
                   std::size_t begin, std::size_t end) {
  const int k = K > 0 ? K : c.k;
  const std::size_t n = p.n;
  for (std::size_t px = begin; px < end; ++px) {
    const auto value = static_cast<double>(src[px]);

    // 0. Lone component (weight exactly 1, the others <= 0 and in order)
    //    that matches: steps 2a-4 reduce to the mean/variance update and one
    //    background test, with the same operations in the same order.  See
    //    gmm.h for why this is exact.
    if constexpr (K == 3) {
      const float* w = p.weight + px;
      if (c.lone_exact && w[0] == 1.0f && w[n] <= 0.0f &&
          !(w[2 * n] > w[n])) {
        float& mean = p.mean[px];
        float& variance = p.variance[px];
        const double d = value - mean;
        if (d * d <= c.threshold * variance) {
          mean += static_cast<float>(c.rho * d);
          variance += static_cast<float>(c.rho * (d * d - variance));
          variance = std::max(variance, c.min_variance);
          const double e = value - mean;
          dst[px] = e * e <= c.threshold * variance ? 0 : 255;
          continue;
        }
      }
    }

    std::array<Gaussian, (K > 0 ? K : 8)> mix;
    for (int i = 0; i < k; ++i) {
      const std::size_t at = static_cast<std::size_t>(i) * n + px;
      mix[static_cast<std::size_t>(i)] =
          Gaussian{p.weight[at], p.mean[at], p.variance[at]};
    }
    dst[px] = update_pixel<K>(c, mix.data(), k, value) ? 255 : 0;
    for (int i = 0; i < k; ++i) {
      const std::size_t at = static_cast<std::size_t>(i) * n + px;
      const Gaussian& g = mix[static_cast<std::size_t>(i)];
      p.weight[at] = g.weight;
      p.mean[at] = g.mean;
      p.variance[at] = g.variance;
    }
  }
}

#if TANGRAM_AVX2_KERNELS

// The x86 tiers of the K = 3 update: the primitive operations of each
// width, then the shared body in gmm_lanes.inc.  Each primitive is the
// scalar operation lane by lane, as gmm.h's rules require.

namespace avx2 {

#define TANGRAM_LANES_TARGET __attribute__((target("avx2")))
#define TANGRAM_LANES_INLINE \
  __attribute__((target("avx2"), always_inline)) inline

constexpr std::size_t kWidth = 8;
constexpr int kAllBits = 0xFF;

using F = __m256;
using M = __m256;  // all-ones lanes where set
using D = __m256d;
using I = __m256i;
struct Wide {
  D lo, hi;
};
using WideMask = Wide;  // two all-ones double compares

TANGRAM_LANES_INLINE F load(const float* p) { return _mm256_loadu_ps(p); }
TANGRAM_LANES_INLINE void store(float* p, F x) { _mm256_storeu_ps(p, x); }
TANGRAM_LANES_INLINE F splat(float x) { return _mm256_set1_ps(x); }
TANGRAM_LANES_INLINE D splat(double x) { return _mm256_set1_pd(x); }
TANGRAM_LANES_INLINE F add(F a, F b) { return _mm256_add_ps(a, b); }
TANGRAM_LANES_INLINE F sub(F a, F b) { return _mm256_sub_ps(a, b); }
TANGRAM_LANES_INLINE F mul(F a, F b) { return _mm256_mul_ps(a, b); }
TANGRAM_LANES_INLINE D sub(D a, D b) { return _mm256_sub_pd(a, b); }
TANGRAM_LANES_INLINE D mul(D a, D b) { return _mm256_mul_pd(a, b); }
template <int P>
TANGRAM_LANES_INLINE M cmp(F a, F b) {
  return _mm256_cmp_ps(a, b, P);
}
template <int P>
TANGRAM_LANES_INLINE D cmp(D a, D b) {
  return _mm256_cmp_pd(a, b, P);
}

// Pixel bytes as ints, their exact doubles, their exact floats.
TANGRAM_LANES_INLINE I load_bytes(const std::uint8_t* p) {
  return _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
TANGRAM_LANES_INLINE Wide to_wide(I x) {
  return {_mm256_cvtepi32_pd(_mm256_castsi256_si128(x)),
          _mm256_cvtepi32_pd(_mm256_extracti128_si256(x, 1))};
}
TANGRAM_LANES_INLINE F to_float(I x) { return _mm256_cvtepi32_ps(x); }

// Exact widening (cvtps_pd); narrowing rounds like a scalar cast.
TANGRAM_LANES_INLINE Wide widen(F x) {
  return {_mm256_cvtps_pd(_mm256_castps256_ps128(x)),
          _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1))};
}
TANGRAM_LANES_INLINE F narrow(Wide x) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(x.lo)),
                              _mm256_cvtpd_ps(x.hi), 1);
}

TANGRAM_LANES_INLINE M none() { return _mm256_setzero_ps(); }
TANGRAM_LANES_INLINE M and_(M a, M b) { return _mm256_and_ps(a, b); }
TANGRAM_LANES_INLINE M or_(M a, M b) { return _mm256_or_ps(a, b); }
// !a && b.
TANGRAM_LANES_INLINE M andnot(M a, M b) { return _mm256_andnot_ps(a, b); }
TANGRAM_LANES_INLINE M not_(M a) {
  return _mm256_xor_ps(a, _mm256_castsi256_ps(_mm256_set1_epi32(-1)));
}
TANGRAM_LANES_INLINE int bits(M a) { return _mm256_movemask_ps(a); }

TANGRAM_LANES_INLINE WideMask join(D lo, D hi) { return {lo, hi}; }
TANGRAM_LANES_INLINE int bits(const WideMask& a) {
  return _mm256_movemask_pd(a.lo) | (_mm256_movemask_pd(a.hi) << 4);
}
// Two four-lane double masks as one eight-lane float mask.
TANGRAM_LANES_INLINE M pack(const WideMask& a) {
  const __m256 pairs =
      _mm256_shuffle_ps(_mm256_castpd_ps(a.lo), _mm256_castpd_ps(a.hi),
                        _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(pairs),
                                                _MM_SHUFFLE(3, 1, 2, 0)));
}

// x where mask, else y; x where mask, else 0; w / s where mask, else w
// (div_ps, never an approximate reciprocal).
TANGRAM_LANES_INLINE F pick(M mask, F x, F y) {
  return _mm256_blendv_ps(y, x, mask);
}
TANGRAM_LANES_INLINE F keep(M mask, F x) { return _mm256_and_ps(mask, x); }
TANGRAM_LANES_INLINE F divide_where(M mask, F w, F s) {
  return pick(mask, _mm256_div_ps(w, s), w);
}

// Mask bytes of a block, indexed by its background bits: byte j is 0 where
// bit j is set and 255 where it is clear.
constexpr std::array<std::uint64_t, 256> make_mask_bytes() {
  std::array<std::uint64_t, 256> out{};
  for (std::size_t bits = 0; bits < out.size(); ++bits)
    for (std::size_t j = 0; j < 8; ++j)
      if (((bits >> j) & 1u) == 0) out[bits] |= std::uint64_t{0xFF} << (8 * j);
  return out;
}
constexpr std::array<std::uint64_t, 256> kMaskBytes = make_mask_bytes();

TANGRAM_LANES_INLINE void store_mask(std::uint8_t* dst, int background) {
  const std::uint64_t bytes = kMaskBytes[static_cast<std::size_t>(background)];
  std::memcpy(dst, &bytes, sizeof bytes);
}

#include "vision/gmm_lanes.inc"

#undef TANGRAM_LANES_TARGET
#undef TANGRAM_LANES_INLINE

}  // namespace avx2

namespace avx512 {

#define TANGRAM_LANES_TARGET __attribute__((target(TANGRAM_AVX512_TARGET)))
#define TANGRAM_LANES_INLINE \
  __attribute__((target(TANGRAM_AVX512_TARGET), always_inline)) inline

constexpr std::size_t kWidth = 16;
constexpr int kAllBits = 0xFFFF;

using F = __m512;
using M = __mmask16;  // k-mask: k-mask blends replace blendv
using D = __m512d;
using I = __m512i;
struct Wide {
  D lo, hi;
};
using WideMask = __mmask16;

TANGRAM_LANES_INLINE F load(const float* p) { return _mm512_loadu_ps(p); }
TANGRAM_LANES_INLINE void store(float* p, F x) { _mm512_storeu_ps(p, x); }
TANGRAM_LANES_INLINE F splat(float x) { return _mm512_set1_ps(x); }
TANGRAM_LANES_INLINE D splat(double x) { return _mm512_set1_pd(x); }
TANGRAM_LANES_INLINE F add(F a, F b) { return _mm512_add_ps(a, b); }
TANGRAM_LANES_INLINE F sub(F a, F b) { return _mm512_sub_ps(a, b); }
TANGRAM_LANES_INLINE F mul(F a, F b) { return _mm512_mul_ps(a, b); }
TANGRAM_LANES_INLINE D sub(D a, D b) { return _mm512_sub_pd(a, b); }
TANGRAM_LANES_INLINE D mul(D a, D b) { return _mm512_mul_pd(a, b); }
template <int P>
TANGRAM_LANES_INLINE M cmp(F a, F b) {
  return _mm512_cmp_ps_mask(a, b, P);
}
template <int P>
TANGRAM_LANES_INLINE __mmask8 cmp(D a, D b) {
  return _mm512_cmp_pd_mask(a, b, P);
}

TANGRAM_LANES_INLINE I load_bytes(const std::uint8_t* p) {
  return _mm512_cvtepu8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
TANGRAM_LANES_INLINE Wide to_wide(I x) {
  return {_mm512_cvtepi32_pd(_mm512_castsi512_si256(x)),
          _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(x, 1))};
}
TANGRAM_LANES_INLINE F to_float(I x) { return _mm512_cvtepi32_ps(x); }

TANGRAM_LANES_INLINE Wide widen(F x) {
  return {_mm512_cvtps_pd(_mm512_castps512_ps256(x)),
          _mm512_cvtps_pd(_mm512_extractf32x8_ps(x, 1))};
}
TANGRAM_LANES_INLINE F narrow(Wide x) {
  return _mm512_insertf32x8(_mm512_castps256_ps512(_mm512_cvtpd_ps(x.lo)),
                            _mm512_cvtpd_ps(x.hi), 1);
}

TANGRAM_LANES_INLINE M none() { return 0; }
TANGRAM_LANES_INLINE M and_(M a, M b) { return _kand_mask16(a, b); }
TANGRAM_LANES_INLINE M or_(M a, M b) { return _kor_mask16(a, b); }
TANGRAM_LANES_INLINE M andnot(M a, M b) { return _kandn_mask16(a, b); }
TANGRAM_LANES_INLINE M not_(M a) { return _knot_mask16(a); }
TANGRAM_LANES_INLINE int bits(M a) { return a; }

TANGRAM_LANES_INLINE WideMask join(__mmask8 lo, __mmask8 hi) {
  return _mm512_kunpackb(hi, lo);
}
TANGRAM_LANES_INLINE M pack(WideMask a) { return a; }

TANGRAM_LANES_INLINE F pick(M mask, F x, F y) {
  return _mm512_mask_blend_ps(mask, y, x);
}
TANGRAM_LANES_INLINE F keep(M mask, F x) {
  return _mm512_maskz_mov_ps(mask, x);
}
TANGRAM_LANES_INLINE F divide_where(M mask, F w, F s) {
  return _mm512_mask_div_ps(w, mask, w, s);
}

// Byte j is 0 where bit j of `background` is set and 255 where it is clear.
TANGRAM_LANES_INLINE void store_mask(std::uint8_t* dst, int background) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                   _mm_movm_epi8(_knot_mask16(static_cast<M>(background))));
}

#include "vision/gmm_lanes.inc"

#undef TANGRAM_LANES_TARGET
#undef TANGRAM_LANES_INLINE

}  // namespace avx512

#endif  // TANGRAM_AVX2_KERNELS

}  // namespace

namespace detail {

video::Mask gmm_apply_with(GmmBackgroundSubtractor& gmm,
                           const video::Image& frame, GmmKernel kernel) {
  if (!gmm_kernel_supported(kernel))
    throw std::invalid_argument("gmm_apply_with: kernel not supported");
  return gmm.apply(frame, kernel);
}

}  // namespace detail

video::Mask GmmBackgroundSubtractor::apply(const video::Image& frame) {
  return apply(frame, common::best_simd_tier());
}

video::Mask GmmBackgroundSubtractor::apply(
    const video::Image& frame, [[maybe_unused]] detail::GmmKernel kernel) {
  if (frame.size() != size_)
    throw std::invalid_argument("GmmBackgroundSubtractor: frame size mismatch");

  video::Mask fg(size_.width, size_.height, 0);
  const std::uint8_t* src = frame.data();
  const auto n = static_cast<std::size_t>(size_.area());
  const Planes p = planes_of(planes_, params_.num_gaussians, n);

  if (frames_seen_ == 0) {
    // Bootstrap: initialize the dominant component from the first frame and
    // report no foreground (the model has no history yet).
    const auto variance = static_cast<float>(params_.initial_variance);
    for (std::size_t px = 0; px < n; ++px) {
      p.weight[px] = 1.0f;
      p.mean[px] = static_cast<float>(src[px]);
      p.variance[px] = variance;
    }
#if TANGRAM_AVX2_KERNELS
  } else if (params_.num_gaussians == 3 &&
             kernel == detail::GmmKernel::kAvx512) {
    avx512::update3(Constants(params_), p, src, fg.data());
  } else if (params_.num_gaussians == 3 &&
             kernel == detail::GmmKernel::kAvx2) {
    avx2::update3(Constants(params_), p, src, fg.data());
#endif
  } else if (params_.num_gaussians == 3) {
    update_scalar<3>(Constants(params_), p, src, fg.data(), 0, n);
  } else {
    update_scalar<0>(Constants(params_), p, src, fg.data(), 0, n);
  }
  ++frames_seen_;
  return fg;
}

}  // namespace tangram::vision
