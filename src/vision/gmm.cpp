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

// The K = 3 update, eight pixels per step, as lane masks.  Every helper is
// inlined into update3_avx2, the one function compiled for AVX2; the rules
// that keep each lane equal to the scalar update are listed in gmm.h.
#define TANGRAM_AVX2_INLINE \
  __attribute__((target("avx2"), always_inline)) inline

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

// Eight doubles: pixels 0-3 in lo, 4-7 in hi.
struct Lanes {
  __m256d lo, hi;
};

// One component of eight pixels.
struct Component {
  __m256 weight, mean, variance;
};

TANGRAM_AVX2_INLINE Lanes widen(__m256 x) {
  return {_mm256_cvtps_pd(_mm256_castps256_ps128(x)),
          _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1))};
}

TANGRAM_AVX2_INLINE __m256 narrow(__m256d lo, __m256d hi) {
  return _mm256_insertf128_ps(_mm256_castps128_ps256(_mm256_cvtpd_ps(lo)),
                              _mm256_cvtpd_ps(hi), 1);
}

// Two four-lane double masks as one eight-lane float mask.
TANGRAM_AVX2_INLINE __m256 pack_mask(__m256d lo, __m256d hi) {
  const __m256 pairs =
      _mm256_shuffle_ps(_mm256_castpd_ps(lo), _mm256_castpd_ps(hi),
                        _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(pairs),
                                                _MM_SHUFFLE(3, 1, 2, 0)));
}

// !(w <= 0): the scalar loops' "keep going" test, true for NaN.
TANGRAM_AVX2_INLINE __m256 not_le_zero(__m256 w) {
  return _mm256_cmp_ps(w, _mm256_setzero_ps(), _CMP_NLE_UQ);
}

// d * d <= threshold * variance with d = value - mean, in double, as two
// four-lane double masks ...
TANGRAM_AVX2_INLINE Lanes matches_lanes(const Lanes& value, __m256 mean,
                                        __m256 variance, __m256d threshold) {
  const Lanes m = widen(mean);
  const Lanes v = widen(variance);
  const __m256d dlo = _mm256_sub_pd(value.lo, m.lo);
  const __m256d dhi = _mm256_sub_pd(value.hi, m.hi);
  return {_mm256_cmp_pd(_mm256_mul_pd(dlo, dlo),
                        _mm256_mul_pd(threshold, v.lo), _CMP_LE_OQ),
          _mm256_cmp_pd(_mm256_mul_pd(dhi, dhi),
                        _mm256_mul_pd(threshold, v.hi), _CMP_LE_OQ)};
}

// ... and as one eight-lane float mask.
TANGRAM_AVX2_INLINE __m256 matches(const Lanes& value, __m256 mean,
                                   __m256 variance, __m256d threshold) {
  const Lanes hit = matches_lanes(value, mean, variance, threshold);
  return pack_mask(hit.lo, hit.hi);
}

// mean += float(rho * d); variance += float(rho * (d * d - variance));
// variance = std::max(variance, min_variance).
TANGRAM_AVX2_INLINE void pull(const Lanes& value, __m256& mean,
                              __m256& variance, __m256d rho,
                              __m256 min_variance) {
  const Lanes m = widen(mean);
  const Lanes v = widen(variance);
  const __m256d dlo = _mm256_sub_pd(value.lo, m.lo);
  const __m256d dhi = _mm256_sub_pd(value.hi, m.hi);
  mean = _mm256_add_ps(
      mean, narrow(_mm256_mul_pd(rho, dlo), _mm256_mul_pd(rho, dhi)));
  const __m256d slo = _mm256_sub_pd(_mm256_mul_pd(dlo, dlo), v.lo);
  const __m256d shi = _mm256_sub_pd(_mm256_mul_pd(dhi, dhi), v.hi);
  variance = _mm256_add_ps(
      variance, narrow(_mm256_mul_pd(rho, slo), _mm256_mul_pd(rho, shi)));
  variance = _mm256_blendv_ps(
      variance, min_variance,
      _mm256_cmp_ps(variance, min_variance, _CMP_LT_OQ));
}

// w + alpha * ((owner ? 1.0f : 0.0f) - w).
TANGRAM_AVX2_INLINE __m256 toward(__m256 w, __m256 owner, __m256 alpha) {
  return _mm256_add_ps(
      w, _mm256_mul_ps(alpha, _mm256_sub_ps(
                                  _mm256_and_ps(owner, _mm256_set1_ps(1.0f)),
                                  w)));
}

// std::max(0.0f, w), i.e. (0 < w) ? w : 0.
TANGRAM_AVX2_INLINE __m256 positive_part(__m256 w) {
  return _mm256_and_ps(_mm256_cmp_ps(_mm256_setzero_ps(), w, _CMP_LT_OQ), w);
}

// (double)acc >= ratio.
TANGRAM_AVX2_INLINE __m256 at_least(__m256 acc, __m256d ratio) {
  const Lanes a = widen(acc);
  return pack_mask(_mm256_cmp_pd(a.lo, ratio, _CMP_GE_OQ),
                   _mm256_cmp_pd(a.hi, ratio, _CMP_GE_OQ));
}

// x where mask, else y.
TANGRAM_AVX2_INLINE __m256 pick(__m256 mask, __m256 x, __m256 y) {
  return _mm256_blendv_ps(y, x, mask);
}

TANGRAM_AVX2_INLINE Component pick(__m256 mask, const Component& x,
                                   const Component& y) {
  return {pick(mask, x.weight, y.weight), pick(mask, x.mean, y.mean),
          pick(mask, x.variance, y.variance)};
}

// if (b.weight > a.weight) std::swap(a, b);
TANGRAM_AVX2_INLINE void order_pair(Component& a, Component& b) {
  const __m256 swap = _mm256_cmp_ps(b.weight, a.weight, _CMP_GT_OQ);
  const Component first = pick(swap, b, a);
  b = pick(swap, a, b);
  a = first;
}

TANGRAM_AVX2_INLINE __m256 load(const float* p) { return _mm256_loadu_ps(p); }

// The mask bytes of eight pixels from their background bits.
TANGRAM_AVX2_INLINE void store_mask(std::uint8_t* dst, int background) {
  const std::uint64_t bytes = kMaskBytes[static_cast<std::size_t>(background)];
  std::memcpy(dst, &bytes, sizeof bytes);
}

TANGRAM_AVX2_INLINE int bits(const Lanes& mask) {
  return _mm256_movemask_pd(mask.lo) | (_mm256_movemask_pd(mask.hi) << 4);
}

__attribute__((target("avx2"))) void update3_avx2(const Constants& c,
                                                  const Planes& p,
                                                  const std::uint8_t* src,
                                                  std::uint8_t* dst) {
  const std::size_t n = p.n;
  float* const w[3] = {p.weight, p.weight + n, p.weight + 2 * n};
  float* const m[3] = {p.mean, p.mean + n, p.mean + 2 * n};
  float* const v[3] = {p.variance, p.variance + n, p.variance + 2 * n};

  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 all = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  const __m256 alpha = _mm256_set1_ps(c.alpha);
  const __m256 min_variance = _mm256_set1_ps(c.min_variance);
  const __m256 initial_weight = _mm256_set1_ps(c.initial_weight);
  const __m256 initial_variance = _mm256_set1_ps(c.initial_variance);
  const __m256d rho = _mm256_set1_pd(c.rho);
  const __m256d threshold = _mm256_set1_pd(c.threshold);
  const __m256d ratio = _mm256_set1_pd(c.background_ratio);
  const bool lone_exact = c.lone_exact;

  std::size_t px = 0;
  for (; px + 8 <= n; px += 8) {
    const __m256i bytes = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + px)));
    const Lanes value{
        _mm256_cvtepi32_pd(_mm256_castsi256_si128(bytes)),
        _mm256_cvtepi32_pd(_mm256_extracti128_si256(bytes, 1))};
    Component g0{load(w[0] + px), load(m[0] + px), load(v[0] + px)};
    const __m256 w1 = load(w[1] + px);
    const __m256 w2 = load(w[2] + px);
    const Lanes near0 = matches_lanes(value, g0.mean, g0.variance, threshold);

    // 0. All eight lanes lone and matching component 0: only its mean and
    //    variance change (see gmm.h).
    if (lone_exact) {
      const __m256 lone = _mm256_and_ps(
          _mm256_and_ps(_mm256_cmp_ps(g0.weight, one, _CMP_EQ_OQ),
                        _mm256_cmp_ps(w1, zero, _CMP_LE_OQ)),
          _mm256_cmp_ps(w2, w1, _CMP_NGT_UQ));
      if ((_mm256_movemask_ps(lone) & bits(near0)) == 0xFF) {
        pull(value, g0.mean, g0.variance, rho, min_variance);
        _mm256_storeu_ps(m[0] + px, g0.mean);
        _mm256_storeu_ps(v[0] + px, g0.variance);
        store_mask(dst + px, bits(matches_lanes(value, g0.mean, g0.variance,
                                                threshold)));
        continue;
      }
    }

    Component g1{w1, load(m[1] + px), load(v[1] + px)};
    Component g2{w2, load(m[2] + px), load(v[2] + px)};

    // 1. First matching component: a lane searches component i while every
    //    earlier component was live and missed.  Most blocks stop at
    //    component 0, and skipping a test no lane reaches changes no lane.
    const __m256 live0 = not_le_zero(g0.weight);
    const __m256 live1 = not_le_zero(g1.weight);
    const __m256 live2 = not_le_zero(g2.weight);
    const __m256 hit0 = _mm256_and_ps(live0, pack_mask(near0.lo, near0.hi));
    const __m256 seek1 = _mm256_and_ps(_mm256_andnot_ps(hit0, live0), live1);
    __m256 hit1 = zero;
    __m256 hit2 = zero;
    if (_mm256_movemask_ps(seek1) != 0) {
      hit1 = _mm256_and_ps(
          seek1, matches(value, g1.mean, g1.variance, threshold));
      const __m256 seek2 =
          _mm256_and_ps(_mm256_andnot_ps(hit1, seek1), live2);
      if (_mm256_movemask_ps(seek2) != 0)
        hit2 = _mm256_and_ps(
            seek2, matches(value, g2.mean, g2.variance, threshold));
    }
    const __m256 matched = _mm256_or_ps(_mm256_or_ps(hit0, hit1), hit2);
    const __m256 missed = _mm256_xor_ps(matched, all);

    // 2b's first weakest component, from the weights before any update:
    // weakest = 0, then each i with w[i] < w[weakest].
    const __m256 lt1 = _mm256_cmp_ps(g1.weight, g0.weight, _CMP_LT_OQ);
    const __m256 lt2 = _mm256_cmp_ps(
        g2.weight, pick(lt1, g1.weight, g0.weight), _CMP_LT_OQ);

    // 2a. Pull the matched component toward the value ...
    __m256 mean = pick(hit2, g2.mean, pick(hit1, g1.mean, g0.mean));
    __m256 variance =
        pick(hit2, g2.variance, pick(hit1, g1.variance, g0.variance));
    pull(value, mean, variance, rho, min_variance);
    g0.mean = pick(hit0, mean, g0.mean);
    g1.mean = pick(hit1, mean, g1.mean);
    g2.mean = pick(hit2, mean, g2.mean);
    g0.variance = pick(hit0, variance, g0.variance);
    g1.variance = pick(hit1, variance, g1.variance);
    g2.variance = pick(hit2, variance, g2.variance);
    //     ... and move the weights up to the first one <= 0 toward their
    //     ownership indicators.
    const __m256 up0 = _mm256_and_ps(matched, live0);
    const __m256 up1 = _mm256_and_ps(up0, live1);
    const __m256 up2 = _mm256_and_ps(up1, live2);
    g0.weight = pick(up0, toward(g0.weight, hit0, alpha), g0.weight);
    g1.weight = pick(up1, toward(g1.weight, hit1, alpha), g1.weight);
    g2.weight = pick(up2, toward(g2.weight, hit2, alpha), g2.weight);

    // 2b. No match: replace the weakest component with one centred on the
    //     value.
    if (_mm256_movemask_ps(missed) != 0) {
      const Component here{initial_weight, _mm256_cvtepi32_ps(bytes),
                           initial_variance};
      g0 = pick(_mm256_andnot_ps(_mm256_or_ps(lt1, lt2), missed), here, g0);
      g1 = pick(_mm256_andnot_ps(lt2, _mm256_and_ps(missed, lt1)), here, g1);
      g2 = pick(_mm256_and_ps(missed, lt2), here, g2);
    }

    // 3. Renormalise (std::max(0.0f, w) summed in order) and restore
    //    descending-weight order.  The network swaps nothing in a lane
    //    unless one of its first two compares holds.
    const __m256 wsum = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(zero, positive_part(g0.weight)),
                      positive_part(g1.weight)),
        positive_part(g2.weight));
    const __m256 positive = _mm256_cmp_ps(wsum, zero, _CMP_GT_OQ);
    g0.weight = pick(positive, _mm256_div_ps(g0.weight, wsum), g0.weight);
    g1.weight = pick(positive, _mm256_div_ps(g1.weight, wsum), g1.weight);
    g2.weight = pick(positive, _mm256_div_ps(g2.weight, wsum), g2.weight);
    if (_mm256_movemask_ps(_mm256_or_ps(
            _mm256_cmp_ps(g1.weight, g0.weight, _CMP_GT_OQ),
            _mm256_cmp_ps(g2.weight, g1.weight, _CMP_GT_OQ))) != 0) {
      order_pair(g0, g1);
      order_pair(g1, g2);
      order_pair(g0, g1);
    }

    // 4. Background test: walk the components while they are live, have
    //    not matched and have not accumulated background_ratio.
    const __m256 on0 = not_le_zero(g0.weight);
    __m256 acc = _mm256_add_ps(zero, g0.weight);
    const __m256 bg0 = _mm256_and_ps(
        on0, matches(value, g0.mean, g0.variance, threshold));
    const __m256 on1 = _mm256_and_ps(
        _mm256_andnot_ps(_mm256_or_ps(bg0, at_least(acc, ratio)), on0),
        not_le_zero(g1.weight));
    __m256 background = bg0;
    if (_mm256_movemask_ps(on1) != 0) {
      acc = _mm256_add_ps(acc, g1.weight);
      const __m256 bg1 = _mm256_and_ps(
          on1, matches(value, g1.mean, g1.variance, threshold));
      background = _mm256_or_ps(background, bg1);
      const __m256 on2 = _mm256_and_ps(
          _mm256_andnot_ps(_mm256_or_ps(bg1, at_least(acc, ratio)), on1),
          not_le_zero(g2.weight));
      if (_mm256_movemask_ps(on2) != 0)
        background = _mm256_or_ps(
            background, _mm256_and_ps(on2, matches(value, g2.mean,
                                                   g2.variance, threshold)));
    }
    store_mask(dst + px, _mm256_movemask_ps(background));

    _mm256_storeu_ps(w[0] + px, g0.weight);
    _mm256_storeu_ps(w[1] + px, g1.weight);
    _mm256_storeu_ps(w[2] + px, g2.weight);
    _mm256_storeu_ps(m[0] + px, g0.mean);
    _mm256_storeu_ps(m[1] + px, g1.mean);
    _mm256_storeu_ps(m[2] + px, g2.mean);
    _mm256_storeu_ps(v[0] + px, g0.variance);
    _mm256_storeu_ps(v[1] + px, g1.variance);
    _mm256_storeu_ps(v[2] + px, g2.variance);
  }
  update_scalar<3>(c, p, src, dst, px, n);
}

#undef TANGRAM_AVX2_INLINE

#else

// Never called: gmm_kernel_supported(kAvx2) is false in this build.
void update3_avx2(const Constants& c, const Planes& p, const std::uint8_t* src,
                  std::uint8_t* dst) {
  update_scalar<3>(c, p, src, dst, 0, p.n);
}

#endif  // TANGRAM_AVX2_KERNELS

}  // namespace

namespace detail {

bool gmm_kernel_supported(GmmKernel kernel) {
  return kernel == GmmKernel::kScalar || common::cpu_has_avx2();
}

video::Mask gmm_apply_with(GmmBackgroundSubtractor& gmm,
                           const video::Image& frame, GmmKernel kernel) {
  if (!gmm_kernel_supported(kernel))
    throw std::invalid_argument("gmm_apply_with: kernel not supported");
  return gmm.apply(frame, kernel);
}

}  // namespace detail

video::Mask GmmBackgroundSubtractor::apply(const video::Image& frame) {
  static const detail::GmmKernel kernel =
      detail::gmm_kernel_supported(detail::GmmKernel::kAvx2)
          ? detail::GmmKernel::kAvx2
          : detail::GmmKernel::kScalar;
  return apply(frame, kernel);
}

video::Mask GmmBackgroundSubtractor::apply(
    const video::Image& frame, detail::GmmKernel kernel) {
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
  } else if (params_.num_gaussians == 3 &&
             kernel == detail::GmmKernel::kAvx2) {
    update3_avx2(Constants(params_), p, src, fg.data());
  } else if (params_.num_gaussians == 3) {
    update_scalar<3>(Constants(params_), p, src, fg.data(), 0, n);
  } else {
    update_scalar<0>(Constants(params_), p, src, fg.data(), 0, n);
  }
  ++frames_seen_;
  return fg;
}

}  // namespace tangram::vision
