#include "video/raster.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/cpu.h"

namespace tangram::video {

namespace {

// Uniform noise with a matched standard deviation: width = sigma * sqrt(12).
double noise_half_width(const RasterConfig& config) {
  return config.noise_sigma * 1.7320508;
}

// The scalar kernel: render()'s per-pixel noise loop, one uniform() draw
// per pixel.
void noise_scalar(std::uint8_t* px, std::size_t n, double drift,
                  double half_width, common::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    const double noisy = px[i] + drift + rng.uniform(-half_width, half_width);
    px[i] = static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
  }
}

#if TANGRAM_AVX2_KERNELS

// Draws per Rng::fill_u32 call: large enough to amortise its set-up, small
// enough to stay in L1 next to the pixels.
constexpr std::size_t kNoiseBlock = 512;

// Four pixels of noise_scalar in double lanes, from four drawn words, in
// the same operation order: Rng::uniform(lo, lo + span) is
// lo + span * (word * 2^-32).  A word converts exactly (flip the sign bit,
// convert as signed, add 2^31), and 2^-32 is a power of two, so u is the
// scalar u.  max_pd/min_pd differ from std::clamp only on NaN (ruled out by
// the RasterConfig checks) and on -0.0, which truncates to 0 either way.
__attribute__((target("avx2"), always_inline)) inline __m128i noise4(
    const std::uint8_t* px, const std::uint32_t* words, __m256d drift,
    __m256d lo, __m256d span) {
  std::int32_t bytes = 0;
  std::memcpy(&bytes, px, sizeof bytes);
  const __m256d base = _mm256_add_pd(
      _mm256_cvtepi32_pd(_mm_cvtepu8_epi32(_mm_cvtsi32_si128(bytes))), drift);
  const __m128i flipped =
      _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(words)),
                    _mm_set1_epi32(INT32_MIN));
  const __m256d word = _mm256_add_pd(_mm256_cvtepi32_pd(flipped),
                                     _mm256_set1_pd(0x1.0p31));
  const __m256d u = _mm256_mul_pd(word, _mm256_set1_pd(0x1.0p-32));
  const __m256d noisy =
      _mm256_add_pd(base, _mm256_add_pd(lo, _mm256_mul_pd(span, u)));
  const __m256d clamped = _mm256_min_pd(
      _mm256_max_pd(noisy, _mm256_setzero_pd()), _mm256_set1_pd(255.0));
  return _mm256_cvttpd_epi32(clamped);
}

// Eight pixels as noise4 computes four, each word converted exactly by
// cvtepu32_pd.
__attribute__((target(TANGRAM_AVX512_TARGET), always_inline)) inline __m256i
noise8(const std::uint8_t* px, __m256i words, __m512d drift, __m512d lo,
       __m512d span) {
  const __m512d base = _mm512_add_pd(
      _mm512_cvtepi32_pd(_mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(px)))),
      drift);
  const __m512d u =
      _mm512_mul_pd(_mm512_cvtepu32_pd(words), _mm512_set1_pd(0x1.0p-32));
  const __m512d noisy =
      _mm512_add_pd(base, _mm512_add_pd(lo, _mm512_mul_pd(span, u)));
  const __m512d clamped = _mm512_min_pd(
      _mm512_max_pd(noisy, _mm512_setzero_pd()), _mm512_set1_pd(255.0));
  return _mm512_cvttpd_epi32(clamped);
}

// The AVX-512 kernel: converts each block of 16 words as Rng::draw_avx512
// draws it, so the words never leave registers, and the last n % 16 pixels
// with noise_scalar.  vpmovdb keeps each int's low byte, which is the value
// only because noise8 clamped it to [0, 255] first.
__attribute__((target(TANGRAM_AVX512_TARGET))) void noise_avx512(
    std::uint8_t* px, std::size_t n, double drift, double half_width,
    common::Rng& rng) {
  const double lo = -half_width;
  const __m512d vdrift = _mm512_set1_pd(drift);
  const __m512d vlo = _mm512_set1_pd(lo);
  const __m512d vspan = _mm512_set1_pd(half_width - lo);
  const std::size_t done = rng.draw_avx512(
      n, [=](std::size_t i, __m256i first, __m256i second) __attribute__((
             target(TANGRAM_AVX512_TARGET), always_inline)) {
        const __m512i ints = _mm512_inserti64x4(
            _mm512_castsi256_si512(noise8(px + i, first, vdrift, vlo, vspan)),
            noise8(px + i + 8, second, vdrift, vlo, vspan), 1);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(px + i),
                         _mm512_cvtepi32_epi8(ints));
      });
  noise_scalar(px + done, n - done, drift, half_width, rng);
}

// The AVX2 kernel: draws a block of words with Rng::fill_u32 on the AVX2
// tier, then turns eight pixels at a time into bytes; a block's last n % 8
// pixels take the scalar expression on their words.
__attribute__((target("avx2"))) void noise_avx2(std::uint8_t* px,
                                                std::size_t n, double drift,
                                                double half_width,
                                                common::Rng& rng) {
  const double lo = -half_width;
  const double span = half_width - lo;
  const __m256d vdrift = _mm256_set1_pd(drift);
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vspan = _mm256_set1_pd(span);
  std::array<std::uint32_t, kNoiseBlock> words{};
  for (std::size_t at = 0; at < n; at += kNoiseBlock) {
    const std::size_t m = std::min(kNoiseBlock, n - at);
    rng.fill_u32(words.data(), m, common::SimdTier::kAvx2);
    std::uint8_t* block = px + at;
    std::size_t i = 0;
    for (; i + 8 <= m; i += 8) {
      const __m128i ints = _mm_packs_epi32(
          noise4(block + i, &words[i], vdrift, vlo, vspan),
          noise4(block + i + 4, &words[i + 4], vdrift, vlo, vspan));
      _mm_storel_epi64(reinterpret_cast<__m128i*>(block + i),
                       _mm_packus_epi16(ints, ints));
    }
    for (; i < m; ++i) {
      const double noisy =
          block[i] + drift + (lo + span * (words[i] * 0x1.0p-32));
      block[i] = static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
    }
  }
}

#endif  // TANGRAM_AVX2_KERNELS

void add_noise(std::uint8_t* px, std::size_t n, double drift,
               double half_width, common::Rng& rng,
               [[maybe_unused]] detail::NoiseKernel kernel) {
#if TANGRAM_AVX2_KERNELS
  if (kernel == detail::NoiseKernel::kAvx512) {
    noise_avx512(px, n, drift, half_width, rng);
    return;
  }
  if (kernel == detail::NoiseKernel::kAvx2) {
    noise_avx2(px, n, drift, half_width, rng);
    return;
  }
#endif
  noise_scalar(px, n, drift, half_width, rng);
}

// Cheap deterministic 2D hash -> [0, 1); used for object textures so pixels
// are stable across frames without storing per-object bitmaps.
double hash01(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ b * 0xC2B2AE3D27D4EB4FULL ^
                    c * 0x165667B19E3779F9ULL;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

namespace detail {

void add_noise_with(std::uint8_t* px, std::size_t n, double drift,
                    double half_width, common::Rng& rng, NoiseKernel kernel) {
  if (!noise_kernel_supported(kernel))
    throw std::invalid_argument("add_noise_with: kernel not supported");
  add_noise(px, n, drift, half_width, rng, kernel);
}

Image render_with(FrameRasterizer& rasterizer, const FrameTruth& truth,
                  NoiseKernel kernel) {
  if (!noise_kernel_supported(kernel))
    throw std::invalid_argument("render_with: kernel not supported");
  return rasterizer.render(truth, kernel);
}

}  // namespace detail

FrameRasterizer::FrameRasterizer(common::Size native, RasterConfig config)
    : native_(native),
      config_(config),
      sx_(static_cast<double>(config.analysis.width) / native.width),
      sy_(static_cast<double>(config.analysis.height) / native.height),
      background_(config.analysis.width, config.analysis.height),
      noise_rng_(config.seed, 11) {
  // Each of these would turn a pixel NaN, and casting NaN to a byte is
  // undefined.  noise_sigma = 0 (a noiseless frame) is valid.
  const double half_width = noise_half_width(config);
  if (!std::isfinite(half_width - -half_width))
    throw std::invalid_argument("RasterConfig: noise_sigma must be finite");
  if (!std::isfinite(config.illum_drift))
    throw std::invalid_argument("RasterConfig: illum_drift must be finite");
  if (!(config.illum_period_s > 0.0) || !std::isfinite(config.illum_period_s))
    throw std::invalid_argument(
        "RasterConfig: illum_period_s must be finite and positive");
  if (!std::isfinite(config.max_contrast - config.min_contrast))
    throw std::invalid_argument("RasterConfig: contrasts must be finite");

  // Static background: sum of a few low-frequency cosine plateaus, giving
  // smooth structure (walls, road, sky bands) in [80, 170].
  common::Rng rng(config.seed, 3);
  const double fx1 = rng.uniform(0.5, 2.0), fy1 = rng.uniform(0.5, 2.0);
  const double fx2 = rng.uniform(2.0, 5.0), fy2 = rng.uniform(2.0, 5.0);
  const double p1 = rng.uniform(0, 6.28), p2 = rng.uniform(0, 6.28);
  for (int y = 0; y < background_.height(); ++y) {
    for (int x = 0; x < background_.width(); ++x) {
      const double u = static_cast<double>(x) / background_.width();
      const double v = static_cast<double>(y) / background_.height();
      const double val =
          125.0 + 28.0 * std::cos(2 * 3.14159265 * (fx1 * u + fy1 * v) + p1) +
          12.0 * std::cos(2 * 3.14159265 * (fx2 * u - fy2 * v) + p2);
      background_.at(x, y) =
          static_cast<std::uint8_t>(std::clamp(val, 60.0, 200.0));
    }
  }
}

common::Rect FrameRasterizer::to_native(const common::Rect& r) const {
  return common::scale_rect(r, 1.0 / sx_, 1.0 / sy_);
}

common::Rect FrameRasterizer::to_analysis(const common::Rect& r) const {
  return common::scale_rect(r, sx_, sy_);
}

double FrameRasterizer::object_offset(int object_id) const {
  // Contrast sign and magnitude are deterministic per object.
  const double pick = hash01(static_cast<std::uint64_t>(object_id), 17, 29);
  const double contrast =
      config_.min_contrast +
      (config_.max_contrast - config_.min_contrast) *
          hash01(static_cast<std::uint64_t>(object_id), 41, 53);
  const double sign = pick < 0.5 ? -1.0 : 1.0;
  return sign * contrast;
}

Image FrameRasterizer::render(const FrameTruth& truth) {
  return render(truth, common::best_simd_tier());
}

Image FrameRasterizer::render(const FrameTruth& truth,
                              detail::NoiseKernel kernel) {
  Image frame = background_;

  // Slow illumination drift + per-frame sensor noise.  Uniform noise with a
  // matched standard deviation instead of a Gaussian: the GMM only cares
  // about second moments, and a uniform draw is one RNG call instead of a
  // Box-Muller pair.  One draw per pixel, the noise kernel's job (raster.h).
  const double drift =
      config_.illum_drift *
      std::sin(2 * 3.14159265 * truth.timestamp / config_.illum_period_s);
  if (!std::isfinite(drift))
    throw std::invalid_argument("FrameRasterizer: illumination drift is NaN");
  add_noise(frame.data(), frame.pixel_count(), drift, noise_half_width(config_),
            noise_rng_, kernel);

  // Paint objects (native boxes scaled down to analysis space).  Each pixel
  // is background + offset + texture, the texture in 2x2-pixel blocks of
  // deterministic variation.
  for (const auto& obj : truth.objects) {
    const common::Rect r = common::clamp_to(
        to_analysis(obj.box), common::Rect{0, 0, frame.width(), frame.height()});
    const double offset = object_offset(obj.id);
    const auto id = static_cast<std::uint64_t>(obj.id);
    for (int y = r.top(); y < r.bottom(); ++y)
      for (int x = r.left(); x < r.right(); ++x) {
        const double tex = 18.0 * (hash01(id, static_cast<std::uint64_t>(x / 2),
                                          static_cast<std::uint64_t>(y / 2)) -
                                   0.5);
        const double val = background_.at(x, y) + offset + tex;
        frame.at(x, y) = static_cast<std::uint8_t>(std::clamp(val, 5.0, 250.0));
      }
  }
  return frame;
}

}  // namespace tangram::video
