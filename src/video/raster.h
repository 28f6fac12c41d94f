// Frame rasterization at analysis resolution.
//
// The background-subtraction substrate needs actual pixels.  We render each
// frame's ground truth onto a static-but-noisy background:
//  * the background is a fixed smooth intensity field plus per-frame sensor
//    noise and a slow global illumination drift (sunlight / auto-exposure),
//  * each object is a textured rectangle whose base intensity contrasts with
//    the local background; texture and contrast are deterministic per object
//    id so an object looks the same frame to frame.
//
// Rendering happens at `analysis` resolution (default 480x270 for a 4K
// native frame — the same downsampling a Jetson-class edge box applies before
// running MOG2).  Consequently small/distant objects occupy only a few
// pixels and are genuinely hard for the GMM to pick up, which is exactly the
// failure mode the paper's adaptive partitioner exists to repair.
//
// Noise kernels.  render() adds one uniform() draw per pixel, on the best
// SIMD tier of the CPU (common/cpu.h, checked once per process).  The
// scalar kernel draws and converts pixel by pixel.  The AVX-512 kernel
// converts 16 pixels at a time from each block of 16 words as
// Rng::draw_avx512 draws it; the AVX2 kernel draws blocks of 512 words with
// Rng::fill_u32 and converts eight pixels at a time.  Each keeps the scalar
// expression, (px + drift) + (lo + (hi - lo) * (word * 2^-32)) in double
// with no FMA (the top-level CMakeLists.txt passes -ffp-contract=off),
// clamps it to [0, 255] and truncates, so every frame, and the generator
// state left behind, is byte-identical whichever kernel runs:
//   * a word converts to double exactly: cvtepu32_pd on AVX-512, a
//     sign-bit flip, a signed convert and + 2^31 on AVX2;
//   * the clamp is max_pd/min_pd in double, before any narrowing; AVX-512
//     then narrows with vpmovdb, which keeps each int's low byte and so is
//     the value only after the clamp, AVX2 with saturating packs;
//   * the last n % 16 (AVX-512) or each 512-word block's last n % 8 (AVX2)
//     pixels take the scalar expression on their drawn words.
// RasterConfig values that would make a pixel NaN are rejected by the
// constructor.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "video/image.h"
#include "video/scene.h"

namespace tangram::video {

struct RasterConfig {
  common::Size analysis{480, 270};  // rendering resolution
  double noise_sigma = 2.2;         // per-pixel per-frame sensor noise
  double illum_drift = 1.5;         // amplitude of slow illumination change
  double illum_period_s = 240.0;    // drift period
  // Object-vs-background intensity gap.  The low end sits near the GMM's
  // detection floor on purpose: real distant pedestrians are low-contrast,
  // and background subtraction genuinely losing a fraction of them is the
  // failure mode the adaptive partitioner exists to repair (Table IV).
  double min_contrast = 7.0;
  double max_contrast = 62.0;
  std::uint64_t seed = 99;
};

class FrameRasterizer;

namespace detail {

// The noise kernels render() chooses between: one per SIMD tier.
using NoiseKernel = common::SimdTier;

// Whether this process can run `kernel` (common/cpu.h).
[[nodiscard]] inline bool noise_kernel_supported(NoiseKernel kernel) {
  return common::simd_tier_supported(kernel);
}

// render()'s noise step on n pixels, forced to `kernel`, which must be
// supported: px[i] becomes clamp(px[i] + drift + rng.uniform(-half_width,
// half_width), 0, 255), truncated, drawing exactly n values from `rng`.
// For tests and benchmarks.
void add_noise_with(std::uint8_t* px, std::size_t n, double drift,
                    double half_width, common::Rng& rng, NoiseKernel kernel);

// render() with the noise step forced to `kernel`, which must be supported.
// For tests and benchmarks.
[[nodiscard]] Image render_with(FrameRasterizer& rasterizer,
                                const FrameTruth& truth, NoiseKernel kernel);

}  // namespace detail

class FrameRasterizer {
 public:
  // Throws std::invalid_argument for a non-finite noise_sigma, illum_drift
  // or contrast, a noise width or contrast range that overflows, or an
  // illum_period_s that is not finite and positive.
  FrameRasterizer(common::Size native, RasterConfig config);

  [[nodiscard]] const RasterConfig& config() const { return config_; }
  [[nodiscard]] common::Size analysis_size() const {
    return config_.analysis;
  }

  // Scale factors native -> analysis.
  [[nodiscard]] double sx() const { return sx_; }
  [[nodiscard]] double sy() const { return sy_; }

  // Render one frame; `truth` boxes are in native coordinates.  Throws
  // std::invalid_argument if the frame's illumination drift is not finite
  // (a timestamp so large against illum_period_s that the phase overflows).
  [[nodiscard]] Image render(const FrameTruth& truth);

  // Map an analysis-space rect back to native coordinates (rounds outward).
  [[nodiscard]] common::Rect to_native(const common::Rect& analysis_rect) const;
  // Map a native-space rect down to analysis coordinates.
  [[nodiscard]] common::Rect to_analysis(const common::Rect& native_rect) const;

 private:
  friend Image detail::render_with(FrameRasterizer&, const FrameTruth&,
                                   detail::NoiseKernel);
  [[nodiscard]] Image render(const FrameTruth& truth,
                             detail::NoiseKernel kernel);

  // An object's signed contrast against the background, from its id.
  [[nodiscard]] double object_offset(int object_id) const;

  common::Size native_;
  RasterConfig config_;
  double sx_, sy_;
  Image background_;     // static base field
  common::Rng noise_rng_;
};

}  // namespace tangram::video
