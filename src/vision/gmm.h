// Stauffer–Grimson adaptive Gaussian-mixture background subtraction.
//
// This is the stand-in for OpenCV's cuda::BackgroundSubtractorMOG2 that the
// paper runs on the Jetson edge device.  It is the real per-pixel algorithm
// (K weighted Gaussians per pixel, online EM-style updates, weight-ranked
// background selection), not a behavioural mock — which matters because the
// partitioner's value in the paper comes precisely from GMM's real failure
// modes (missing small, slow, or low-contrast objects).
//
// Reference: Stauffer & Grimson, "Adaptive background mixture models for
// real-time tracking", CVPR 1999.
//
// Layout.  The model is stored as structure-of-arrays planes, one layout for
// every K: K weight planes, then K mean planes, then K variance planes, each
// one float per pixel in raster order.  Plane i of a field holds every
// pixel's i-th component, and each pixel's components are kept in descending
// weight order.  mixtures() returns an array-of-structs copy in that order.
//
// Kernel structure.  apply() picks the per-pixel update once per frame: a
// K = 3 kernel (the default, and the one every trace uses) or a generic one
// for any K in 1..8.  Parameters are read once per frame and the components
// are kept in descending weight order by a fixed-size stable ordering
// instead of std::sort.
//
// CPU dispatch (K = 3).  The K = 3 update has one kernel per SIMD tier
// (common/cpu.h), tried from the top: on x86-64 CPUs with AVX-512
// (F/BW/DQ/VL) it runs 16 pixels per step, with AVX2 eight, each in one
// function compiled for its tier (GCC/Clang target attribute; the rest of
// the build keeps its baseline ISA).  Both x86 tiers are one body,
// vision/gmm_lanes.inc, written over a tier's primitive operations.  The
// choice is made once per process by common::best_simd_tier().  The scalar
// K = 3 kernel runs on other CPUs, in non-x86 and portable builds and on the
// last n % 16 (or n % 8) pixels.  All produce the same bytes;
// detail::gmm_apply_with() runs any one on purpose, which is how
// tests/test_gmm.cpp checks each against the reference.
//
// Bit-exactness contract.  Every foreground mask and every mixture value is
// byte-identical to the original one-pixel-at-a-time update, which
// tests/test_gmm.cpp keeps verbatim as a reference (tests/test_trace.cpp pins
// the resulting traces):
//   * operation order and promotions are fixed: distances and the mean and
//     variance increments are computed in double, then cast to float and
//     added in float; weights are updated, summed and divided (never
//     multiplied by a reciprocal) in float;
//   * equal weights keep their current order (the insertion sort libstdc++'s
//     std::sort runs on ranges this short is stable);
//   * no -ffast-math and no FMA contraction.  The top-level CMakeLists.txt
//     passes -ffp-contract=off, because GCC contracts a*b+c into one
//     fused multiply-add (one rounding instead of two) whenever -march
//     enables FMA, even under -std=c++20.  That covers the intrinsics too.
// The AVX2 and AVX-512 kernels keep the scalar operation order in every
// lane:
//   * per-component steps are lane masks over all the block's pixels: the
//     scalar loop's breaks become "still searching" masks built from
//     !(w <= 0), which, like the scalar test, keeps NaN weights in the
//     search;
//   * every compare uses the ordered predicate of the scalar operator
//     (<, <=, >, >= are false on NaN), and "!(a <= b)" is written as such;
//   * std::max(v, minv) is pick(v < minv, minv, v) and std::max(0.0f, w) is
//     (0 < w) ? w : 0, not max_ps, whose NaN and signed-zero rules differ;
//   * double steps widen each float lane exactly (cvtps_pd) and narrow with
//     cvtpd_ps, which rounds like a scalar cast; wsum is summed in the
//     scalar order and divided with div_ps (AVX-512: mask_div_ps on the
//     lanes with wsum > 0), never an approximate reciprocal;
//   * the background test's running weight is compared in double, as the
//     scalar float-vs-double comparison promotes it;
//   * a step no lane of a block reaches (a later component's match test,
//     the replacement, the ordering network when no lane's first two
//     compares hold) is skipped for that block, which changes no lane.
// The AVX-512 kernel's masks are k-registers (__mmask16): k-mask blends
// (mask_blend_ps) and zero-masking moves replace AVX2's blendv and
// and-with-mask, and a compare's k-mask is exactly the lanes where the
// scalar compare holds, so a lane's select is the scalar select.  Its two
// eight-lane double compares join into one 16-lane mask (kunpackb), and
// the mask bytes come from vpmovm2b of the inverted background bits.
// Where weights turn NaN (an infinite learning rate), std::sort sees no
// strict weak order and the original update's order is unspecified; there
// the scalar K = 3 kernel defines the result, and both vector kernels match
// it byte for byte.
//
// Lone-component fast path (K = 3).  On a static background most pixels
// (76.6% of pixel-frames over catalog scenes 1/3/5/7) hold one component of
// weight exactly 1.0f while the other two have weight <= 0, in order.  When
// such a pixel matches component 0 (and alpha is finite), the full update
// changes nothing but that component's mean and variance:
//   * the match search stops at component 0, which matches;
//   * its weight becomes 1 + alpha * (1 - 1) = 1 + (+-0) = 1 exactly, and
//     the weight loop stops at component 1 (weight <= 0);
//   * wsum = 1 + max(0, w1) + max(0, w2) = 1 + 0 + 0 = 1 exactly (w2 > w1
//     is ruled out by the entry test), and x / 1 == x for every float
//     without flush-to-zero, so the renormalisation is the identity;
//   * the ordering network swaps nothing: w1 > w0 is false (w1 <= 0 < 1)
//     and w2 > w1 is ruled out by the entry test;
//   * the background test sees weight 1 first, so the pixel is background
//     iff it matches the updated component 0.
// The fast path computes exactly those operations in the same double/float
// order; every other state, and every miss, runs the full update.  The
// vector kernels take it for a block of 16 (or eight) pixels when all of
// them are lone and match; any other block runs the full update on every
// lane, which the argument above shows gives lone, matching lanes the same
// bytes.

#pragma once

#include <cstdint>
#include <vector>

#include "common/cpu.h"
#include "video/image.h"

namespace tangram::vision {

struct GmmParams {
  int num_gaussians = 3;       // K
  double learning_rate = 0.03; // alpha
  double initial_variance = 120.0;
  double min_variance = 8.0;
  double match_threshold = 2.5 * 2.5;  // squared Mahalanobis distance
  double background_ratio = 0.75;      // T: cumulative weight for background
  double initial_weight = 0.05;
};

class GmmBackgroundSubtractor;

namespace detail {

// The K = 3 update implementations apply() chooses between: one per SIMD
// tier.
using GmmKernel = common::SimdTier;

// Whether this process can run `kernel` (common/cpu.h).
[[nodiscard]] inline bool gmm_kernel_supported(GmmKernel kernel) {
  return common::simd_tier_supported(kernel);
}

// apply() with the K = 3 update forced to `kernel`, which must be supported.
// For tests and benchmarks; other K ignore `kernel`.
[[nodiscard]] video::Mask gmm_apply_with(GmmBackgroundSubtractor& gmm,
                                         const video::Image& frame,
                                         GmmKernel kernel);

}  // namespace detail

class GmmBackgroundSubtractor {
 public:
  struct Gaussian {
    float weight;
    float mean;
    float variance;
  };

  GmmBackgroundSubtractor(common::Size frame, GmmParams params = {});

  // Update the model with `frame` and return its foreground mask
  // (255 = foreground, 0 = background).
  [[nodiscard]] video::Mask apply(const video::Image& frame);

  [[nodiscard]] const GmmParams& params() const { return params_; }
  [[nodiscard]] common::Size frame_size() const { return size_; }
  [[nodiscard]] std::size_t frames_seen() const { return frames_seen_; }
  // A copy of the model: K components per pixel, pixels in raster order,
  // each pixel's components in descending weight order.
  [[nodiscard]] std::vector<Gaussian> mixtures() const;

 private:
  friend video::Mask detail::gmm_apply_with(GmmBackgroundSubtractor&,
                                            const video::Image&,
                                            detail::GmmKernel);
  [[nodiscard]] video::Mask apply(const video::Image& frame,
                                  detail::GmmKernel kernel);

  common::Size size_;
  GmmParams params_;
  // 3 * K planes of size_.area() floats: weights, means, variances.
  std::vector<float> planes_;
  std::size_t frames_seen_ = 0;
};

}  // namespace tangram::vision
