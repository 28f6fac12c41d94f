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
// Kernel structure.  apply() picks the per-pixel update once per frame: a
// K = 3 instantiation (the default, and the one every trace uses) or a
// generic one for any K in 1..8.  Parameters are read once per frame and the
// components are kept in descending weight order by a fixed-size stable
// ordering instead of std::sort.  The mixture stays array-of-structs
// ({weight, mean, variance} per component, K components per pixel): a
// branch-free structure-of-arrays version measured slower as scalar code,
// and the compiler does not vectorise it because control flow remains.
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
//     enables FMA, even under -std=c++20.
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
// order; every other state, and every miss, runs the full update.

#pragma once

#include <cstdint>
#include <vector>

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
  // The model: K components per pixel, pixels in raster order, each pixel's
  // components in descending weight order.
  [[nodiscard]] const std::vector<Gaussian>& mixtures() const {
    return mixtures_;
  }

 private:
  common::Size size_;
  GmmParams params_;
  std::vector<Gaussian> mixtures_;  // size = pixels * K
  std::size_t frames_seen_ = 0;
};

}  // namespace tangram::vision
