#include "vision/gmm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace tangram::vision {

GmmBackgroundSubtractor::GmmBackgroundSubtractor(common::Size frame,
                                                 GmmParams params)
    : size_(frame), params_(params) {
  if (frame.empty())
    throw std::invalid_argument("GmmBackgroundSubtractor: empty frame size");
  if (params_.num_gaussians < 1 || params_.num_gaussians > 8)
    throw std::invalid_argument("GmmBackgroundSubtractor: K must be in 1..8");
  mixtures_.resize(static_cast<std::size_t>(frame.area()) *
                   static_cast<std::size_t>(params_.num_gaussians));
  for (auto& g : mixtures_) g = Gaussian{0.0f, 0.0f, 0.0f};
}

namespace {

using Gaussian = GmmBackgroundSubtractor::Gaussian;

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

// Classify + update `n` pixels, writing the mask to `dst`.  K is the mixture
// size, or 0 to take it from `params`.
template <int K>
void update(const GmmParams& params, Gaussian* mix, const std::uint8_t* src,
            std::uint8_t* dst, std::size_t n) {
  const int k = K > 0 ? K : params.num_gaussians;
  const auto alpha = static_cast<float>(params.learning_rate);
  // Stauffer-Grimson uses alpha*N(x); the common practical simplification
  // uses alpha directly.
  const double rho = alpha;
  const double threshold = params.match_threshold;
  const double background_ratio = params.background_ratio;
  const auto min_variance = static_cast<float>(params.min_variance);
  const auto initial_weight = static_cast<float>(params.initial_weight);
  const auto initial_variance = static_cast<float>(params.initial_variance);
  // The lone-component shortcut below needs alpha * 0 == 0.
  const bool lone_exact = std::isfinite(alpha);

  for (std::size_t px = 0; px < n; ++px, mix += k) {
    const auto value = static_cast<double>(src[px]);

    // 0. Lone component (weight exactly 1, the others <= 0 and in order)
    //    that matches: steps 2a-4 reduce to the mean/variance update and one
    //    background test, with the same operations in the same order.  See
    //    gmm.h for why this is exact.
    if constexpr (K == 3) {
      if (lone_exact && mix[0].weight == 1.0f && mix[1].weight <= 0.0f &&
          !(mix[2].weight > mix[1].weight)) {
        Gaussian& g = mix[0];
        const double d = value - g.mean;
        if (d * d <= threshold * g.variance) {
          g.mean += static_cast<float>(rho * d);
          g.variance += static_cast<float>(rho * (d * d - g.variance));
          g.variance = std::max(g.variance, min_variance);
          const double e = value - g.mean;
          dst[px] = e * e <= threshold * g.variance ? 0 : 255;
          continue;
        }
      }
    }

    // 1. First matching component, in descending-weight order.
    int matched = -1;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      const double d = value - mix[i].mean;
      if (d * d <= threshold * mix[i].variance) {
        matched = i;
        break;
      }
    }

    if (matched >= 0) {
      // 2a. Pull the matched component toward the value; every weight moves
      //     toward its ownership indicator.
      Gaussian& g = mix[matched];
      const double d = value - g.mean;
      g.mean += static_cast<float>(rho * d);
      g.variance += static_cast<float>(rho * (d * d - g.variance));
      g.variance = std::max(g.variance, min_variance);
      for (int i = 0; i < k; ++i) {
        if (mix[i].weight <= 0.0f) break;
        mix[i].weight +=
            alpha * ((i == matched ? 1.0f : 0.0f) - mix[i].weight);
      }
    } else {
      // 2b. Replace the (first) weakest component with one centred on the
      //     value.
      int weakest = 0;
      for (int i = 1; i < k; ++i)
        if (mix[i].weight < mix[weakest].weight) weakest = i;
      mix[weakest] = Gaussian{initial_weight, static_cast<float>(value),
                              initial_variance};
    }

    // 3. Renormalise and restore descending-weight order.
    float wsum = 0.0f;
    for (int i = 0; i < k; ++i) wsum += std::max(0.0f, mix[i].weight);
    if (wsum > 0.0f)
      for (int i = 0; i < k; ++i) mix[i].weight /= wsum;
    order_by_weight<K>(mix, k);

    // 4. Background = the top components accumulating `background_ratio`
    //    weight.  The pixel is foreground if it matches none of them.
    bool foreground = true;
    float acc = 0.0f;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      acc += mix[i].weight;
      const double d = value - mix[i].mean;
      if (d * d <= threshold * mix[i].variance) {
        foreground = false;
        break;
      }
      if (acc >= background_ratio) break;
    }
    dst[px] = foreground ? 255 : 0;
  }
}

}  // namespace

video::Mask GmmBackgroundSubtractor::apply(const video::Image& frame) {
  if (frame.size() != size_)
    throw std::invalid_argument("GmmBackgroundSubtractor: frame size mismatch");

  video::Mask fg(size_.width, size_.height, 0);
  const std::uint8_t* src = frame.data();
  const auto n = static_cast<std::size_t>(size_.area());

  if (frames_seen_ == 0) {
    // Bootstrap: initialize the dominant component from the first frame and
    // report no foreground (the model has no history yet).
    for (std::size_t px = 0; px < n; ++px) {
      Gaussian* mix =
          &mixtures_[px * static_cast<std::size_t>(params_.num_gaussians)];
      mix[0] = Gaussian{1.0f, static_cast<float>(src[px]),
                        static_cast<float>(params_.initial_variance)};
    }
  } else if (params_.num_gaussians == 3) {
    update<3>(params_, mixtures_.data(), src, fg.data(), n);
  } else {
    update<0>(params_, mixtures_.data(), src, fg.data(), n);
  }
  ++frames_seen_;
  return fg;
}

}  // namespace tangram::vision
