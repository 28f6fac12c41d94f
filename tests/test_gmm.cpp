#include "vision/gmm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace tangram::vision {
namespace {

// Render a noisy flat background with an optional bright square.
video::Image make_frame(common::Rng& rng, bool with_object, int ox = 20,
                        int oy = 20) {
  video::Image img(64, 48, 0);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      img.at(x, y) = static_cast<std::uint8_t>(
          std::clamp(120.0 + rng.normal(0.0, 2.0), 0.0, 255.0));
  if (with_object) img.fill_rect({ox, oy, 8, 8}, 200);
  return img;
}

TEST(Gmm, FirstFrameHasNoForeground) {
  common::Rng rng(1);
  GmmBackgroundSubtractor gmm({64, 48});
  const video::Mask fg = gmm.apply(make_frame(rng, true));
  for (int y = 0; y < fg.height(); ++y)
    for (int x = 0; x < fg.width(); ++x) EXPECT_EQ(fg.at(x, y), 0);
}

TEST(Gmm, StaticBackgroundStaysQuiet) {
  common::Rng rng(2);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  const video::Mask fg = gmm.apply(make_frame(rng, false));
  int fg_pixels = 0;
  for (int y = 0; y < fg.height(); ++y)
    for (int x = 0; x < fg.width(); ++x) fg_pixels += fg.at(x, y) ? 1 : 0;
  EXPECT_LT(fg_pixels, static_cast<int>(fg.pixel_count() / 100));
}

TEST(Gmm, NewObjectIsForeground) {
  common::Rng rng(3);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  const video::Mask fg = gmm.apply(make_frame(rng, true));
  int hits = 0;
  for (int y = 20; y < 28; ++y)
    for (int x = 20; x < 28; ++x) hits += fg.at(x, y) ? 1 : 0;
  EXPECT_GT(hits, 48);  // at least 75% of the object's 64 pixels
}

TEST(Gmm, MovingObjectTrackedAcrossFrames) {
  common::Rng rng(4);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  for (int step = 0; step < 5; ++step) {
    const int ox = 10 + step * 6;
    const video::Mask fg = gmm.apply(make_frame(rng, true, ox, 16));
    int hits = 0;
    for (int y = 16; y < 24; ++y)
      for (int x = ox; x < ox + 8; ++x) hits += fg.at(x, y) ? 1 : 0;
    EXPECT_GT(hits, 32) << "step " << step;
  }
}

TEST(Gmm, StationaryObjectAbsorbedIntoBackground) {
  common::Rng rng(5);
  GmmParams params;
  params.learning_rate = 0.05;
  GmmBackgroundSubtractor gmm({64, 48}, params);
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  // Object appears and never moves; within ~3/alpha frames it must fade.
  int last_hits = 0;
  for (int i = 0; i < 80; ++i) {
    const video::Mask fg = gmm.apply(make_frame(rng, true));
    last_hits = 0;
    for (int y = 20; y < 28; ++y)
      for (int x = 20; x < 28; ++x) last_hits += fg.at(x, y) ? 1 : 0;
  }
  EXPECT_LT(last_hits, 8);
}

TEST(Gmm, IlluminationDriftTolerated) {
  common::Rng rng(6);
  GmmBackgroundSubtractor gmm({64, 48});
  for (int i = 0; i < 30; ++i) (void)gmm.apply(make_frame(rng, false));
  // Shift the whole background slowly by 6 levels over 30 frames.
  int total_fg = 0;
  for (int i = 0; i < 30; ++i) {
    video::Image img = make_frame(rng, false);
    for (std::size_t p = 0; p < img.pixel_count(); ++p)
      img.data()[p] = static_cast<std::uint8_t>(
          std::min(255, img.data()[p] + i / 5));
    const video::Mask fg = gmm.apply(img);
    for (std::size_t p = 0; p < fg.pixel_count(); ++p)
      total_fg += fg.data()[p] ? 1 : 0;
  }
  EXPECT_LT(total_fg, static_cast<int>(30 * 64 * 48 / 50));
}

TEST(Gmm, RejectsMismatchedFrameSize) {
  GmmBackgroundSubtractor gmm({64, 48});
  video::Image wrong(32, 32);
  EXPECT_THROW((void)gmm.apply(wrong), std::invalid_argument);
}

TEST(Gmm, RejectsBadParams) {
  GmmParams params;
  params.num_gaussians = 0;
  EXPECT_THROW(GmmBackgroundSubtractor({64, 48}, params),
               std::invalid_argument);
  params.num_gaussians = 9;
  EXPECT_THROW(GmmBackgroundSubtractor({64, 48}, params),
               std::invalid_argument);
  EXPECT_THROW(GmmBackgroundSubtractor({0, 48}), std::invalid_argument);
}

// --- reference equivalence ---------------------------------------------------
//
// A verbatim copy of the original one-pixel-at-a-time update (runtime K,
// std::sort of the mixture) that the specialised kernel replaced.  The kernel
// must reproduce its masks and its model byte for byte for every K and every
// parameter set.  Masks alone are a weak check: a one-ulp weight difference
// (say, multiplying by 1/wsum instead of dividing) flips a mask pixel only
// hundreds of frames later, if ever.  `ties` counts sorts that met two
// distinct components of equal positive weight, so the test can prove the
// stable tie-break was exercised.
class ReferenceGmm {
 public:
  using Gaussian = GmmBackgroundSubtractor::Gaussian;

  ReferenceGmm(common::Size frame, GmmParams params)
      : size_(frame), params_(params) {
    mixtures_.assign(static_cast<std::size_t>(frame.area()) *
                         static_cast<std::size_t>(params_.num_gaussians),
                     Gaussian{0.0f, 0.0f, 0.0f});
  }

  video::Mask apply(const video::Image& frame) {
    video::Mask fg(size_.width, size_.height, 0);
    const std::uint8_t* src = frame.data();
    std::uint8_t* dst = fg.data();
    const auto n = static_cast<std::size_t>(size_.area());
    if (frames_seen_ == 0) {
      for (std::size_t px = 0; px < n; ++px) {
        Gaussian* mix =
            &mixtures_[px * static_cast<std::size_t>(params_.num_gaussians)];
        mix[0] = Gaussian{1.0f, static_cast<float>(src[px]),
                          static_cast<float>(params_.initial_variance)};
      }
    } else {
      for (std::size_t px = 0; px < n; ++px)
        dst[px] = process_pixel(px, static_cast<double>(src[px])) ? 255 : 0;
    }
    ++frames_seen_;
    return fg;
  }

  [[nodiscard]] const std::vector<Gaussian>& mixtures() const {
    return mixtures_;
  }

  std::size_t ties = 0;

 private:
  bool process_pixel(std::size_t px, double value) {
    const int k = params_.num_gaussians;
    Gaussian* mix = &mixtures_[px * static_cast<std::size_t>(k)];
    const auto alpha = static_cast<float>(params_.learning_rate);

    int matched = -1;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      const double d = value - mix[i].mean;
      if (d * d <= params_.match_threshold * mix[i].variance) {
        matched = i;
        break;
      }
    }

    if (matched >= 0) {
      Gaussian& g = mix[matched];
      const double rho = alpha;
      const double d = value - g.mean;
      g.mean += static_cast<float>(rho * d);
      g.variance += static_cast<float>(rho * (d * d - g.variance));
      g.variance =
          std::max(g.variance, static_cast<float>(params_.min_variance));
      for (int i = 0; i < k; ++i) {
        if (mix[i].weight <= 0.0f) break;
        mix[i].weight +=
            alpha * ((i == matched ? 1.0f : 0.0f) - mix[i].weight);
      }
    } else {
      int weakest = 0;
      for (int i = 1; i < k; ++i)
        if (mix[i].weight < mix[weakest].weight) weakest = i;
      mix[weakest] = Gaussian{static_cast<float>(params_.initial_weight),
                              static_cast<float>(value),
                              static_cast<float>(params_.initial_variance)};
    }

    float wsum = 0.0f;
    for (int i = 0; i < k; ++i) wsum += std::max(0.0f, mix[i].weight);
    if (wsum > 0.0f)
      for (int i = 0; i < k; ++i) mix[i].weight /= wsum;
    for (int i = 0; i < k; ++i)
      for (int j = i + 1; j < k; ++j)
        if (mix[i].weight > 0.0f && mix[i].weight == mix[j].weight &&
            (mix[i].mean != mix[j].mean ||
             mix[i].variance != mix[j].variance))
          ++ties;
    std::sort(mix, mix + k, [](const Gaussian& a, const Gaussian& b) {
      return a.weight > b.weight;
    });

    float acc = 0.0f;
    for (int i = 0; i < k; ++i) {
      if (mix[i].weight <= 0.0f) break;
      acc += mix[i].weight;
      const double d = value - mix[i].mean;
      if (d * d <= params_.match_threshold * mix[i].variance) return false;
      if (acc >= params_.background_ratio) break;
    }
    return true;
  }

  common::Size size_;
  GmmParams params_;
  std::vector<Gaussian> mixtures_;
  std::size_t frames_seen_ = 0;
};

// Random parameters over the whole usable range.  A `tie_prone` draw takes
// its initial weight from {1, 1/2, 1/4}: replacing a component then
// renormalises to exactly equal weights, which is what exposes an unstable
// ordering.
GmmParams random_params(common::Rng& rng, int k, bool tie_prone) {
  GmmParams p;
  p.num_gaussians = k;
  p.learning_rate = rng.bernoulli(0.2) ? rng.uniform(0.3, 1.0)
                                       : rng.uniform(0.001, 0.3);
  p.initial_variance = rng.uniform(4.0, 400.0);
  p.min_variance = rng.uniform(0.5, 30.0);
  p.match_threshold = rng.uniform(0.5, 25.0);
  p.background_ratio = rng.uniform(0.2, 1.0);
  static constexpr std::array<double, 3> kTieProne{1.0, 0.5, 0.25};
  p.initial_weight =
      tie_prone ? kTieProne[static_cast<std::size_t>(rng.uniform_int(0, 2))]
                : rng.uniform(0.001, 0.9);
  return p;
}

// A frame sequence with per-pixel noise, rectangles that step to a new level
// and hold for a while, bimodal flicker, and saturated 0/255 pixels.
class RandomFrames {
 public:
  RandomFrames(common::Rng& rng, common::Size size)
      : rng_(rng), base_(size.width, size.height) {
    for (std::size_t p = 0; p < base_.pixel_count(); ++p)
      base_.data()[p] = static_cast<std::uint8_t>(rng_.uniform_int(0, 255));
    noise_ = rng_.uniform(0.0, 12.0);
  }

  video::Image next() {
    if (hold_ == 0) {
      step_ = {rng_.uniform_int(0, base_.width() - 1),
               rng_.uniform_int(0, base_.height() - 1),
               rng_.uniform_int(1, base_.width()),
               rng_.uniform_int(1, base_.height())};
      step_level_ = rng_.uniform_int(0, 255);
      hold_ = rng_.uniform_int(1, 12);
    }
    --hold_;
    video::Image img = base_;
    for (int y = 0; y < img.height(); ++y)
      for (int x = 0; x < img.width(); ++x) {
        double v = img.at(x, y);
        if (step_.contains({x, y})) v = step_level_;
        if ((x + y) % 7 == 0 && rng_.bernoulli(0.5)) v = 255.0 - v;
        v += rng_.normal(0.0, noise_);
        const double u = rng_.uniform();
        if (u < 0.02) {
          v = 0.0;
        } else if (u < 0.04) {
          v = 255.0;
        }
        img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
      }
    return img;
  }

 private:
  common::Rng& rng_;
  video::Image base_;
  double noise_ = 0.0;
  common::Rect step_;
  int step_level_ = 0;
  int hold_ = 0;
};

// Bitwise, so a -0.0f/+0.0f or NaN-payload difference also counts.
bool same_model(const std::vector<GmmBackgroundSubtractor::Gaussian>& a,
                const std::vector<GmmBackgroundSubtractor::Gaussian>& b) {
  static_assert(sizeof(GmmBackgroundSubtractor::Gaussian) == 3 * sizeof(float));
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(GmmBackgroundSubtractor::Gaussian)) == 0;
}

TEST(GmmReference, MasksAndModelMatchReferenceForEveryK) {
  const common::Size size{37, 23};  // odd sizes: no lucky alignment
  constexpr int kFrames = 64;
  constexpr int kParamSets = 8;
  for (const int k : {1, 2, 3, 4, 5, 8}) {
    std::size_t ties = 0;
    for (int set = 0; set < kParamSets; ++set) {
      common::Rng rng(static_cast<std::uint64_t>(1000 * k + set));
      const GmmParams params = random_params(rng, k, set % 2 == 0);
      GmmBackgroundSubtractor gmm(size, params);
      ReferenceGmm reference(size, params);
      RandomFrames frames(rng, size);
      for (int f = 0; f < kFrames; ++f) {
        const video::Image img = frames.next();
        const video::Mask got = gmm.apply(img);
        const video::Mask want = reference.apply(img);
        ASSERT_TRUE(std::equal(got.data(), got.data() + got.pixel_count(),
                               want.data()))
            << "K=" << k << " set=" << set << " frame=" << f;
        ASSERT_TRUE(same_model(gmm.mixtures(), reference.mixtures()))
            << "K=" << k << " set=" << set << " frame=" << f;
      }
      ties += reference.ties;
    }
    if (k > 1) {
      EXPECT_GT(ties, 0u) << "K=" << k << " never tied";
    }
  }
}

// The K = 3 kernel's lone-component shortcut (weight exactly 1, the others
// <= 0) must leave masks and model byte-equal to the reference.  A static
// scene keeps most pixels in that state, long enough for the variance to
// decay onto its floor; a step over part of the frame drives those pixels
// out of it (misses, then two-component mixtures) and the static tail takes
// them back through the general path.
TEST(GmmReference, LoneComponentShortcutMatchesReference) {
  const common::Size size{61, 45};
  const common::Rect step{13, 9, 24, 17};
  constexpr int kStepBegin = 150, kStepEnd = 180, kFrames = 240;
  for (const double initial_weight : {GmmParams{}.initial_weight, 1.0}) {
    GmmParams params;
    params.initial_weight = initial_weight;
    GmmBackgroundSubtractor gmm(size, params);
    ReferenceGmm reference(size, params);
    common::Rng rng(77);
    std::size_t lone = 0, pixel_frames = 0, foreground = 0;
    for (int f = 0; f < kFrames; ++f) {
      video::Image img(size.width, size.height);
      for (int y = 0; y < size.height; ++y)
        for (int x = 0; x < size.width; ++x) {
          double v = 90.0 + x + rng.normal(0.0, 2.0);
          if (f >= kStepBegin && f < kStepEnd && step.contains({x, y}))
            v += 70.0;
          img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
        }
      const video::Mask got = gmm.apply(img);
      const video::Mask want = reference.apply(img);
      ASSERT_TRUE(std::equal(got.data(), got.data() + got.pixel_count(),
                             want.data()))
          << "initial_weight=" << initial_weight << " frame=" << f;
      ASSERT_TRUE(same_model(gmm.mixtures(), reference.mixtures()))
          << "initial_weight=" << initial_weight << " frame=" << f;
      foreground += static_cast<std::size_t>(
          std::count(got.data(), got.data() + got.pixel_count(), 255));
      const auto& mix = gmm.mixtures();
      for (std::size_t i = 0; i < mix.size(); i += 3, ++pixel_frames)
        if (mix[i].weight == 1.0f && mix[i + 1].weight <= 0.0f &&
            !(mix[i + 2].weight > mix[i + 1].weight))
          ++lone;
    }
    // The step region is 15% of the frame; everything else stays lone.
    EXPECT_GT(lone, pixel_frames * 3 / 4)
        << "initial_weight=" << initial_weight;
    EXPECT_LT(lone, pixel_frames) << "initial_weight=" << initial_weight;
    EXPECT_GE(foreground, static_cast<std::size_t>(step.area()))
        << "initial_weight=" << initial_weight;
  }
}

// --- each K = 3 kernel against the reference ---------------------------------
//
// apply() runs the AVX2 kernel where the CPU has it, so the tests above cover
// only one of the two K = 3 kernels on any machine.  These run each kernel
// through detail::gmm_apply_with() against the verbatim reference, on frames
// built to hit the vector kernel's corners:
//   * widths that leave n % 8 tail pixels, or no full block at all (1x1,
//     7x3), or one block plus a tail (9x2);
//   * blocks mixing lone and non-lone lanes: a random 30% of pixels is
//     "busy" and keeps stepping to new levels, the rest is a noisy static
//     background that stays in (or returns to) the lone state;
//   * saturated 0 and 255 pixels;
//   * tie-prone initial weights, and non-finite parameters whose NaN and
//     infinite model values only an exact mirror of every scalar compare
//     (ordered predicates, std::max's operand rules, a true division)
//     reproduces.
class BusyFrames {
 public:
  BusyFrames(common::Rng& rng, common::Size size)
      : rng_(rng), base_(size.width, size.height), busy_(base_.pixel_count()) {
    for (std::size_t p = 0; p < base_.pixel_count(); ++p) {
      base_.data()[p] = static_cast<std::uint8_t>(rng_.uniform_int(20, 235));
      busy_[p] = rng_.bernoulli(0.3);
    }
  }

  video::Image next() {
    video::Image img = base_;
    for (std::size_t p = 0; p < img.pixel_count(); ++p) {
      double v = img.data()[p];
      if (busy_[p] && rng_.bernoulli(0.25)) v = rng_.uniform_int(0, 255);
      v += rng_.normal(0.0, 1.5);
      const double u = rng_.uniform();
      if (u < 0.01) {
        v = 0.0;
      } else if (u < 0.02) {
        v = 255.0;
      }
      img.data()[p] = static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
    return img;
  }

 private:
  common::Rng& rng_;
  video::Image base_;
  std::vector<bool> busy_;
};

std::vector<GmmParams> kernel_param_sets() {
  std::vector<GmmParams> sets;
  sets.push_back(GmmParams{});
  GmmParams whole_weight;
  whole_weight.initial_weight = 1.0;
  sets.push_back(whole_weight);
  common::Rng rng(4242);
  for (int i = 0; i < 4; ++i) sets.push_back(random_params(rng, 3, i % 2 == 0));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  GmmParams p;
  p.learning_rate = 1e30;  // finite alpha, infinite products
  sets.push_back(p);
  p = GmmParams{};
  p.match_threshold = inf;
  sets.push_back(p);
  p = GmmParams{};
  p.min_variance = nan;
  sets.push_back(p);
  p = GmmParams{};
  p.initial_weight = nan;
  sets.push_back(p);
  p = GmmParams{};
  p.initial_variance = nan;
  sets.push_back(p);
  p = GmmParams{};
  p.background_ratio = nan;
  sets.push_back(p);
  return sets;
}

// Every kernel's masks and mixtures equal the reference's over every
// parameter set, on sizes with n % 8 and n % 16 tails, and meet blocks of
// `width` pixels (the kernel's lanes) both all lone and partly lone.
void expect_kernel_matches_reference(detail::GmmKernel kernel,
                                     std::size_t width) {
  constexpr int kFrames = 48;
  const std::vector<GmmParams> sets = kernel_param_sets();
  std::size_t mixed_blocks = 0, lone_blocks = 0;
  for (const common::Size size :
       {common::Size{1, 1}, common::Size{7, 3}, common::Size{9, 2},
        common::Size{33, 1}, common::Size{483, 5}}) {
    for (std::size_t set = 0; set < sets.size(); ++set) {
      const std::string where = std::to_string(size.width) + "x" +
                                std::to_string(size.height) +
                                " set=" + std::to_string(set);
      common::Rng rng(static_cast<std::uint64_t>(31 * size.area()) + set);
      GmmBackgroundSubtractor gmm(size, sets[set]);
      ReferenceGmm reference(size, sets[set]);
      BusyFrames frames(rng, size);
      for (int f = 0; f < kFrames; ++f) {
        const video::Image img = frames.next();
        const auto before = gmm.mixtures();
        for (std::size_t b = 0; b + width <= img.pixel_count(); b += width) {
          std::size_t lone = 0;
          for (std::size_t px = b; px < b + width; ++px)
            lone += before[3 * px].weight == 1.0f &&
                    before[3 * px + 1].weight <= 0.0f &&
                    !(before[3 * px + 2].weight > before[3 * px + 1].weight);
          mixed_blocks += lone > 0 && lone < width;
          lone_blocks += lone == width;
        }
        const video::Mask got = detail::gmm_apply_with(gmm, img, kernel);
        const video::Mask want = reference.apply(img);
        ASSERT_TRUE(std::equal(got.data(), got.data() + got.pixel_count(),
                               want.data()))
            << where << " frame=" << f;
        ASSERT_TRUE(same_model(gmm.mixtures(), reference.mixtures()))
            << where << " frame=" << f;
      }
    }
  }
  EXPECT_GT(mixed_blocks, 0u);
  EXPECT_GT(lone_blocks, 0u);
}

TEST(GmmKernel, ScalarMatchesReference) {
  expect_kernel_matches_reference(detail::GmmKernel::kScalar, 8);
}

TEST(GmmKernel, Avx2MatchesReference) {
  if (!detail::gmm_kernel_supported(detail::GmmKernel::kAvx2))
    GTEST_SKIP() << "this CPU or build has no AVX2 kernel";
  expect_kernel_matches_reference(detail::GmmKernel::kAvx2, 8);
}

TEST(GmmKernel, Avx512MatchesReference) {
  if (!detail::gmm_kernel_supported(detail::GmmKernel::kAvx512))
    GTEST_SKIP() << "this CPU or build has no AVX-512 kernel";
  expect_kernel_matches_reference(detail::GmmKernel::kAvx512, 16);
}

// An infinite learning rate fills the model with infinite and NaN weights.
// There the reference's std::sort (no strict weak order on NaN) parts ways
// with the K = 3 ordering network, so the scalar kernel is the reference:
// each vector kernel must still reproduce it byte for byte, NaN compares in
// the network and the match search included.
void expect_kernel_matches_scalar_on_non_finite_models(
    detail::GmmKernel kernel) {
  const common::Size size{483, 5};
  for (const double learning_rate :
       {std::numeric_limits<double>::infinity(), 1e39, 0.9}) {
    GmmParams params;
    params.learning_rate = learning_rate;
    params.initial_weight = 1.0;
    GmmBackgroundSubtractor vector_gmm(size, params);
    GmmBackgroundSubtractor scalar_gmm(size, params);
    common::Rng rng(97);
    BusyFrames frames(rng, size);
    for (int f = 0; f < 48; ++f) {
      const video::Image img = frames.next();
      const video::Mask got = detail::gmm_apply_with(vector_gmm, img, kernel);
      const video::Mask want =
          detail::gmm_apply_with(scalar_gmm, img, detail::GmmKernel::kScalar);
      ASSERT_TRUE(std::equal(got.data(), got.data() + got.pixel_count(),
                             want.data()))
          << "learning_rate=" << learning_rate << " frame=" << f;
      ASSERT_TRUE(same_model(vector_gmm.mixtures(), scalar_gmm.mixtures()))
          << "learning_rate=" << learning_rate << " frame=" << f;
    }
  }
}

TEST(GmmKernel, Avx2MatchesScalarOnNonFiniteModels) {
  if (!detail::gmm_kernel_supported(detail::GmmKernel::kAvx2))
    GTEST_SKIP() << "this CPU or build has no AVX2 kernel";
  expect_kernel_matches_scalar_on_non_finite_models(detail::GmmKernel::kAvx2);
}

TEST(GmmKernel, Avx512MatchesScalarOnNonFiniteModels) {
  if (!detail::gmm_kernel_supported(detail::GmmKernel::kAvx512))
    GTEST_SKIP() << "this CPU or build has no AVX-512 kernel";
  expect_kernel_matches_scalar_on_non_finite_models(
      detail::GmmKernel::kAvx512);
}

}  // namespace
}  // namespace tangram::vision
