#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "video/codec.h"
#include "video/raster.h"
#include "video/scene_catalog.h"

namespace tangram::video {
namespace {

RasterConfig small_raster() {
  RasterConfig c;
  c.analysis = {160, 90};
  return c;
}

TEST(FrameRasterizer, RendersAtAnalysisResolution) {
  FrameRasterizer r({1920, 1080}, small_raster());
  FrameTruth truth;
  const Image img = r.render(truth);
  EXPECT_EQ(img.width(), 160);
  EXPECT_EQ(img.height(), 90);
}

TEST(FrameRasterizer, CoordinateMappingRoundTrips) {
  FrameRasterizer r({1920, 1080}, small_raster());
  const common::Rect native{480, 270, 240, 135};
  const common::Rect analysis = r.to_analysis(native);
  EXPECT_EQ(analysis, (common::Rect{40, 22, 20, 12}));
  // Scaling back up covers the original region (outward rounding).
  EXPECT_TRUE(r.to_native(analysis).contains(native));
}

TEST(FrameRasterizer, ObjectsContrastWithBackground) {
  RasterConfig config = small_raster();
  config.noise_sigma = 0.0;
  FrameRasterizer with_obj({1920, 1080}, config);
  FrameRasterizer without_obj({1920, 1080}, config);

  FrameTruth truth;
  truth.objects.push_back({0, common::Rect{480, 270, 480, 405}});
  const Image a = with_obj.render(truth);
  const Image b = without_obj.render(FrameTruth{});

  // Inside the object's footprint the images differ markedly.
  double diff_inside = 0;
  int n = 0;
  for (int y = 25; y < 50; ++y)
    for (int x = 42; x < 78; ++x) {
      diff_inside += std::abs(static_cast<double>(a.at(x, y)) - b.at(x, y));
      ++n;
    }
  EXPECT_GT(diff_inside / n, 5.0);
}

TEST(FrameRasterizer, BackgroundIsTemporallyStable) {
  FrameRasterizer r({1920, 1080}, small_raster());
  FrameTruth t0, t1;
  t1.frame_index = 1;
  t1.timestamp = 1.0;
  const Image a = r.render(t0);
  const Image b = r.render(t1);
  double total_diff = 0;
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      total_diff += std::abs(static_cast<double>(a.at(x, y)) - b.at(x, y));
  // Only noise + drift: small average difference.
  EXPECT_LT(total_diff / a.pixel_count(), 8.0);
}

TEST(FrameRasterizer, RejectsNonFiniteConfig) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [](auto&& edit) {
    RasterConfig config = small_raster();
    edit(config);
    EXPECT_THROW(FrameRasterizer({1920, 1080}, config), std::invalid_argument);
  };
  for (const double bad : {kNan, kInf, -kInf}) {
    SCOPED_TRACE(bad);
    rejects([&](RasterConfig& c) { c.noise_sigma = bad; });
    rejects([&](RasterConfig& c) { c.illum_drift = bad; });
    rejects([&](RasterConfig& c) { c.illum_period_s = bad; });
    rejects([&](RasterConfig& c) { c.min_contrast = bad; });
    rejects([&](RasterConfig& c) { c.max_contrast = bad; });
  }
  for (const double period : {0.0, -0.0, -240.0})
    rejects([&](RasterConfig& c) { c.illum_period_s = period; });
  // Finite, but the noise width or the contrast range overflows.
  rejects([](RasterConfig& c) { c.noise_sigma = 1e308; });
  rejects([](RasterConfig& c) {
    c.min_contrast = -1e308;
    c.max_contrast = 1e308;
  });

  // A noiseless frame stays valid.
  RasterConfig quiet = small_raster();
  quiet.noise_sigma = 0.0;
  FrameRasterizer r({1920, 1080}, quiet);
  EXPECT_EQ(r.render(FrameTruth{}).width(), 160);

  // A timestamp whose drift phase overflows is refused per frame.
  RasterConfig tiny_period = small_raster();
  tiny_period.illum_period_s = 1e-310;
  FrameRasterizer fast({1920, 1080}, tiny_period);
  FrameTruth late;
  late.timestamp = 1.0;
  EXPECT_THROW((void)fast.render(late), std::invalid_argument);
}

// --- noise kernels -----------------------------------------------------------

// render()'s per-pixel noise loop before the block kernels, verbatim.
void reference_noise(std::uint8_t* px, std::size_t n, double drift,
                     double half_width, common::Rng& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    const double noisy = px[i] + drift + rng.uniform(-half_width, half_width);
    px[i] = static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
  }
}

// Every kernel's bytes, and the generator state it leaves, equal the
// reference on random draws over: flat 0 and 255 frames under drifts of
// +-300 and beyond (both clamps fire), a ramp of every byte value, noise
// widths from none to wider than the byte range, and sizes with n % 8 and
// n % 16 tails and partial fill blocks.
void expect_noise_matches_reference(detail::NoiseKernel kernel) {
  const std::size_t sizes[] = {1,  7,  8,   9,   15,  16,  17,
                               31, 33, 511, 512, 513, 1031};
  // +-1e12 leaves int32 range: a kernel that relied on saturating packs
  // instead of clamping in double would turn those pixels to 0.
  const double drifts[] = {0.0, 1.5, -2.7, 300.0, -300.0, 1e12, -1e12};
  const double half_widths[] = {0.0, 2.2 * 1.7320508, 40.0, 300.0};
  for (const int fill : {0, 255, -1}) {  // -1: a ramp of every byte value
    for (const std::size_t n : sizes)
      for (const double drift : drifts)
        for (const double half_width : half_widths) {
          SCOPED_TRACE(testing::Message() << "fill " << fill << " n " << n
                                          << " drift " << drift << " half "
                                          << half_width);
          std::vector<std::uint8_t> expected(n);
          for (std::size_t i = 0; i < n; ++i)
            expected[i] = static_cast<std::uint8_t>(fill < 0 ? i * 37 : fill);
          std::vector<std::uint8_t> actual = expected;
          common::Rng want(n * 31 + 7, 11), got(n * 31 + 7, 11);
          reference_noise(expected.data(), n, drift, half_width, want);
          detail::add_noise_with(actual.data(), n, drift, half_width, got,
                                 kernel);
          ASSERT_EQ(actual, expected);
          ASSERT_EQ(got.next_u32(), want.next_u32());
        }
  }
}

// A pixel's value before the clamp, from its byte, the drift, lo = -half
// width, span = 2 * half width and the drawn word, as the reference computes
// it and as operation orders an optimiser or a hand-written kernel could
// plausibly use instead.  Each alternative differs from the reference only
// in the last bits, so random inputs almost never show it in a byte.
using NoiseFormula = double (*)(double px, double drift, double lo,
                                double span, std::uint32_t word);

double reference_formula(double px, double drift, double lo, double span,
                         std::uint32_t word) {
  return px + drift + (lo + span * (word * 0x1.0p-32));
}

const NoiseFormula kWrongOrders[] = {
    // lo + span * u contracted to one fused multiply-add.
    [](double px, double drift, double lo, double span, std::uint32_t word) {
      return px + drift + std::fma(span, word * 0x1.0p-32, lo);
    },
    // The drift folded into lo once per frame.
    [](double px, double drift, double lo, double span, std::uint32_t word) {
      return px + ((drift + lo) + span * (word * 0x1.0p-32));
    },
    // The drift added to the noise before the pixel.
    [](double px, double drift, double lo, double span, std::uint32_t word) {
      return px + (drift + (lo + span * (word * 0x1.0p-32)));
    },
    // u scaled by 1 / (2^32 - 1) instead of 2^-32.
    [](double px, double drift, double lo, double span, std::uint32_t word) {
      return px + drift + (lo + span * (word * (1.0 / 4294967295.0)));
    },
};

std::uint8_t to_byte(double noisy) {
  return static_cast<std::uint8_t>(std::clamp(noisy, 0.0, 255.0));
}

struct KnifeEdge {
  std::uint8_t px;
  double drift;
  double half_width;
};

// A pixel byte, drift and noise width at which a pixel that draws `word`
// (with word * 2^-32 > 1/2) gets a different byte from `wrong` than from
// the reference: the value sits on an integer, within the alternative's
// rounding error.
std::optional<KnifeEdge> knife_edge(std::uint32_t word, NoiseFormula wrong) {
  const double u = word * 0x1.0p-32;
  for (const std::uint8_t px : {0, 1, 3})
    for (const double drift : {0.0, 0.1, -0.3, 0.7, 1.1, -1.9, 2.3})
      for (const double target : {1.0, 2.0, 3.0, 5.0}) {
        // px + drift + (lo + span * u) = px + target, lo = -w, span = 2w.
        const double center = (target - drift) / (2.0 * u - 1.0);
        if (!(center > 0.0)) continue;
        double below = center, above = center;
        for (int step = 0; step < 4096; ++step) {
          for (const double half_width : {below, above}) {
            const double lo = -half_width;
            const double span = half_width - lo;
            if (to_byte(reference_formula(px, drift, lo, span, word)) !=
                to_byte(wrong(px, drift, lo, span, word)))
              return KnifeEdge{px, drift, half_width};
          }
          below = std::nextafter(below, 0.0);
          above = std::nextafter(above, 1e9);
        }
      }
  return std::nullopt;
}

// For each wrong order, and for a draw in one block of `width` pixels (the
// kernel's lanes) as well as one in the n % width tail, a flat frame whose
// byte, drift and noise width put that pixel on a knife edge: `kernel` must
// match the reference byte for byte.
void expect_knife_edges_match_reference(detail::NoiseKernel kernel,
                                        std::size_t width) {
  const std::size_t pixels = width + 5;  // one block, a tail of five
  const common::Rng seeded(2024, 11);
  std::vector<std::uint32_t> words(pixels);
  {
    common::Rng peek = seeded;
    peek.fill_u32(words.data(), pixels);
  }
  for (const auto& [first, last] :
       {std::pair<std::size_t, std::size_t>{0, width}, {width, pixels}}) {
    std::size_t at = first;
    while (at < last && words[at] < 0xA0000000u) ++at;
    ASSERT_LT(at, last) << "no draw above 0.625 in [" << first << ", " << last
                        << ")";
    for (std::size_t w = 0; w < std::size(kWrongOrders); ++w) {
      const std::optional<KnifeEdge> edge = knife_edge(words[at],
                                                       kWrongOrders[w]);
      ASSERT_TRUE(edge.has_value())
          << "no knife edge for order " << w << ", draw " << at;
      std::vector<std::uint8_t> expected(pixels, edge->px);
      std::vector<std::uint8_t> actual = expected;
      common::Rng want = seeded, got = seeded;
      reference_noise(expected.data(), pixels, edge->drift, edge->half_width,
                      want);
      detail::add_noise_with(actual.data(), pixels, edge->drift,
                             edge->half_width, got, kernel);
      ASSERT_EQ(actual, expected) << "order " << w << ", draw " << at;
    }
  }
}

// The two kernels agree on a full analysis frame, generator state included.
void expect_frame_matches_scalar(detail::NoiseKernel kernel) {
  constexpr std::size_t kPixels = 480 * 270;
  std::vector<std::uint8_t> scalar(kPixels), lanes(kPixels);
  for (std::size_t i = 0; i < kPixels; ++i)
    scalar[i] = lanes[i] = static_cast<std::uint8_t>(60 + i % 141);
  common::Rng a(99, 11), b(99, 11);
  detail::add_noise_with(scalar.data(), kPixels, -1.2, 2.2 * 1.7320508, a,
                         detail::NoiseKernel::kScalar);
  detail::add_noise_with(lanes.data(), kPixels, -1.2, 2.2 * 1.7320508, b,
                         kernel);
  EXPECT_EQ(lanes, scalar);
  EXPECT_EQ(b.next_u32(), a.next_u32());
}

TEST(RasterNoise, ScalarMatchesReference) {
  expect_noise_matches_reference(detail::NoiseKernel::kScalar);
  expect_knife_edges_match_reference(detail::NoiseKernel::kScalar, 8);
}

TEST(RasterNoise, Avx2MatchesScalar) {
  if (!detail::noise_kernel_supported(detail::NoiseKernel::kAvx2))
    GTEST_SKIP() << "this CPU or build has no AVX2 kernel";
  expect_noise_matches_reference(detail::NoiseKernel::kAvx2);
  expect_knife_edges_match_reference(detail::NoiseKernel::kAvx2, 8);
  expect_frame_matches_scalar(detail::NoiseKernel::kAvx2);
}

TEST(RasterNoise, Avx512MatchesScalar) {
  if (!detail::noise_kernel_supported(detail::NoiseKernel::kAvx512))
    GTEST_SKIP() << "this CPU or build has no AVX-512 kernel";
  expect_noise_matches_reference(detail::NoiseKernel::kAvx512);
  expect_knife_edges_match_reference(detail::NoiseKernel::kAvx512, 16);
  expect_frame_matches_scalar(detail::NoiseKernel::kAvx512);
}

TEST(Image, FillRectClamps) {
  Image img(10, 10, 0);
  img.fill_rect({8, 8, 5, 5}, 255);
  EXPECT_EQ(img.at(9, 9), 255);
  EXPECT_EQ(img.at(7, 7), 0);
  img.fill_rect({-3, -3, 4, 4}, 7);
  EXPECT_EQ(img.at(0, 0), 7);
}

TEST(Image, RejectsBadDimensions) {
  EXPECT_THROW(Image(0, 5), std::invalid_argument);
  EXPECT_THROW(Image(5, -1), std::invalid_argument);
}

// --- codec ---------------------------------------------------------------

TEST(CodecModel, FullFrameBytesPlausible) {
  const CodecModel codec;
  // A 4K frame at ~8% content should encode to roughly 1-2 MB.
  const std::size_t bytes = codec.full_frame_bytes({3840, 2160}, 0.08);
  EXPECT_GT(bytes, 800u * 1024);
  EXPECT_LT(bytes, 2u * 1024 * 1024);
}

TEST(CodecModel, MoreContentCostsMoreBits) {
  const CodecModel codec;
  EXPECT_GT(codec.full_frame_bytes({3840, 2160}, 0.15),
            codec.full_frame_bytes({3840, 2160}, 0.05));
  EXPECT_GT(codec.masked_frame_bytes({3840, 2160}, 0.15, 1000.0),
            codec.masked_frame_bytes({3840, 2160}, 0.05, 1000.0));
}

TEST(CodecModel, MaskedNearFullFrame) {
  // Fig. 9: masked frames land within ~±35% of the full-frame bytes
  // (typical merged-RoI perimeters in the traces are a few 10^4 px).
  const CodecModel codec;
  for (const double cf : {0.05, 0.10, 0.15}) {
    const double full = static_cast<double>(
        codec.full_frame_bytes({3840, 2160}, cf));
    const double masked = static_cast<double>(
        codec.masked_frame_bytes({3840, 2160}, cf, 3.0e4));
    EXPECT_GT(masked / full, 0.8) << "cf=" << cf;
    EXPECT_LT(masked / full, 1.35) << "cf=" << cf;
  }
}

TEST(CodecModel, PatchBytesScaleWithArea) {
  const CodecModel codec;
  const std::size_t small = codec.patch_bytes({100, 100});
  const std::size_t large = codec.patch_bytes({200, 200});
  // 4x area -> a bit under 4x bytes (fixed per-message header).
  const double ratio = static_cast<double>(large) / small;
  EXPECT_GT(ratio, 3.0);
  EXPECT_LE(ratio, 4.0);
}

TEST(CodecModel, ElfEncodeCostsMoreThanPatchEncode) {
  const CodecModel codec;
  EXPECT_GT(codec.elf_patch_bytes({300, 300}),
            2 * codec.patch_bytes({300, 300}));
}

TEST(CodecModel, HeaderDominatesTinyMessages) {
  const CodecModel codec;
  const std::size_t bytes = codec.patch_bytes({4, 4});
  EXPECT_GE(bytes, 600u);  // per-message overhead floor
}

}  // namespace
}  // namespace tangram::video
