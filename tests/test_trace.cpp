#include "experiments/trace.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "vision/gmm.h"

namespace tangram::experiments {
namespace {

TraceConfig small_config() {
  TraceConfig c;
  c.raster.analysis = {240, 135};
  return c;
}

TEST(Trace, CoversWholeSequence) {
  const auto spec = video::test_scene(3);
  const auto trace = build_trace(spec, small_config());
  EXPECT_EQ(trace.frames.size(), static_cast<std::size_t>(spec.total_frames));
  EXPECT_EQ(trace.eval_frame_count(),
            static_cast<std::size_t>(spec.evaluation_frames()));
  EXPECT_EQ(trace.eval_frame(0).frame_index, spec.training_frames);
}

TEST(Trace, FramesCarryConsistentData) {
  const auto spec = video::test_scene(5);
  const auto trace = build_trace(spec, small_config());
  for (const auto& f : trace.frames) {
    EXPECT_EQ(f.patch_bytes.size(), f.patches.size());
    EXPECT_EQ(f.elf_patch_bytes.size(), f.patches.size());
    EXPECT_GT(f.full_frame_bytes, 0u);
    EXPECT_GT(f.masked_frame_bytes, 0u);
    EXPECT_GE(f.patch_area_fraction, 0.0);
    EXPECT_LE(f.patch_area_fraction, 1.01);
  }
}

TEST(Trace, PatchesFitTheCanvas) {
  TraceConfig config = small_config();
  config.canvas = {512, 512};
  const auto trace = build_trace(video::test_scene(7), config);
  for (const auto& f : trace.frames)
    for (const auto& p : f.patches) {
      EXPECT_LE(p.width, 512);
      EXPECT_LE(p.height, 512);
    }
}

TEST(Trace, GmmWarmsUpThenExtracts) {
  const auto trace = build_trace(video::test_scene(11), small_config());
  // Early frames: the background model is cold, few/no RoIs.  Evaluation
  // frames: objects present means RoIs usually present.
  std::size_t eval_with_rois = 0;
  for (std::size_t i = 0; i < trace.eval_frame_count(); ++i)
    if (!trace.eval_frame(i).rois.empty()) ++eval_with_rois;
  EXPECT_GT(eval_with_rois, trace.eval_frame_count() / 2);
}

TEST(Trace, DeterministicAcrossBuilds) {
  const auto a = build_trace(video::test_scene(13), small_config());
  const auto b = build_trace(video::test_scene(13), small_config());
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].patches, b.frames[i].patches);
    EXPECT_EQ(a.frames[i].full_frame_bytes, b.frames[i].full_frame_bytes);
  }
}

TEST(Trace, ElfBytesExceedPatchBytes) {
  const auto trace = build_trace(video::test_scene(17), small_config());
  std::size_t patch_total = 0, elf_total = 0;
  for (const auto& f : trace.frames) {
    patch_total += f.total_patch_bytes();
    elf_total += f.total_elf_bytes();
  }
  EXPECT_GT(elf_total, patch_total);
}

TEST(Trace, GroundTruthExtractorUsesNoPixels) {
  TraceConfig config = small_config();
  config.extractor = "Yolov3-MobileNetV2";
  const auto trace = build_trace(video::test_scene(19), config);
  std::size_t frames_with_rois = 0;
  for (const auto& f : trace.frames)
    if (!f.rois.empty()) ++frames_with_rois;
  EXPECT_GT(frames_with_rois, trace.frames.size() / 2);
}

TEST(Trace, FinerPartitionsSmallerPatchArea) {
  TraceConfig coarse = small_config();
  coarse.partition = {2, 2, 12};
  TraceConfig fine = small_config();
  fine.partition = {6, 6, 12};
  const auto spec = video::test_scene(23);
  const auto a = build_trace(spec, coarse);
  const auto b = build_trace(spec, fine);
  double coarse_area = 0, fine_area = 0;
  for (std::size_t i = 0; i < a.eval_frame_count(); ++i) {
    coarse_area += a.eval_frame(i).patch_area_fraction;
    fine_area += b.eval_frame(i).patch_area_fraction;
  }
  EXPECT_LE(fine_area, coarse_area * 1.05);
}

// --- edge-pipeline goldens ---------------------------------------------------
//
// FNV-1a 64 over every frame's extractor and partitioner output, captured
// before the GMM per-pixel update was specialised.  They pin the pipeline's
// end product.  A one-ulp change in the GMM's arithmetic often leaves every
// box and byte count unchanged, so the sensitive check of the GMM itself is
// GmmReference in test_gmm.cpp, which compares the whole mixture.

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a_bytes(h, &v, sizeof(v));
}

std::uint64_t fnv1a_int(std::uint64_t h, int v) {
  return fnv1a_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

std::uint64_t fnv1a_rects(std::uint64_t h,
                          const std::vector<common::Rect>& rects) {
  h = fnv1a_u64(h, rects.size());
  for (const auto& r : rects) {
    h = fnv1a_int(h, r.x);
    h = fnv1a_int(h, r.y);
    h = fnv1a_int(h, r.width);
    h = fnv1a_int(h, r.height);
  }
  return h;
}

std::uint64_t trace_hash(const SceneTrace& trace) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a_u64(h, trace.frames.size());
  for (const auto& f : trace.frames) {
    h = fnv1a_int(h, f.frame_index);
    h = fnv1a_rects(h, f.rois);
    h = fnv1a_rects(h, f.patches);
    h = fnv1a_u64(h, f.patch_bytes.size());
    for (const auto b : f.patch_bytes) h = fnv1a_u64(h, b);
    h = fnv1a_u64(h, f.full_frame_bytes);
    h = fnv1a_u64(h, f.masked_frame_bytes);
  }
  return h;
}

TEST(TraceGolden, TestScenesAtSmallAnalysisSize) {
  EXPECT_EQ(trace_hash(build_trace(video::test_scene(3), small_config())),
            0x282720d5f65668d1ull);
  EXPECT_EQ(trace_hash(build_trace(video::test_scene(5), small_config())),
            0xe7f83cebba626112ull);
}

TEST(TraceGolden, TestSceneAtDefaultAnalysisSize) {
  EXPECT_EQ(trace_hash(build_trace(video::test_scene(13))),
            0x83161ddb240ca950ull);
}

TEST(TraceGolden, CatalogScenes) {
  // Scene 5 whole; scene 1 (the densest Fig. 12 camera) cut to 60 frames.
  EXPECT_EQ(trace_hash(build_trace(video::panda4k_scene(5), small_config())),
            0xa23a422876606262ull);
  auto canteen = video::panda4k_scene(1);
  canteen.total_frames = 60;
  EXPECT_EQ(trace_hash(build_trace(canteen, small_config())),
            0x6af2f2b080747ed0ull);
}

TEST(TraceGolden, RawGmmMasks) {
  const auto spec = video::test_scene(5);
  video::SyntheticScene scene(spec);
  video::RasterConfig raster = small_config().raster;
  video::FrameRasterizer rasterizer(spec.frame, raster);
  vision::GmmBackgroundSubtractor gmm(raster.analysis);
  std::uint64_t h = 1469598103934665603ull;
  std::size_t foreground = 0;
  for (int f = 0; f < spec.total_frames; ++f) {
    const video::Mask fg = gmm.apply(rasterizer.render(scene.next_frame()));
    h = fnv1a_bytes(h, fg.data(), fg.pixel_count());
    for (std::size_t p = 0; p < fg.pixel_count(); ++p)
      foreground += fg.data()[p] ? 1 : 0;
  }
  EXPECT_GT(foreground, 0u);
  EXPECT_EQ(h, 0xb505bfe0b7e981deull);
}

}  // namespace
}  // namespace tangram::experiments
