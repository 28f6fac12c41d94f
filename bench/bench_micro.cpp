// Micro-benchmarks (google-benchmark): throughput of the hot components —
// the patch-stitching solver (batch and incremental), the per-arrival repack
// loop of Algorithm 2 (from-scratch vs. StitchSession), adaptive frame
// partitioning, frame rendering, GMM background subtraction, blob
// extraction, stitched-canvas AP, the event queue, the latency estimator
// lookup, and the saturated platform's backlog drain.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "common/alloc_probe.h"
#include "common/rng.h"
#include "core/estimator.h"
#include "core/free_rect_index.h"
#include "core/invoker.h"
#include "core/partitioner.h"
#include "core/stitcher.h"
#include "experiments/accuracy.h"
#include "experiments/trace.h"
#include "serverless/platform.h"
#include "sim/simulator.h"
#include "video/raster.h"
#include "video/scene_catalog.h"
#include "vision/components.h"
#include "vision/gmm.h"

// Global allocation tally for BM_DispatchPath's allocs_per_patch counter
// (shared probe, malloc passthrough; the relaxed increment is noise for
// every other benchmark in this binary).
TANGRAM_DEFINE_ALLOC_PROBE_HOOK();

using namespace tangram;

namespace {

std::vector<common::Size> random_patches(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed, 9);
  std::vector<common::Size> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({rng.uniform_int(40, 900), rng.uniform_int(60, 1000)});
  }
  return out;
}

void BM_StitchSolverPack(benchmark::State& state) {
  const auto patches =
      random_patches(static_cast<std::size_t>(state.range(0)), 11);
  const core::StitchSolver solver;
  for (auto _ : state) {
    auto result = solver.pack(patches, {1024, 1024});
    benchmark::DoNotOptimize(result.canvas_count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StitchSolverPack)->Arg(8)->Arg(32)->Arg(128);

// One batch window of Algorithm 2 with the paper's literal line 8: after
// every arrival, re-run the solver over the whole queue.  O(n^2) placements
// per window.
void BM_RepackFromScratch(benchmark::State& state) {
  const auto patches =
      random_patches(static_cast<std::size_t>(state.range(0)), 17);
  const core::StitchSolver solver;
  for (auto _ : state) {
    int canvases = 0;
    for (std::size_t k = 1; k <= patches.size(); ++k) {
      auto result =
          solver.pack(std::span(patches.data(), k), {1024, 1024});
      canvases = result.canvas_count;
    }
    benchmark::DoNotOptimize(canvases);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RepackFromScratch)->Arg(16)->Arg(64)->Arg(256);

// The same batch window through the incremental engine: one session add per
// arrival, identical placements.  O(n) placements per window.
void BM_RepackIncremental(benchmark::State& state) {
  const auto patches =
      random_patches(static_cast<std::size_t>(state.range(0)), 17);
  for (auto _ : state) {
    core::StitchSession session({1024, 1024});
    for (const auto& patch : patches) session.add(patch);
    benchmark::DoNotOptimize(session.canvas_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RepackIncremental)->Arg(16)->Arg(64)->Arg(256);

// The invoker's un-admit path: tentative add, inspect, rollback.
void BM_SessionCheckpointRollback(benchmark::State& state) {
  const auto patches = random_patches(64, 19);
  core::StitchSession session({1024, 1024});
  for (const auto& patch : patches) session.add(patch);
  const common::Size probe{333, 444};
  for (auto _ : state) {
    const auto checkpoint = session.checkpoint();
    session.add(probe);
    session.rollback(checkpoint);
    benchmark::DoNotOptimize(session.canvas_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionCheckpointRollback);

void BM_PartitionFrame(benchmark::State& state) {
  common::Rng rng(7, 3);
  std::vector<common::Rect> rois;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    rois.push_back({rng.uniform_int(0, 3600), rng.uniform_int(0, 2000),
                    rng.uniform_int(20, 240), rng.uniform_int(40, 480)});
  }
  const core::PartitionConfig config;
  for (auto _ : state) {
    auto patches = core::partition_patches({3840, 2160}, rois, config);
    benchmark::DoNotOptimize(patches.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionFrame)->Arg(16)->Arg(128)->Arg(1024);

// Frame rendering at an analysis width of range(0): catalog scene 5's
// ground truth, rendered in capture order as build_trace renders it (noise,
// drift and objects), cycling through the scene.  BM_RenderFrame runs the
// noise kernel render() picks for this CPU; BM_RenderFrameAvx2Kernel forces
// the AVX2 tier, which CPUs without AVX-512 run, and
// BM_RenderFrameScalarKernel the scalar kernel, which CPUs without AVX2 run.
void run_render_frame(benchmark::State& state,
                      std::optional<video::detail::NoiseKernel> kernel) {
  if (kernel && !video::detail::noise_kernel_supported(*kernel)) {
    state.SkipWithError("noise kernel not supported on this CPU or build");
    return;
  }
  const video::SceneSpec spec = video::panda4k_scene(5);
  video::SyntheticScene scene(spec);
  std::vector<video::FrameTruth> truths;
  truths.reserve(static_cast<std::size_t>(spec.total_frames));
  for (int i = 0; i < spec.total_frames; ++i)
    truths.push_back(scene.next_frame());
  video::RasterConfig raster_config;
  raster_config.seed ^= spec.seed * 0x9E3779B97F4A7C15ULL;
  raster_config.analysis = {static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 9 / 16};
  video::FrameRasterizer rasterizer(spec.frame, raster_config);

  std::size_t f = 0;
  for (auto _ : state) {
    const video::Image frame =
        kernel ? video::detail::render_with(rasterizer, truths[f], *kernel)
               : rasterizer.render(truths[f]);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
    f = (f + 1) % truths.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          raster_config.analysis.area());
}
void BM_RenderFrame(benchmark::State& state) { run_render_frame(state, {}); }
BENCHMARK(BM_RenderFrame)->Arg(480);

void BM_RenderFrameAvx2Kernel(benchmark::State& state) {
  run_render_frame(state, video::detail::NoiseKernel::kAvx2);
}
BENCHMARK(BM_RenderFrameAvx2Kernel)->Arg(480);

void BM_RenderFrameScalarKernel(benchmark::State& state) {
  run_render_frame(state, video::detail::NoiseKernel::kScalar);
}
BENCHMARK(BM_RenderFrameScalarKernel)->Arg(480);

// GMM throughput on the frames the edge pass really sees: catalog scene 5
// rendered exactly as build_trace renders it, at an analysis width of
// range(0).  The first kSettle frames only warm the model up; the timed loop
// then feeds the remaining frames in capture order, and on wrap rebuilds and
// re-settles the subtractor outside the timed region, so every timed frame
// meets the model state it meets in a trace.  lone_frac is the share of timed
// pixel-frames whose model is in the K = 3 kernel's lone-component state
// (see gmm.h) before the update.  BM_GmmApply runs the kernel apply()
// picks for this CPU; BM_GmmApplyAvx2Kernel forces the AVX2 tier, which
// CPUs without AVX-512 run, and BM_GmmApplyScalarKernel the portable scalar
// K = 3 kernel, which CPUs without AVX2 run.
void run_gmm_apply(benchmark::State& state,
                   std::optional<vision::detail::GmmKernel> kernel) {
  if (kernel && !vision::detail::gmm_kernel_supported(*kernel)) {
    state.SkipWithError("GMM kernel not supported on this CPU or build");
    return;
  }
  constexpr std::size_t kSettle = 16;
  const video::SceneSpec spec = video::panda4k_scene(5);
  video::SyntheticScene scene(spec);
  video::RasterConfig raster_config;
  raster_config.seed ^= spec.seed * 0x9E3779B97F4A7C15ULL;
  raster_config.analysis = {static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 9 / 16};
  video::FrameRasterizer rasterizer(spec.frame, raster_config);
  std::vector<video::Image> frames;
  frames.reserve(static_cast<std::size_t>(spec.total_frames));
  for (int i = 0; i < spec.total_frames; ++i)
    frames.push_back(rasterizer.render(scene.next_frame()));

  const auto settled = [&] {
    vision::GmmBackgroundSubtractor gmm(raster_config.analysis);
    for (std::size_t f = 0; f < kSettle; ++f) (void)gmm.apply(frames[f]);
    return gmm;
  };

  std::size_t lone = 0, pixel_frames = 0;
  {
    vision::GmmBackgroundSubtractor gmm = settled();
    for (std::size_t f = kSettle; f < frames.size(); ++f) {
      const auto mix = gmm.mixtures();
      for (std::size_t i = 0; i < mix.size(); i += 3, ++pixel_frames)
        if (mix[i].weight == 1.0f && mix[i + 1].weight <= 0.0f &&
            !(mix[i + 2].weight > mix[i + 1].weight))
          ++lone;
      (void)gmm.apply(frames[f]);
    }
  }

  vision::GmmBackgroundSubtractor gmm = settled();
  std::size_t f = kSettle;
  for (auto _ : state) {
    if (f == frames.size()) {
      state.PauseTiming();
      gmm = settled();
      f = kSettle;
      state.ResumeTiming();
    }
    auto mask = kernel
                    ? vision::detail::gmm_apply_with(gmm, frames[f++], *kernel)
                    : gmm.apply(frames[f++]);
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          raster_config.analysis.area());
  state.counters["lone_frac"] =
      static_cast<double>(lone) / static_cast<double>(pixel_frames);
}
void BM_GmmApply(benchmark::State& state) { run_gmm_apply(state, {}); }
BENCHMARK(BM_GmmApply)->Arg(320)->Arg(480)->Arg(960);

void BM_GmmApplyAvx2Kernel(benchmark::State& state) {
  run_gmm_apply(state, vision::detail::GmmKernel::kAvx2);
}
BENCHMARK(BM_GmmApplyAvx2Kernel)->Arg(480);

void BM_GmmApplyScalarKernel(benchmark::State& state) {
  run_gmm_apply(state, vision::detail::GmmKernel::kScalar);
}
BENCHMARK(BM_GmmApplyScalarKernel)->Arg(480);

// Dilate + label + box merge on real GMM foreground masks (480x270 analysis
// frames of a rendered test scene), so the foreground density is the edge
// pipeline's, not a synthetic one.
void BM_ExtractBlobs(benchmark::State& state) {
  auto spec = video::test_scene(5);
  spec.frame = {1920, 1080};
  video::SyntheticScene scene(spec);
  video::RasterConfig raster_config;
  raster_config.analysis = {480, 270};
  video::FrameRasterizer rasterizer(spec.frame, raster_config);
  vision::GmmBackgroundSubtractor gmm(raster_config.analysis);

  std::vector<video::Mask> masks;
  std::size_t foreground = 0;
  for (int i = 0; i < 48; ++i) {
    auto mask = gmm.apply(rasterizer.render(scene.next_frame()));
    if (i < 16) continue;  // let the model settle
    foreground += static_cast<std::size_t>(
        std::count_if(mask.data(), mask.data() + mask.pixel_count(),
                      [](std::uint8_t v) { return v != 0; }));
    masks.push_back(std::move(mask));
  }
  const vision::ComponentParams params;

  std::size_t i = 0;
  for (auto _ : state) {
    auto blobs = vision::extract_blobs(masks[i % masks.size()], params);
    benchmark::DoNotOptimize(blobs.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          raster_config.analysis.area());
  state.counters["fg_frac"] =
      static_cast<double>(foreground) /
      static_cast<double>(masks.size() * masks.front().pixel_count());
}
BENCHMARK(BM_ExtractBlobs);

// Stitched-canvas AP@0.5 (stitch every evaluation frame's patches, detect
// on the canvases, map back, NMS, then match and score) over one catalog
// scene's trace, the per-camera step of edge_fig12's ap50.  The trace is
// built once, outside the timer; items are evaluation frames.
void BM_StitchedCanvasAp(benchmark::State& state) {
  const experiments::SceneTrace trace =
      experiments::build_trace(video::panda4k_scene(5), {});
  for (auto _ : state)
    benchmark::DoNotOptimize(experiments::stitched_canvas_ap(trace));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.eval_frame_count()));
}
BENCHMARK(BM_StitchedCanvasAp)->Unit(benchmark::kMillisecond);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    common::Rng rng(3, 1);
    int fired = 0;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
      sim.schedule_at(rng.uniform(0.0, 100.0), [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(10000);

// Algorithm 2's event pattern: the invoker's deadline timer is cancelled and
// re-armed on every patch arrival, and most re-arms happen before the old
// timer ever fires.  BM_EventQueue never cancels, so it misses the dominant
// cost of a real replay: dead entries (or their removal) in the heap.  Each
// iteration interleaves arrivals (cancel + re-arm over `range(1)` concurrent
// timers) with enough clock progress that some timers do fire.
void BM_EventChurn(benchmark::State& state) {
  const int arrivals = static_cast<int>(state.range(0));
  const int timers = static_cast<int>(state.range(1));
  for (auto _ : state) {
    sim::Simulator sim;
    common::Rng rng(5, 2);
    std::vector<sim::EventHandle> handles(
        static_cast<std::size_t>(timers));
    std::size_t fired = 0;
    double t = 0.0;
    for (int i = 0; i < arrivals; ++i) {
      t += rng.uniform(0.0, 1e-3);
      sim.run_until(t);
      auto& handle = handles[static_cast<std::size_t>(
          rng.uniform_int(0, timers - 1))];
      handle.cancel();
      handle = sim.schedule_at(t + rng.uniform(0.005, 0.1),
                               [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * arrivals);
}
BENCHMARK(BM_EventChurn)
    ->Args({100000, 16})
    ->Args({100000, 256})
    ->Args({100000, 4096});

// One Best-Short-Side-Fit query (tentative place + rollback, the invoker's
// admit probe) against a store holding `range(0)` free rectangles.  Grows the
// store by placing small items: each guillotine place nets roughly one extra
// free rect, so free-rect count tracks placement count.
void BM_BssfQuery(benchmark::State& state) {
  const int target_rects = static_cast<int>(state.range(0));
  core::FreeRectIndex index({1024, 1024});
  common::Rng rng(21, 4);
  while (index.free_rect_count() < static_cast<std::size_t>(target_rects))
    index.place({rng.uniform_int(20, 160), rng.uniform_int(20, 160)});

  for (auto _ : state) {
    const auto mark = index.mark();
    const auto placed =
        index.place({rng.uniform_int(20, 300), rng.uniform_int(20, 300)});
    index.rollback(mark);
    benchmark::DoNotOptimize(placed.canvas_index);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BssfQuery)->Arg(256)->Arg(4096)->Arg(65536);

void BM_EstimatorSlack(benchmark::State& state) {
  serverless::InferenceLatencyModel model;
  core::LatencyEstimator::Config config;
  config.iterations = 200;
  const core::LatencyEstimator estimator(model, {1024, 1024}, config);
  int b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.slack(b));
    b = b % 16 + 1;
  }
}
BENCHMARK(BM_EstimatorSlack);

// The full dispatch hot path, end to end: patch arrival -> Algorithm 2
// admission -> deadline-timer flush -> platform invoke -> completion event.
// Mirrors TangramSystem::dispatch()'s wiring (batch handed to the platform
// callback, touched per patch at completion).  The allocs_per_patch counter
// tallies global operator new calls across the timed loop — the number the
// zero-allocation dispatch pipeline drives to ~0.
void BM_DispatchPath(benchmark::State& state) {
  const int patches_per_window = static_cast<int>(state.range(0));
  sim::Simulator sim;
  serverless::PlatformConfig pconfig;
  pconfig.max_instances = 8;
  serverless::FunctionPlatform platform(sim, pconfig);
  core::LatencyEstimator::Config econfig;
  econfig.iterations = 200;
  const core::LatencyEstimator estimator(platform.latency_model(),
                                         {1024, 1024}, econfig);

  core::InvokerConfig iconfig;
  iconfig.max_canvases = platform.max_canvases_per_batch();
  iconfig.telemetry_reservoir = 64;
  iconfig.batch_pool = std::make_shared<core::BatchPool>();
  // TangramSystem::dispatch()'s idiom: park the in-flight batch in a
  // recycled slot so the platform callback captures only [ctx, slot]
  // (std::function small-buffer, no allocation) and completion recycles
  // the batch storage.
  struct Inflight {
    std::vector<core::Batch> slots;
    std::vector<std::uint32_t> free_slots;
    core::BatchPool* pool = nullptr;
    std::uint64_t completed = 0;
  } ctx;
  ctx.pool = iconfig.batch_pool.get();
  auto dispatch = [&platform, &ctx](core::Batch&& batch) {
    serverless::RequestSpec spec;
    spec.num_canvases = batch.canvas_count();
    spec.num_items = batch.total_patches;
    std::uint32_t slot;
    if (ctx.free_slots.empty()) {
      ctx.slots.emplace_back();
      slot = static_cast<std::uint32_t>(ctx.slots.size() - 1);
    } else {
      slot = ctx.free_slots.back();
      ctx.free_slots.pop_back();
    }
    ctx.slots[slot] = std::move(batch);
    platform.invoke(
        spec, 0,
        [c = &ctx, slot](const serverless::InvocationRecord& record) {
          core::Batch done = std::move(c->slots[slot]);
          c->free_slots.push_back(slot);
          c->completed += static_cast<std::uint64_t>(done.total_patches);
          c->pool->recycle(std::move(done));
          benchmark::DoNotOptimize(record.finish_time);
        });
  };
  core::SloAwareInvoker invoker(sim, core::StitchSolver{}, estimator, iconfig,
                                dispatch);

  const auto sizes = random_patches(64, 23);
  double t = 0.0;
  std::uint64_t id = 0;
  // Warm up: fill freelists / sampler reservoirs / platform instances so the
  // timed loop measures the steady state.
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < patches_per_window; ++i) {
      t += 2e-3;
      sim.run_until(t);
      core::Patch patch;
      patch.id = id++;
      const auto& size = sizes[id % sizes.size()];
      patch.region = {0, 0, size.width, size.height};
      patch.generation_time = t;
      patch.slo = 0.25;
      patch.bytes = 1000;
      invoker.on_patch(patch);
    }
    t += 1.0;
    sim.run_until(t);
  }

  const std::size_t allocs_before = common::alloc_probe_calls();
  for (auto _ : state) {
    for (int i = 0; i < patches_per_window; ++i) {
      t += 2e-3;
      sim.run_until(t);
      core::Patch patch;
      patch.id = id++;
      const auto& size = sizes[id % sizes.size()];
      patch.region = {0, 0, size.width, size.height};
      patch.generation_time = t;
      patch.slo = 0.25;
      patch.bytes = 1000;
      invoker.on_patch(patch);
    }
    t += 1.0;
    sim.run_until(t);
  }
  const std::size_t allocs_after = common::alloc_probe_calls();
  benchmark::DoNotOptimize(ctx.completed);

  const double patches =
      static_cast<double>(state.iterations()) * patches_per_window;
  state.counters["allocs_per_patch"] =
      static_cast<double>(allocs_after - allocs_before) / patches;
  state.SetItemsProcessed(state.iterations() * patches_per_window);
}
BENCHMARK(BM_DispatchPath)->Arg(16)->Arg(64);

// A saturated platform: `range(0)` requests stay backlogged behind an 8-slot
// fleet while each completion resubmits one request to its own pool (a
// closed loop), so every timed step is one completion plus the backlog drain
// it triggers.  `range(1)` = 1 puts everything on the default pool; 3 spreads
// it over three capped pools, so drains also pass blocked pools' heads.
void BM_PlatformSaturatedDrain(benchmark::State& state) {
  const int backlog = static_cast<int>(state.range(0));
  const int pools = static_cast<int>(state.range(1));
  sim::Simulator sim;
  serverless::PlatformConfig pconfig;
  pconfig.max_instances = 8;
  pconfig.cold_start_s = 0.0;
  if (pools > 1) {
    pconfig.pools.push_back({"a", 2, 4});
    pconfig.pools.push_back({"b", 1, 3});
    pconfig.pools.push_back({"c", 0, 2});
  }
  serverless::FunctionPlatform platform(sim, pconfig);
  serverless::RequestSpec spec;
  spec.num_canvases = 1;
  std::uint64_t completed = 0;
  std::function<void(int)> submit = [&](int pool) {
    platform.invoke(spec, pool,
                    [&submit, &completed](
                        const serverless::InvocationRecord& record) {
                      ++completed;
                      submit(record.pool);
                    });
  };
  const int first_pool = pools > 1 ? 1 : 0;
  for (int i = 0; i < pconfig.max_instances + backlog; ++i)
    submit(first_pool + i % pools);
  for (auto _ : state) sim.step();
  if (platform.queued_requests() != static_cast<std::size_t>(backlog))
    state.SkipWithError("backlog depth drifted");
  benchmark::DoNotOptimize(completed);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlatformSaturatedDrain)->ArgsProduct({{256, 4096}, {1, 3}});

}  // namespace

BENCHMARK_MAIN();
