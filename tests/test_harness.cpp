#include "experiments/harness.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

namespace tangram::experiments {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceConfig config;
    config.raster.analysis = {240, 135};
    trace_ = new SceneTrace(build_trace(video::test_scene(31), config));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }

  static EndToEndConfig quick_config() {
    EndToEndConfig c;
    c.bandwidth_mbps = 40.0;
    c.slo_s = 1.5;
    return c;
  }

  static std::size_t total_patches() {
    std::size_t n = 0;
    for (std::size_t i = 0; i < trace_->eval_frame_count(); ++i)
      n += trace_->eval_frame(i).patches.size();
    return n;
  }

  static SceneTrace* trace_;
};

SceneTrace* HarnessTest::trace_ = nullptr;

TEST_F(HarnessTest, TangramCompletesEveryPatch) {
  const auto result = run_end_to_end({trace_}, StrategyKind::kTangram,
                                     quick_config());
  EXPECT_EQ(result.completed_items, total_patches());
  EXPECT_GT(result.total_cost, 0.0);
  EXPECT_GT(result.invocations, 0u);
  EXPECT_GT(result.canvas_efficiency.count(), 0u);
  EXPECT_LE(result.violation_rate(), 1.0);
}

TEST_F(HarnessTest, EveryPatchStrategyCompletesTheStream) {
  for (const auto kind : {StrategyKind::kElf, StrategyKind::kClipper,
                          StrategyKind::kMArk}) {
    const auto result = run_end_to_end({trace_}, kind, quick_config());
    EXPECT_EQ(result.completed_items, total_patches())
        << to_string(kind);
    EXPECT_GT(result.total_cost, 0.0) << to_string(kind);
  }
}

TEST_F(HarnessTest, FrameStrategiesCompletePerFrame) {
  for (const auto kind :
       {StrategyKind::kFullFrame, StrategyKind::kMaskedFrame}) {
    const auto result = run_end_to_end({trace_}, kind, quick_config());
    EXPECT_EQ(result.completed_items, trace_->eval_frame_count())
        << to_string(kind);
  }
}

TEST_F(HarnessTest, LatenciesAtLeastTransmissionBound) {
  const auto result =
      run_end_to_end({trace_}, StrategyKind::kTangram, quick_config());
  // Every end-to-end latency includes edge latency and some execution.
  EXPECT_GT(result.e2e_latency.stats().min(), quick_config().edge_latency_s);
}

TEST_F(HarnessTest, MultipleCamerasScaleBytes) {
  const auto one =
      run_end_to_end({trace_}, StrategyKind::kTangram, quick_config());
  const auto two = run_end_to_end({trace_, trace_}, StrategyKind::kTangram,
                                  quick_config());
  EXPECT_EQ(two.total_bytes, 2 * one.total_bytes);
  EXPECT_EQ(two.completed_items, 2 * one.completed_items);
}

TEST_F(HarnessTest, TighterSloRaisesCostOrViolations) {
  EndToEndConfig loose = quick_config();
  loose.slo_s = 2.0;
  EndToEndConfig tight = quick_config();
  tight.slo_s = 0.5;
  const auto l = run_end_to_end({trace_}, StrategyKind::kTangram, loose);
  const auto t = run_end_to_end({trace_}, StrategyKind::kTangram, tight);
  EXPECT_GE(t.total_cost + 1e-9, l.total_cost * 0.95);
  EXPECT_GE(t.invocations, l.invocations);
}

TEST_F(HarnessTest, RejectsEmptyCameraList) {
  EXPECT_THROW((void)run_end_to_end({}, StrategyKind::kTangram,
                                    quick_config()),
               std::invalid_argument);
}

TEST_F(HarnessTest, PerFrameCostOrderingMatchesFig8) {
  EndToEndConfig config = quick_config();
  config.latency = serverless::alibaba_function_compute_params();
  const auto tangram = per_frame_cost(*trace_, StrategyKind::kTangram, config);
  const auto masked =
      per_frame_cost(*trace_, StrategyKind::kMaskedFrame, config);
  const auto full = per_frame_cost(*trace_, StrategyKind::kFullFrame, config);
  const auto elf = per_frame_cost(*trace_, StrategyKind::kElf, config);
  EXPECT_LT(tangram.total_cost, masked.total_cost);
  EXPECT_LT(masked.total_cost, full.total_cost);
  EXPECT_LT(full.total_cost, elf.total_cost);
  EXPECT_EQ(full.invocations, trace_->eval_frame_count());
}

TEST_F(HarnessTest, PerFrameCostRejectsOnlineOnlyBaselines) {
  EXPECT_THROW(
      (void)per_frame_cost(*trace_, StrategyKind::kClipper, quick_config()),
      std::invalid_argument);
  EXPECT_THROW(
      (void)per_frame_cost(*trace_, StrategyKind::kMArk, quick_config()),
      std::invalid_argument);
}

TEST_F(HarnessTest, DedicatedUplinksReduceQueueing) {
  EndToEndConfig shared = quick_config();
  shared.bandwidth_mbps = 10.0;
  EndToEndConfig dedicated = shared;
  dedicated.dedicated_uplinks = true;
  const auto s =
      run_end_to_end({trace_, trace_}, StrategyKind::kTangram, shared);
  const auto d =
      run_end_to_end({trace_, trace_}, StrategyKind::kTangram, dedicated);
  EXPECT_EQ(s.completed_items, d.completed_items);
  // Two dedicated 10 Mbps links carry strictly more than one shared one.
  EXPECT_LE(d.e2e_latency.mean(), s.e2e_latency.mean() + 1e-9);
}

TEST_F(HarnessTest, PerCameraSloOverridesDefault) {
  EndToEndConfig config = quick_config();
  config.slo_s = 10.0;               // default very loose
  config.per_camera_slo = {0.001};   // camera 0 impossible to meet
  const auto result =
      run_end_to_end({trace_, trace_}, StrategyKind::kTangram, config);
  // Camera 0's patches all violate; camera 1's (default SLO) all pass.
  EXPECT_GT(result.violation_rate(), 0.35);
  EXPECT_LT(result.violation_rate(), 0.65);
}

// --- multi-stream scenario --------------------------------------------------

TEST_F(HarnessTest, MultistreamCompletesEveryPatchWithPerStreamTelemetry) {
  MultiStreamConfig config;
  config.slo_s = 1.5;
  const auto result = run_multistream({trace_, trace_, trace_}, config);
  ASSERT_EQ(result.streams.size(), 3u);
  EXPECT_EQ(result.patches_sent, 3 * total_patches());
  EXPECT_EQ(result.patches_completed, result.patches_sent);
  for (const auto& stream : result.streams) {
    EXPECT_EQ(stream.patches_completed, total_patches()) << stream.name;
    EXPECT_GT(stream.queue_to_invoke.count(), 0u) << stream.name;
    EXPECT_GT(stream.e2e_latency.count(), 0u) << stream.name;
  }
  EXPECT_GT(result.total_cost, 0.0);
  EXPECT_GT(result.batches, 0u);
  EXPECT_EQ(result.pooled_queue_to_invoke().count(), result.patches_completed);
}

TEST_F(HarnessTest, MultistreamSharesBatchesAcrossStreams) {
  MultiStreamConfig config;
  config.slo_s = 1.5;
  const auto one = run_multistream({trace_}, config);
  const auto four = run_multistream({trace_, trace_, trace_, trace_}, config);
  // Cross-stream stitching amortizes invocations: 4 streams cost well under
  // 4x the single-stream invocation count.
  EXPECT_LT(static_cast<double>(four.invocations),
            3.0 * static_cast<double>(one.invocations));
  EXPECT_EQ(four.patches_completed, 4 * one.patches_completed);
}

TEST_F(HarnessTest, MultistreamPerStreamSloClasses) {
  MultiStreamConfig config;
  config.slo_s = 10.0;                  // default very loose
  config.per_stream_slo = {0.001, 10.0};  // stream 0 impossible to meet
  const auto result = run_multistream({trace_, trace_}, config);
  EXPECT_DOUBLE_EQ(result.streams[0].violation_rate(), 1.0);
  EXPECT_DOUBLE_EQ(result.streams[1].violation_rate(), 0.0);
}

TEST_F(HarnessTest, MultistreamRejectsEmptyCameraList) {
  EXPECT_THROW((void)run_multistream({}, MultiStreamConfig{}),
               std::invalid_argument);
}

TEST_F(HarnessTest, MultistreamExportsPoolAndColdStartTelemetry) {
  MultiStreamConfig config;
  config.slo_s = 1.5;
  const auto result = run_multistream({trace_, trace_}, config);
  ASSERT_GE(result.pools.size(), 1u);
  EXPECT_EQ(result.pools[0].name,
            serverless::FunctionPlatform::kDefaultPool);
  EXPECT_GT(result.cold_starts, 0u);
  EXPECT_EQ(result.cold_start_setup.count(), result.cold_starts);
  EXPECT_GT(result.fleet_size, 0);
  std::uint64_t dispatched = 0;
  for (const auto& pool : result.pools) dispatched += pool.dispatched;
  EXPECT_EQ(dispatched, result.invocations);
}

TEST_F(HarnessTest, MultistreamAutoscaleRecordsPerPoolSeries) {
  MultiStreamConfig config;
  config.slo_s = 1.5;
  config.platform.autoscale =
      serverless::AutoscalePolicy::queue_pressure(/*backlog_high=*/1,
                                                  /*interval_s=*/0.25,
                                                  /*initial_limit=*/1);
  const auto result = run_multistream({trace_, trace_}, config);
  EXPECT_EQ(result.patches_completed, 2 * total_patches());
  ASSERT_GE(result.pools.size(), 1u);
  EXPECT_FALSE(result.pools[0].series.empty());
}

TEST_F(HarnessTest, RunShardedAddsReservedLegWhenPoolsAreWired) {
  MultiStreamConfig config;
  config.platform.max_instances = 4;
  config.per_stream_slo = {0.4, 2.0, 2.0, 2.0};
  const std::vector<const SceneTrace*> cameras(4, trace_);

  const auto plain = run_sharded(cameras, config);
  EXPECT_FALSE(plain.has_reserved);

  config.pool_for_shard = reserved_tight_pool_plan(
      /*tight_slo_threshold=*/0.5, /*tight_reserved=*/2,
      /*loose_burst_limit=*/2);
  const auto reserved = run_sharded(cameras, config);
  EXPECT_TRUE(reserved.has_reserved);
  // The single/sharded legs stay pool-free (PR-2-comparable baselines);
  // only the reserved leg carves tight/loose pools out of the fleet.
  EXPECT_EQ(reserved.single.pools.size(), 1u);
  EXPECT_EQ(reserved.sharded.pools.size(), 1u);
  EXPECT_EQ(reserved.sharded_reserved.pools.size(), 3u);
  // Identical workload, every leg completes it.
  EXPECT_EQ(reserved.sharded_reserved.patches_completed,
            reserved.single.patches_completed);
  // The tight class's guaranteed concurrency may not cost it misses
  // relative to the un-pooled sharded layout.
  const auto sharded_tight = reserved.sharded.class_completions_misses(0.4);
  const auto reserved_tight =
      reserved.sharded_reserved.class_completions_misses(0.4);
  EXPECT_EQ(reserved_tight.first, sharded_tight.first);
  EXPECT_LE(reserved_tight.second, sharded_tight.second);
}

// --- end-to-end goldens -----------------------------------------------------
// FNV-1a over every RunResult scalar and every Sampler's values (insertion
// order), per StrategyKind.  The hashes pin run_end_to_end's simulation
// bit for bit: any change to arrival order, batching, platform dispatch or
// telemetry moves them.  The traces come out of the edge pipeline, so the
// hashes also pass through the SIMD GMM and render kernels.

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_field(std::uint64_t h, const T& value) {
  return fnv1a_bytes(h, &value, sizeof(value));
}

std::uint64_t fnv1a_sampler(std::uint64_t h, const common::Sampler& s) {
  h = fnv1a_field(h, s.count());
  for (const double v : s.values()) h = fnv1a_field(h, v);
  return h;
}

std::uint64_t run_hash(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a_bytes(h, r.strategy.data(), r.strategy.size());
  h = fnv1a_field(h, r.total_cost);
  h = fnv1a_field(h, r.invocations);
  h = fnv1a_field(h, r.instances_created);
  h = fnv1a_field(h, r.fleet_size);
  h = fnv1a_field(h, r.stragglers);
  h = fnv1a_field(h, r.retries);
  h = fnv1a_field(h, r.completed_items);
  h = fnv1a_field(h, r.violations);
  h = fnv1a_sampler(h, r.e2e_latency);
  h = fnv1a_sampler(h, r.exec_latency);
  h = fnv1a_sampler(h, r.canvas_efficiency);
  h = fnv1a_sampler(h, r.batch_canvases);
  h = fnv1a_sampler(h, r.batch_patches);
  h = fnv1a_field(h, r.total_bytes);
  h = fnv1a_field(h, r.transmission_busy_s);
  h = fnv1a_field(h, r.execution_busy_s);
  h = fnv1a_field(h, r.makespan_s);
  h = fnv1a_field(h, r.eval_frames);
  return h;
}

constexpr std::array<StrategyKind, 6> kAllKinds = {
    StrategyKind::kTangram, StrategyKind::kFullFrame,
    StrategyKind::kMaskedFrame, StrategyKind::kElf,
    StrategyKind::kClipper, StrategyKind::kMArk};

using KindHashes = std::array<std::uint64_t, kAllKinds.size()>;

class EndToEndGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TraceConfig config;
    config.raster.analysis = {320, 180};
    a_ = new SceneTrace(build_trace(video::test_scene(41), config));
    b_ = new SceneTrace(build_trace(video::test_scene(43), config));
  }
  static void TearDownTestSuite() {
    delete a_;
    delete b_;
    a_ = b_ = nullptr;
  }

  static void expect_hashes(const std::vector<const SceneTrace*>& cameras,
                            const EndToEndConfig& config,
                            const KindHashes& golden) {
    for (std::size_t k = 0; k < kAllKinds.size(); ++k) {
      const std::uint64_t h =
          run_hash(run_end_to_end(cameras, kAllKinds[k], config));
      EXPECT_EQ(h, golden[k])
          << to_string(kAllKinds[k]) << ": 0x" << std::hex << h << "ull";
    }
  }

  static SceneTrace* a_;
  static SceneTrace* b_;
};

SceneTrace* EndToEndGolden::a_ = nullptr;
SceneTrace* EndToEndGolden::b_ = nullptr;

TEST_F(EndToEndGolden, DefaultConfig) {
  expect_hashes({a_, b_}, EndToEndConfig{},
                {0x1f5c9de26d5e23fbull, 0x39fba7007fe32cf8ull,
                 0x34e629e96c80d270ull, 0xe20cf775a01f0bb8ull,
                 0x80fea92c9f782180ull, 0x884c72d12d1b841full});
}

TEST_F(EndToEndGolden, PerCameraSlo) {
  EndToEndConfig config;
  config.per_camera_slo = {0.5, 2.0};
  expect_hashes({a_, b_, a_}, config,
                {0x72a89db293c03102ull, 0xaf1f2c3117bb9d46ull,
                 0xb9b7b4d6dbfc362bull, 0x56f6c16586c8d166ull,
                 0x034fe4cc6d82a889ull, 0xf0b5a8906180fedfull});
}

TEST_F(EndToEndGolden, DedicatedUplinks) {
  EndToEndConfig config;
  config.bandwidth_mbps = 10.0;
  config.dedicated_uplinks = true;
  expect_hashes({a_, b_}, config,
                {0x316089f1510e4001ull, 0xa0b0c047e3c30b3eull,
                 0xdcd86f33e10f2eb4ull, 0x39976b3f88fed6b8ull,
                 0xe3242fd979adca32ull, 0x68231e85701f14deull});
}

TEST_F(EndToEndGolden, FaultsOn) {
  EndToEndConfig config;
  config.platform.faults.straggler_probability = 0.1;
  config.platform.faults.straggler_factor = 3.0;
  config.platform.faults.failure_probability = 0.05;
  expect_hashes({a_, b_}, config,
                {0x30144a4635fdf5e8ull, 0xafd982d9976d16a4ull,
                 0x1809b87c42127424ull, 0x462db0c9f1856312ull,
                 0x56fe21d917aee2a7ull, 0xffaea37ac270a6a6ull});
}

TEST_F(EndToEndGolden, ShelfFirstFitOn512Canvas) {
  EndToEndConfig config;
  config.heuristic = core::PackHeuristic::kShelfFirstFit;
  config.canvas = {512, 512};
  expect_hashes({a_, b_}, config,
                {0x844730100610772bull, 0x39fba7007fe32cf8ull,
                 0x34e629e96c80d270ull, 0xe20cf775a01f0bb8ull,
                 0x80fea92c9f782180ull, 0x884c72d12d1b841full});
}

TEST_F(EndToEndGolden, MixedFpsUnstaggeredSharedUplink) {
  // Frames of different cameras land on the same instants; the goldens pin
  // the order those ties resolve in.
  SceneTrace two_fps = *b_;
  two_fps.spec.fps = 2.0;
  SceneTrace half_fps = *a_;
  half_fps.spec.fps = 0.5;
  EndToEndConfig config;
  config.stagger_cameras = false;
  config.bandwidth_mbps = 20.0;
  expect_hashes({a_, &two_fps, &half_fps}, config,
                {0x925c3fdcbae115f6ull, 0xceb3fc6dba671cccull,
                 0xb896ce3c2263240eull, 0x71f1b9f8d6acec82ull,
                 0xdbd12efd083bdbf1ull, 0x131d70a10d4ea6f3ull});
}

TEST(HarnessNames, StrategyNamesAreStable) {
  EXPECT_EQ(to_string(StrategyKind::kTangram), "Tangram");
  EXPECT_EQ(to_string(StrategyKind::kFullFrame), "FullFrame");
  EXPECT_EQ(to_string(StrategyKind::kMaskedFrame), "MaskedFrame");
  EXPECT_EQ(to_string(StrategyKind::kElf), "ELF");
  EXPECT_EQ(to_string(StrategyKind::kClipper), "Clipper");
  EXPECT_EQ(to_string(StrategyKind::kMArk), "MArk");
}

}  // namespace
}  // namespace tangram::experiments
