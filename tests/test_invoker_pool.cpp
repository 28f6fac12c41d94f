#include "core/invoker_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/system.h"

namespace tangram::core {
namespace {

serverless::InferenceLatencyModel deterministic_model() {
  serverless::LatencyModelParams params;
  params.jitter_sigma = 0.0;
  params.overhead_s = 0.1;
  params.per_canvas_s = 0.1;
  params.batch_alpha = 1.0;
  return serverless::InferenceLatencyModel(params, common::Rng(1, 1));
}

LatencyEstimator::Config quick_estimator_config() {
  LatencyEstimator::Config c;
  c.max_profiled_batch = 10;
  c.iterations = 50;
  return c;
}

struct PoolFixture {
  sim::Simulator sim;
  serverless::InferenceLatencyModel model = deterministic_model();
  LatencyEstimator estimator;
  std::vector<Batch> invoked;
  std::unique_ptr<InvokerPool> pool;

  explicit PoolFixture(ShardPolicy policy)
      : estimator(model, {1024, 1024}, quick_estimator_config()) {
    pool = std::make_unique<InvokerPool>(
        sim, StitchSolver(), estimator, InvokerConfig{}, std::move(policy),
        [this](int, Batch&& b) { invoked.push_back(std::move(b)); });
  }

  Patch make_patch(std::uint64_t id, double generation, double slo,
                   common::Size size = {300, 300}) const {
    Patch p;
    p.id = id;
    p.region = {0, 0, size.width, size.height};
    p.generation_time = generation;
    p.slo = slo;
    return p;
  }
};

// --- admission routing -------------------------------------------------------

TEST(InvokerPool, SinglePolicyCreatesOneEagerShard) {
  PoolFixture f(ShardPolicy::single());
  EXPECT_EQ(f.pool->shard_count(), 1u);  // exists before any stream
  EXPECT_EQ(f.pool->route(0, {"a", 0.5}), 0);
  EXPECT_EQ(f.pool->route(1, {"b", 2.0}), 0);
  EXPECT_EQ(f.pool->shard_count(), 1u);
}

TEST(InvokerPool, PerSloClassShardsByDistinctClass) {
  PoolFixture f(ShardPolicy::per_slo_class());
  EXPECT_EQ(f.pool->shard_count(), 0u);  // lazy
  EXPECT_EQ(f.pool->route(0, {"tight-a", 0.5}), 0);
  EXPECT_EQ(f.pool->route(1, {"loose", 2.0}), 1);
  EXPECT_EQ(f.pool->route(2, {"tight-b", 0.5}), 0);  // same class, same shard
  EXPECT_EQ(f.pool->route(3, {"per-patch", 0.0}), 2);
  EXPECT_EQ(f.pool->route(4, {"per-patch-2", -1.0}), 2);  // <= 0 share
  EXPECT_EQ(f.pool->shard_count(), 3u);
}

TEST(InvokerPool, HashPolicySpreadsStreamsAcrossShards) {
  PoolFixture f(ShardPolicy::hashed(2));
  const int a = f.pool->route(0, {});
  const int b = f.pool->route(1, {});
  const int c = f.pool->route(2, {});
  EXPECT_NE(a, b);
  EXPECT_EQ(a, c);  // 2 % 2 == 0
  EXPECT_EQ(f.pool->shard_count(), 2u);
}

TEST(InvokerPool, RejectsBadConstruction) {
  sim::Simulator sim;
  auto model = deterministic_model();
  const LatencyEstimator estimator(model, {1024, 1024},
                                   quick_estimator_config());
  EXPECT_THROW(InvokerPool(sim, StitchSolver(), estimator, InvokerConfig{},
                           ShardPolicy::single(), nullptr),
               std::invalid_argument);
  EXPECT_THROW(InvokerPool(sim, StitchSolver(), estimator, InvokerConfig{},
                           ShardPolicy::hashed(0), [](int, Batch&&) {}),
               std::invalid_argument);
}

TEST(InvokerPool, OnPatchRejectsUnknownShard) {
  PoolFixture f(ShardPolicy::single());
  EXPECT_THROW(f.pool->on_patch(3, f.make_patch(1, 0.0, 1.0)),
               std::out_of_range);
  EXPECT_THROW(f.pool->on_patch(-1, f.make_patch(1, 0.0, 1.0)),
               std::out_of_range);
}

// --- shard isolation and aggregation ----------------------------------------

TEST(InvokerPool, ShardsBatchIndependently) {
  PoolFixture f(ShardPolicy::per_slo_class());
  const int tight = f.pool->route(0, {"tight", 0.5});
  const int loose = f.pool->route(1, {"loose", 2.0});
  f.sim.schedule_at(0.0, [&] {
    f.pool->on_patch(tight, f.make_patch(1, 0.0, 0.5));
    f.pool->on_patch(loose, f.make_patch(2, 0.0, 2.0));
  });
  f.sim.run();
  // Separate shards, separate deadlines: two batches of one patch each,
  // each at its own t_remain (slack(1) = 0.2).
  ASSERT_EQ(f.invoked.size(), 2u);
  EXPECT_NEAR(f.invoked[0].invoke_time, 0.3, 1e-9);
  EXPECT_NEAR(f.invoked[1].invoke_time, 1.8, 1e-9);
  EXPECT_EQ(f.pool->shard(static_cast<std::size_t>(tight)).batches_invoked(),
            1u);
  EXPECT_EQ(f.pool->shard(static_cast<std::size_t>(loose)).batches_invoked(),
            1u);
}

TEST(InvokerPool, FlushDrainsEveryShardAndPendingSums) {
  PoolFixture f(ShardPolicy::per_slo_class());
  const int a = f.pool->route(0, {"a", 50.0});
  const int b = f.pool->route(1, {"b", 80.0});
  f.sim.schedule_at(0.0, [&] {
    f.pool->on_patch(a, f.make_patch(1, 0.0, 50.0));
    f.pool->on_patch(b, f.make_patch(2, 0.0, 80.0));
    f.pool->on_patch(b, f.make_patch(3, 0.0, 80.0));
  });
  f.sim.run_until(1.0);
  EXPECT_EQ(f.pool->pending_patches(), 3u);
  f.pool->flush();
  EXPECT_EQ(f.pool->pending_patches(), 0u);
  ASSERT_EQ(f.invoked.size(), 2u);  // one batch per shard, shard order
  EXPECT_EQ(f.invoked[0].total_patches, 1);
  EXPECT_EQ(f.invoked[1].total_patches, 2);
}

TEST(InvokerPool, AggregateStatsSumShards) {
  PoolFixture f(ShardPolicy::per_slo_class());
  const int a = f.pool->route(0, {"a", 1.0});
  const int b = f.pool->route(1, {"b", 2.0});
  f.sim.schedule_at(0.0, [&] {
    f.pool->on_patch(a, f.make_patch(1, 0.0, 1.0));
    f.pool->on_patch(a, f.make_patch(2, 0.0, 1.0));
    f.pool->on_patch(b, f.make_patch(3, 0.0, 2.0));
  });
  f.sim.run();
  const InvokerStats stats = f.pool->aggregate_stats();
  EXPECT_EQ(stats.batches_invoked, 2u);
  EXPECT_EQ(stats.incremental_adds, 3u);
  EXPECT_NEAR(stats.batch_patch_count.stats().sum(), 3.0, 1e-12);
  EXPECT_EQ(stats.canvas_efficiency.count(),
            f.pool->shard(0).canvas_efficiency().count() +
                f.pool->shard(1).canvas_efficiency().count());
}

// --- single-shard pool == raw invoker (the byte-identical contract) ---------

TEST(InvokerPool, SingleShardMatchesRawInvokerExactly) {
  // The same arrival schedule drives a bare SloAwareInvoker and a pool with
  // ShardPolicy::single(); every dispatched batch must match field-for-field.
  auto schedule = [](sim::Simulator& sim, auto deliver) {
    for (int i = 0; i < 24; ++i) {
      const double t = 0.07 * i;
      const double slo = (i % 3 == 0) ? 0.6 : 1.3;
      const int w = 200 + 60 * (i % 7);
      const int h = 250 + 40 * (i % 5);
      sim.schedule_at(t, [deliver, i, t, slo, w, h] {
        Patch p;
        p.id = static_cast<std::uint64_t>(i);
        p.region = {0, 0, w, h};
        p.generation_time = t;
        p.slo = slo;
        deliver(std::move(p));
      });
    }
  };

  sim::Simulator sim_raw;
  auto model_raw = deterministic_model();
  const LatencyEstimator est_raw(model_raw, {1024, 1024},
                                 quick_estimator_config());
  std::vector<Batch> raw_batches;
  SloAwareInvoker raw(sim_raw, StitchSolver(), est_raw, InvokerConfig{},
                      [&](Batch&& b) { raw_batches.push_back(std::move(b)); });
  schedule(sim_raw, [&](Patch&& p) { raw.on_patch(std::move(p)); });
  sim_raw.run();
  raw.flush();

  PoolFixture f(ShardPolicy::single());
  const int shard = f.pool->route(0, {"only", 0.0});
  schedule(f.sim, [&](Patch&& p) { f.pool->on_patch(shard, std::move(p)); });
  f.sim.run();
  f.pool->flush();

  ASSERT_EQ(f.invoked.size(), raw_batches.size());
  ASSERT_GE(raw_batches.size(), 2u);  // the schedule forces several batches
  for (std::size_t i = 0; i < raw_batches.size(); ++i) {
    const Batch& a = raw_batches[i];
    const Batch& b = f.invoked[i];
    EXPECT_DOUBLE_EQ(a.invoke_time, b.invoke_time);
    EXPECT_DOUBLE_EQ(a.earliest_deadline, b.earliest_deadline);
    EXPECT_DOUBLE_EQ(a.slack_estimate, b.slack_estimate);
    EXPECT_EQ(a.total_patches, b.total_patches);
    ASSERT_EQ(a.canvases.size(), b.canvases.size());
    for (std::size_t c = 0; c < a.canvases.size(); ++c) {
      ASSERT_EQ(a.canvases[c].patches.size(), b.canvases[c].patches.size());
      EXPECT_DOUBLE_EQ(a.canvases[c].fill, b.canvases[c].fill);
      for (std::size_t p = 0; p < a.canvases[c].patches.size(); ++p) {
        EXPECT_EQ(a.canvases[c].patches[p].id, b.canvases[c].patches[p].id);
        EXPECT_EQ(a.canvases[c].positions[p], b.canvases[c].positions[p]);
      }
    }
  }
  EXPECT_EQ(raw.stats().forced_flushes,
            f.pool->aggregate_stats().forced_flushes);
}

// --- head-of-line isolation: the reason the pool exists ----------------------

TEST(InvokerPool, PerClassShardingStopsCrossClassForcedFlushChurn) {
  // A tight class (SLO barely above slack(1)) rides with a heavy loose
  // class.  On one shared shard, each tight arrival over the loose backlog
  // drives t_remain negative and force-flushes the mixed set, fragmenting
  // the loose class into small batches.  Per-class shards keep the loose
  // backlog out of the tight class's deadline math entirely.
  auto drive = [](ShardPolicy policy, InvokerStats& stats_out,
                  common::Sampler& loose_batches) {
    PoolFixture f(std::move(policy));
    const int tight = f.pool->route(0, {"tight", 0.45});
    const int loose = f.pool->route(1, {"loose", 6.0});
    for (int i = 0; i < 60; ++i) {
      const double t = 0.05 * i;
      f.sim.schedule_at(t, [&f, loose, t, i] {
        f.pool->on_patch(loose,
                         f.make_patch(static_cast<std::uint64_t>(100 + i), t,
                                      6.0, {700, 700}));
      });
      if (i % 4 == 0) {
        f.sim.schedule_at(t, [&f, tight, t, i] {
          f.pool->on_patch(tight,
                           f.make_patch(static_cast<std::uint64_t>(i), t,
                                        0.45));
        });
      }
    }
    f.sim.run();
    f.pool->flush();
    stats_out = f.pool->aggregate_stats();
    if (f.pool->shard_count() > 1)
      loose_batches =
          f.pool->shard(static_cast<std::size_t>(loose)).batch_canvas_count();
    else
      loose_batches = stats_out.batch_canvas_count;
  };

  InvokerStats single_stats, sharded_stats;
  common::Sampler single_batches, sharded_loose;
  drive(ShardPolicy::single(), single_stats, single_batches);
  drive(ShardPolicy::per_slo_class(), sharded_stats, sharded_loose);

  // The shared shard churns: cross-class pressure forces the mixed set out
  // repeatedly; the sharded layout loses that churn entirely.
  EXPECT_GT(single_stats.forced_flushes, sharded_stats.forced_flushes);
  // Fragmentation costs invocations: fewer, larger batches when sharded.
  EXPECT_LT(sharded_stats.batches_invoked, single_stats.batches_invoked);
  EXPECT_GT(sharded_loose.mean(), single_batches.mean());
}

// --- TangramSystem integration ----------------------------------------------

TangramSystem::Config system_config(ShardPolicy policy) {
  TangramSystem::Config c;
  c.function_latency.jitter_sigma = 0.0;
  c.platform.cold_start_s = 0.0;
  c.estimator.iterations = 100;
  c.sharding = std::move(policy);
  c.seed = 99;
  return c;
}

TEST(InvokerPoolSystem, RouterStampsShardOnStreamStats) {
  sim::Simulator sim;
  TangramSystem system(sim, system_config(ShardPolicy::per_slo_class()),
                       nullptr);
  const StreamId tight = system.register_stream({"tight", 0.5});
  const StreamId loose = system.register_stream({"loose", 2.0});
  const StreamId tight2 = system.register_stream({"tight-2", 0.5});
  EXPECT_EQ(system.stream_stats(tight).shard,
            system.stream_stats(tight2).shard);
  EXPECT_NE(system.stream_stats(tight).shard,
            system.stream_stats(loose).shard);
  EXPECT_EQ(system.pool().shard_count(), 2u);
}

TEST(InvokerPoolSystem, LazyShardExistsOnlyAfterFirstStream) {
  sim::Simulator sim;
  TangramSystem lazy(sim, system_config(ShardPolicy::per_slo_class()),
                     nullptr);
  EXPECT_EQ(lazy.pool().shard_count(), 0u);
  EXPECT_THROW((void)lazy.pool().shard(0), std::out_of_range);
  (void)lazy.register_stream({"first", 1.0});
  EXPECT_NO_THROW((void)lazy.pool().shard(0));

  TangramSystem eager(sim, system_config(ShardPolicy::single()), nullptr);
  EXPECT_NO_THROW((void)eager.pool().shard(0));  // single() shard is eager
}

TEST(InvokerPool, PerSloClassKeysAreExactNotSixDecimals) {
  // std::to_string would alias classes closer than 1e-6; hexfloat keys keep
  // them on distinct shards.
  PoolFixture f(ShardPolicy::per_slo_class());
  const int a = f.pool->route(0, {"a", 4e-7});
  const int b = f.pool->route(1, {"b", 9e-7});
  EXPECT_NE(a, b);
  EXPECT_EQ(f.pool->shard_count(), 2u);
}

TEST(InvokerPoolSystem, SameClassStreamsStillBatchTogether) {
  sim::Simulator sim;
  TangramSystem system(sim, system_config(ShardPolicy::per_slo_class()),
                       nullptr);
  const StreamId a = system.register_stream({"a", 1.0});
  const StreamId b = system.register_stream({"b", 1.0});
  sim.schedule_at(0.0, [&] {
    Patch p;
    p.region = {0, 0, 300, 300};
    p.generation_time = 0.0;
    p.id = 1;
    system.receive_patch(a, p);
    p.id = 2;
    system.receive_patch(b, p);
  });
  sim.run();
  // One class, one shard, one cross-stream invocation.
  EXPECT_EQ(system.platform().invocations(), 1u);
  EXPECT_EQ(system.stream_stats(a).patches_completed, 1u);
  EXPECT_EQ(system.stream_stats(b).patches_completed, 1u);
}

TEST(InvokerPoolSystem, MixedClassesDispatchIndependently) {
  sim::Simulator sim;
  TangramSystem system(sim, system_config(ShardPolicy::per_slo_class()),
                       nullptr);
  const StreamId tight = system.register_stream({"tight", 0.6});
  const StreamId loose = system.register_stream({"loose", 3.0});
  sim.schedule_at(0.0, [&] {
    Patch p;
    p.region = {0, 0, 300, 300};
    p.generation_time = 0.0;
    p.id = 1;
    system.receive_patch(tight, p);
    p.id = 2;
    system.receive_patch(loose, p);
  });
  sim.run();
  // Two shards dispatch at their own deadlines: two invocations.
  EXPECT_EQ(system.platform().invocations(), 2u);
  EXPECT_EQ(system.stream_stats(tight).slo_violations, 0u);
  EXPECT_EQ(system.stream_stats(loose).slo_violations, 0u);
}

}  // namespace
}  // namespace tangram::core
