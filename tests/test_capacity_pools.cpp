// Capacity pools (reserved concurrency) + pluggable autoscaling on
// FunctionPlatform, and their wiring through TangramSystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "serverless/platform.h"

namespace tangram::serverless {
namespace {

PlatformConfig base_config() {
  PlatformConfig c;
  c.cold_start_s = 0.5;
  c.keepalive_s = 10.0;
  return c;
}

LatencyModelParams deterministic_latency() {
  LatencyModelParams p;
  p.jitter_sigma = 0.0;
  return p;
}

RequestSpec canvases(int n) {
  RequestSpec spec;
  spec.num_canvases = n;
  return spec;
}

// A mixed schedule with warm reuse, scale-out, cooled slots, and backlog
// pressure; returns every completion record in callback order.
std::vector<InvocationRecord> drive_workload(
    FunctionPlatform& platform, sim::Simulator& sim,
    const std::string& pool = {}) {
  std::vector<InvocationRecord> records;
  const auto collect = [&](const InvocationRecord& r) {
    records.push_back(r);
  };
  const double arrivals[] = {0.0, 0.0, 0.0, 0.0, 0.05, 0.3,
                             0.3, 1.0, 1.2, 14.0, 14.0, 14.1};
  int i = 0;
  for (const double t : arrivals) {
    const int batch = 1 + (i++ % 3);
    sim.schedule_at(t, [&platform, &pool, batch, collect] {
      if (pool.empty()) {
        platform.invoke(canvases(batch), collect);
      } else {
        platform.invoke(canvases(batch), pool, collect);
      }
    });
  }
  sim.run();
  return records;
}

// --- default-pool equivalence ------------------------------------------------

TEST(CapacityPool, DefaultPoolReproducesUnpooledDispatchByteForByte) {
  // Run the same workload three ways: (a) nothing pool-related configured,
  // (b) extra zero-reservation pools defined but requests on the default
  // pool, (c) every request routed through an explicit pool whose limits
  // equal the default pool's.  All three must produce identical records —
  // the pool machinery adds no observable behaviour until limits differ.
  PlatformConfig plain = base_config();
  plain.max_instances = 2;  // force backlog pressure

  sim::Simulator sim_a;
  FunctionPlatform a(sim_a, plain, deterministic_latency());
  const auto records_a = drive_workload(a, sim_a);

  PlatformConfig with_pools = plain;
  with_pools.pools.push_back({"bystander", 0, -1});
  sim::Simulator sim_b;
  FunctionPlatform b(sim_b, with_pools, deterministic_latency());
  const auto records_b = drive_workload(b, sim_b);

  PlatformConfig routed = plain;
  routed.pools.push_back({"all", 0, -1});  // same limits as the default pool
  sim::Simulator sim_c;
  FunctionPlatform c(sim_c, routed, deterministic_latency());
  const auto records_c = drive_workload(c, sim_c, "all");

  ASSERT_GT(records_a.size(), 0u);
  for (const auto* other : {&records_b, &records_c}) {
    ASSERT_EQ(records_a.size(), other->size());
    for (std::size_t i = 0; i < records_a.size(); ++i) {
      const InvocationRecord& x = records_a[i];
      const InvocationRecord& y = (*other)[i];
      EXPECT_EQ(x.id, y.id);
      EXPECT_DOUBLE_EQ(x.submit_time, y.submit_time);
      EXPECT_DOUBLE_EQ(x.start_time, y.start_time);
      EXPECT_DOUBLE_EQ(x.finish_time, y.finish_time);
      EXPECT_DOUBLE_EQ(x.execution_s, y.execution_s);
      EXPECT_DOUBLE_EQ(x.setup_s, y.setup_s);
      EXPECT_DOUBLE_EQ(x.cost, y.cost);
      EXPECT_EQ(x.instance_id, y.instance_id);
      EXPECT_EQ(x.cold_start, y.cold_start);
    }
  }
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  EXPECT_DOUBLE_EQ(a.total_cost(), c.total_cost());
  EXPECT_EQ(a.cold_starts(), c.cold_starts());
  // Static autoscaling schedules no timer: the event streams are identical
  // event-for-event, not just record-for-record.
  EXPECT_EQ(sim_a.events_executed(), sim_b.events_executed());
  EXPECT_EQ(sim_a.events_executed(), sim_c.events_executed());
}

// --- reservations and burst caps ---------------------------------------------

TEST(CapacityPool, ReservationHoldsInstancesBackFromOtherPools) {
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 4;
  config.pools.push_back({"tight", 2, -1});
  FunctionPlatform platform(sim, config, deterministic_latency());

  std::vector<InvocationRecord> loose, tight;
  sim.schedule_at(0.0, [&] {
    for (int i = 0; i < 4; ++i)
      platform.invoke(canvases(1), [&](const InvocationRecord& r) {
        loose.push_back(r);
      });
    // Only 2 of 4 default-pool requests may start: 2 instances are held for
    // the tight pool's reservation.
    EXPECT_EQ(platform.queued_requests(), 2u);
    EXPECT_EQ(platform.pool_headroom(0), 0);
    EXPECT_EQ(platform.pool_headroom("tight"), 2);
  });
  sim.schedule_at(0.1, [&] {
    for (int i = 0; i < 2; ++i)
      platform.invoke(canvases(1), "tight", [&](const InvocationRecord& r) {
        tight.push_back(r);
      });
    // Reserved capacity: both start instantly despite the loose backlog.
    EXPECT_EQ(platform.queued_requests(), 2u);
  });
  sim.run();
  ASSERT_EQ(tight.size(), 2u);
  for (const auto& r : tight) {
    EXPECT_NEAR(r.start_time, 0.1 + r.setup_s, 1e-12);  // no queueing
    EXPECT_TRUE(r.cold_start);
  }
  ASSERT_EQ(loose.size(), 4u);
  const auto tele = platform.pool_telemetry();
  ASSERT_EQ(tele.size(), 2u);
  EXPECT_EQ(tele[0].name, std::string(FunctionPlatform::kDefaultPool));
  EXPECT_EQ(tele[0].peak_in_use, 2);
  EXPECT_EQ(tele[1].name, "tight");
  EXPECT_EQ(tele[1].peak_in_use, 2);
  EXPECT_EQ(tele[1].cold_starts, 2u);
  EXPECT_EQ(tele[0].dispatched, 4u);
}

TEST(CapacityPool, BurstLimitCapsPoolEvenWhenFleetIsIdle) {
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 4;
  config.pools.push_back({"capped", 0, 1});
  FunctionPlatform platform(sim, config, deterministic_latency());

  std::vector<InvocationRecord> capped;
  sim.schedule_at(0.0, [&] {
    for (int i = 0; i < 2; ++i)
      platform.invoke(canvases(1), "capped", [&](const InvocationRecord& r) {
        capped.push_back(r);
      });
    EXPECT_EQ(platform.queued_requests(), 1u);  // burst cap, not fleet cap
    // The rest of the fleet stays available to the default pool.
    EXPECT_EQ(platform.pool_headroom(0), 3);
    platform.invoke(canvases(1), nullptr);
    EXPECT_EQ(platform.queued_requests(), 1u);
  });
  sim.run();
  ASSERT_EQ(capped.size(), 2u);
  // Second capped request waited for the first to finish.
  EXPECT_NEAR(capped[1].start_time, capped[0].finish_time, 1e-12);
}

TEST(CapacityPool, BlockedPoolDoesNotBlockOtherPoolsInBacklog) {
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 2;
  config.keepalive_s = 30.0;
  config.pools.push_back({"a", 0, 1});
  FunctionPlatform platform(sim, config, deterministic_latency());

  InvocationRecord a1, a2, d1, d2;
  sim.schedule_at(0.0, [&] {
    // a1 runs a long batch; a2 queues behind pool a's burst cap of 1.
    platform.invoke(canvases(3), "a",
                    [&](const InvocationRecord& r) { a1 = r; });
    platform.invoke(canvases(1), "a",
                    [&](const InvocationRecord& r) { a2 = r; });
    // d1 takes the second fleet slot; d2 queues behind the full fleet,
    // BEHIND a2 in the shared backlog.
    platform.invoke(canvases(1), [&](const InvocationRecord& r) { d1 = r; });
    platform.invoke(canvases(1), [&](const InvocationRecord& r) { d2 = r; });
    EXPECT_EQ(platform.queued_requests(), 2u);
  });
  sim.run();
  // d1 (short) finishes before a1 (long).  At that drain, a2 is still
  // blocked by pool a's cap — d2 must drain past it, not wait behind it.
  EXPECT_LT(d1.finish_time, a1.finish_time);
  EXPECT_NEAR(d2.start_time, d1.finish_time, 1e-12);
  // a2 starts only when a1 frees pool a's single slot (FIFO within pool a).
  EXPECT_NEAR(a2.start_time, a1.finish_time, 1e-12);
}

TEST(CapacityPool, DefinitionValidation) {
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 4;

  {
    PlatformConfig bad = config;
    bad.pools.push_back({"", 0, -1});
    EXPECT_THROW(FunctionPlatform(sim, bad, deterministic_latency()),
                 std::invalid_argument);
  }
  {
    PlatformConfig bad = config;
    bad.pools.push_back({"x", 3, -1});
    bad.pools.push_back({"y", 2, -1});  // reservations 5 > max_instances 4
    EXPECT_THROW(FunctionPlatform(sim, bad, deterministic_latency()),
                 std::invalid_argument);
  }
  {
    PlatformConfig bad = config;
    bad.pools.push_back({"x", 0, 5});  // burst above the fleet cap
    EXPECT_THROW(FunctionPlatform(sim, bad, deterministic_latency()),
                 std::invalid_argument);
  }
  {
    PlatformConfig bad = config;
    bad.pools.push_back({"x", 2, 1});  // reserved > burst
    EXPECT_THROW(FunctionPlatform(sim, bad, deterministic_latency()),
                 std::invalid_argument);
  }

  FunctionPlatform platform(sim, config, deterministic_latency());
  const int first = platform.define_pool({"p", 1, 2});
  EXPECT_EQ(platform.define_pool({"p", 1, 2}), first);  // idempotent
  EXPECT_THROW(platform.define_pool({"p", 2, 2}), std::invalid_argument);
  EXPECT_THROW((void)platform.pool_index("nope"), std::out_of_range);
  EXPECT_THROW(platform.invoke(canvases(1), "nope", nullptr),
               std::out_of_range);
}

// --- autoscaling -------------------------------------------------------------

TEST(Autoscale, QueuePressureGrowsLimitUntilBacklogDrains) {
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 8;
  config.cold_start_s = 0.0;
  config.autoscale = AutoscalePolicy::queue_pressure(/*backlog_high=*/1,
                                                     /*interval_s=*/0.05,
                                                     /*initial_limit=*/1);
  FunctionPlatform platform(sim, config, deterministic_latency());

  int done = 0;
  sim.schedule_at(0.0, [&] {
    for (int i = 0; i < 6; ++i)
      platform.invoke(canvases(3), [&](const InvocationRecord&) { ++done; });
    EXPECT_EQ(platform.queued_requests(), 5u);  // limit starts at 1
  });
  sim.run();
  EXPECT_EQ(done, 6);
  const PoolTelemetry tele = platform.pool_telemetry(0);
  ASSERT_FALSE(tele.series.empty());
  // Backlog pressure pushed the limit above its starting point...
  int peak_limit = 0;
  for (const auto& s : tele.series) peak_limit = std::max(peak_limit, s.limit);
  EXPECT_GT(peak_limit, 1);
  EXPECT_GT(tele.peak_in_use, 1);
  // ...and ticks stop once the platform idles (sim.run() returned, QED), with
  // samples spaced by the configured interval.
  for (std::size_t i = 1; i < tele.series.size(); ++i)
    EXPECT_NEAR(tele.series[i].time - tele.series[i - 1].time, 0.05, 1e-9);
  // Scale-down on the way out: the final limit is below the peak.
  EXPECT_LT(tele.limit, peak_limit);
}

TEST(Autoscale, TargetUtilizationTracksLoad) {
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 8;
  config.cold_start_s = 0.0;
  config.autoscale = AutoscalePolicy::target_utilization(
      /*up=*/0.9, /*down=*/0.3, /*interval_s=*/0.05, /*initial_limit=*/1);
  FunctionPlatform platform(sim, config, deterministic_latency());

  int done = 0;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(0.02 * i, [&] {
      platform.invoke(canvases(3), [&](const InvocationRecord&) { ++done; });
    });
  }
  sim.run();
  EXPECT_EQ(done, 8);
  const PoolTelemetry tele = platform.pool_telemetry(0);
  ASSERT_FALSE(tele.series.empty());
  int peak_limit = 0;
  for (const auto& s : tele.series) peak_limit = std::max(peak_limit, s.limit);
  EXPECT_GT(peak_limit, 1);          // saturated: scaled up
  EXPECT_LE(peak_limit, 8);          // never past the burst cap
  EXPECT_LT(tele.limit, peak_limit); // idle tail: scaled back down
  EXPECT_GE(tele.limit, 1);          // never below the floor
}

TEST(Autoscale, StaticPolicyRecordsNoSeries) {
  sim::Simulator sim;
  FunctionPlatform platform(sim, base_config(), deterministic_latency());
  platform.invoke(canvases(1), nullptr);
  sim.run();
  EXPECT_TRUE(platform.pool_telemetry(0).series.empty());
}

TEST(Autoscale, TerminatesOnPermanentlyStarvedBacklog) {
  // Reservations may sum to the whole fleet; a default-pool request then can
  // never start.  A non-static autoscaler must not keep ticking forever over
  // that fixed point — sim.run() has to terminate with the request still
  // queued (a previous version re-armed unconditionally and hung here).
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 2;
  config.pools.push_back({"owns-everything", 2, -1});
  config.autoscale = AutoscalePolicy::queue_pressure(/*backlog_high=*/1,
                                                     /*interval_s=*/0.05,
                                                     /*initial_limit=*/1);
  FunctionPlatform platform(sim, config, deterministic_latency());
  bool completed = false;
  platform.invoke(canvases(1), [&](const InvocationRecord&) {
    completed = true;
  });
  sim.run();  // must return
  EXPECT_FALSE(completed);
  EXPECT_EQ(platform.queued_requests(), 1u);
  // A later reserved-pool invocation re-arms the world and completes.
  platform.invoke(canvases(1), "owns-everything", nullptr);
  sim.run();
  EXPECT_EQ(platform.pool_telemetry(1).dispatched, 1u);
}

TEST(Autoscale, LimitNeverDropsBelowReservation) {
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 8;
  config.cold_start_s = 0.0;
  config.pools.push_back({"tight", 3, -1});
  config.autoscale = AutoscalePolicy::target_utilization(
      /*up=*/0.9, /*down=*/0.5, /*interval_s=*/0.05, /*initial_limit=*/8);
  FunctionPlatform platform(sim, config, deterministic_latency());

  int done = 0;
  platform.invoke(canvases(1), "tight",
                  [&](const InvocationRecord&) { ++done; });
  sim.run();
  EXPECT_EQ(done, 1);
  const PoolTelemetry tele =
      platform.pool_telemetry(platform.pool_index("tight"));
  for (const auto& s : tele.series) EXPECT_GE(s.limit, 3);
  EXPECT_GE(tele.limit, 3);
}

// --- multi-pool drain order --------------------------------------------------

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

struct DrainRun {
  std::uint64_t hash = 1469598103934665603ull;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t peak_queued = 0;
  std::size_t peak_pools_waiting = 0;  // pools with a backlog at once
  std::uint64_t prewarm_boots = 0;
};

// Seeded bursts over four pools (default + three reserved/capped pools) at
// shared timestamps, with every seventh completion re-entrantly submitting a
// follow-up: the backlog holds several pools at once and drains under
// reservations, burst caps and moving limits.  Hashes the full completion
// stream and checks, at every completion, per-pool FIFO dispatch order and
// queued_requests() == sum of per-pool backlogs.
void drive_multi_pool_backlog(AutoscalePolicy policy, DrainRun& run) {
  sim::Simulator sim;
  PlatformConfig config = base_config();
  config.max_instances = 10;
  config.cold_start_s = 0.3;
  config.keepalive_s = 0.4;  // cools between bursts: pre-warm has work
  config.pools.push_back({"tight", 3, 5, 2});
  config.pools.push_back({"mid", 2, 6});
  config.pools.push_back({"bulk", 0, 4, 0});
  config.autoscale = policy;
  FunctionPlatform platform(sim, config, LatencyModelParams{}, /*seed=*/11);

  common::Rng rng(2024, 3);
  // Submission sequence and pool of each dispatched request, by record id.
  std::vector<std::pair<std::int64_t, int>> seq_of_id;

  std::function<void(int, int)> submit = [&](int pool, int batch) {
    const auto seq = static_cast<std::int64_t>(run.submitted++);
    platform.invoke(canvases(batch), pool, [&, seq](const InvocationRecord& r) {
      std::uint64_t h = run.hash;
      h = fnv1a_field(h, r.id);
      h = fnv1a_field(h, r.pool);
      h = fnv1a_field(h, r.submit_time);
      h = fnv1a_field(h, r.start_time);
      h = fnv1a_field(h, r.finish_time);
      h = fnv1a_field(h, r.instance_id);
      h = fnv1a_field(h, static_cast<unsigned char>(r.cold_start));
      run.hash = h;
      if (seq_of_id.size() <= r.id) seq_of_id.resize(r.id + 1, {-1, -1});
      seq_of_id[r.id] = {seq, r.pool};

      std::size_t backlogged = 0;
      std::size_t pools_waiting = 0;
      for (std::size_t i = 0; i < platform.pool_count(); ++i) {
        const std::size_t n =
            platform.pool_telemetry(static_cast<int>(i)).backlogged;
        backlogged += n;
        pools_waiting += n > 0 ? 1 : 0;
      }
      EXPECT_EQ(platform.queued_requests(), backlogged) << "at id " << r.id;
      run.peak_queued = std::max(run.peak_queued, platform.queued_requests());
      run.peak_pools_waiting = std::max(run.peak_pools_waiting, pools_waiting);

      if (++run.completed % 7 == 0)
        submit(static_cast<int>(run.completed / 7 % 4), 1 + r.pool % 3);
    });
  };

  double t = 0.0;
  for (int burst = 0; burst < 40; ++burst) {
    // A lull mid-run: instances cool, and the forecaster re-warms them
    // ahead of the next wave.
    t += rng.uniform(0.0, 0.35) + (burst == 20 ? 0.8 : 0.0);
    const int size = rng.uniform_int(3, 14);
    std::vector<std::pair<int, int>> requests;
    for (int k = 0; k < size; ++k)
      requests.emplace_back(rng.uniform_int(0, 3), rng.uniform_int(1, 4));
    // Two same-timestamp events per burst, so arrivals also interleave with
    // completions landing on the shared instant.
    const std::size_t half = requests.size() / 2;
    sim.schedule_at(t, [&submit, requests, half] {
      for (std::size_t k = 0; k < half; ++k)
        submit(requests[k].first, requests[k].second);
    });
    sim.schedule_at(t, [&submit, requests, half] {
      for (std::size_t k = half; k < requests.size(); ++k)
        submit(requests[k].first, requests[k].second);
    });
  }
  sim.run();

  // Per-pool FIFO: walking dispatch order (record id), each pool's
  // submission sequence only increases.
  std::vector<std::int64_t> last_seq(platform.pool_count(), -1);
  for (const auto& [seq, pool] : seq_of_id) {
    ASSERT_GE(pool, 0) << "a dispatched request never completed";
    EXPECT_GT(seq, last_seq[static_cast<std::size_t>(pool)])
        << "pool " << pool << " dispatched out of FIFO order";
    last_seq[static_cast<std::size_t>(pool)] = seq;
  }
  run.prewarm_boots = platform.prewarm_boots();
}

TEST(CapacityPool, MultiPoolBacklogDrainOrderIsPinned) {
  AutoscalePolicy pressure = AutoscalePolicy::queue_pressure(
      /*backlog_high=*/2, /*interval_s=*/0.2, /*initial_limit=*/1);
  AutoscalePolicy forecast = AutoscalePolicy::windowed_max(
      /*window=*/4, /*interval_s=*/0.25, /*initial_limit=*/1);
  forecast.prewarm = true;
  DrainRun a;
  DrainRun b;
  drive_multi_pool_backlog(pressure, a);
  drive_multi_pool_backlog(forecast, b);
  for (const DrainRun* run : {&a, &b}) {
    EXPECT_EQ(run->completed, run->submitted);
    EXPECT_GE(run->peak_queued, 10u);
    EXPECT_GE(run->peak_pools_waiting, 3u);
  }
  EXPECT_GT(b.prewarm_boots, 0u);
  // Captured on the shared-backlog scan that preceded per-pool queues.
  EXPECT_EQ(a.hash, 0x35561f5a54ce3c47ull);
  EXPECT_EQ(b.hash, 0x3480efe3a9acf212ull);
}

}  // namespace
}  // namespace tangram::serverless

// --- TangramSystem wiring ----------------------------------------------------

namespace tangram::core {
namespace {

TangramSystem::Config pooled_system_config() {
  TangramSystem::Config c;
  c.function_latency.jitter_sigma = 0.0;
  c.platform.cold_start_s = 0.0;
  c.platform.max_instances = 4;
  c.estimator.iterations = 100;
  c.sharding = ShardPolicy::per_slo_class();
  c.pool_for_shard = [](const std::string&, const StreamConfig& stream) {
    serverless::CapacityPoolConfig pool;
    if (stream.slo_s > 0.0 && stream.slo_s <= 0.5) {
      pool.name = "tight";
      pool.reserved = 2;
    }
    return pool;  // empty name: default pool
  };
  return c;
}

TEST(SystemCapacityPools, ShardsAreWiredToTheirPools) {
  sim::Simulator sim;
  TangramSystem system(sim, pooled_system_config(), nullptr);
  const StreamId tight = system.register_stream({"tight-cam", 0.4});
  const StreamId loose = system.register_stream({"loose-cam", 3.0});
  EXPECT_EQ(system.platform().pool_count(), 2u);
  // Idle fleet: the tight pool may burst past its reservation to the full
  // fleet, while the default pool is squeezed by tight's unmet reservation.
  EXPECT_EQ(system.platform().pool_headroom("tight"), 4);
  EXPECT_EQ(system.platform().pool_headroom(0), 2);

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
  // Each shard's invocation landed on its own pool.
  const auto tele = system.platform().pool_telemetry();
  ASSERT_EQ(tele.size(), 2u);
  EXPECT_EQ(tele[system.platform().pool_index("tight")].dispatched, 1u);
  EXPECT_EQ(tele[0].dispatched, 1u);
}

TEST(SystemCapacityPools, SameNamedPoolSharedAcrossShards) {
  sim::Simulator sim;
  auto config = pooled_system_config();
  // Two distinct tight classes below the threshold share one "tight" pool.
  config.pool_for_shard = [](const std::string&,
                             const StreamConfig& stream) {
    serverless::CapacityPoolConfig pool;
    if (stream.slo_s > 0.0 && stream.slo_s <= 0.5) {
      pool.name = "tight";
      pool.reserved = 1;
    }
    return pool;
  };
  TangramSystem system(sim, config, nullptr);
  (void)system.register_stream({"a", 0.4});
  (void)system.register_stream({"b", 0.3});
  EXPECT_EQ(system.pool().shard_count(), 2u);
  EXPECT_EQ(system.platform().pool_count(), 2u);  // default + shared "tight"
}

}  // namespace
}  // namespace tangram::core
