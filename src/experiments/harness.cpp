#include "experiments/harness.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>

#include "net/link.h"
#include "serverless/forecast.h"
#include "sim/simulator.h"

namespace tangram::experiments {

std::string to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kTangram: return "Tangram";
    case StrategyKind::kFullFrame: return "FullFrame";
    case StrategyKind::kMaskedFrame: return "MaskedFrame";
    case StrategyKind::kElf: return "ELF";
    case StrategyKind::kClipper: return "Clipper";
    case StrategyKind::kMArk: return "MArk";
  }
  return "?";
}

namespace {

bool is_frame_level(StrategyKind kind) {
  return kind == StrategyKind::kFullFrame ||
         kind == StrategyKind::kMaskedFrame;
}

// The one place a MultiStreamConfig maps onto a TangramSystem config, so
// run_multistream and the shared-profiling path (run_sharded, grids) can
// never drift apart.
core::TangramSystem::Config system_config_of(const MultiStreamConfig& config) {
  core::TangramSystem::Config system_config;
  system_config.canvas = config.canvas;
  system_config.slack_sigma = config.slack_sigma;
  system_config.heuristic = config.heuristic;
  system_config.platform = config.platform;
  system_config.function_latency = config.latency;
  system_config.sharding = config.sharding;
  system_config.rebalance = config.rebalance;
  system_config.pool_for_shard = config.pool_for_shard;
  system_config.telemetry_reservoir = config.telemetry_reservoir;
  if (config.telemetry_reservoir > 0 &&
      system_config.platform.telemetry_reservoir == 0)
    system_config.platform.telemetry_reservoir = config.telemetry_reservoir;
  system_config.profiled_estimator = config.profiled_estimator;
  system_config.seed = config.seed;
  return system_config;
}

// The patch an uplink delivers, rebuilt at delivery from the frame record it
// was cut from.  Delivery callbacks capture (frame, index, id, capture)
// rather than a whole Patch: a captured Patch overflows the simulator's
// 64-byte inline event storage and costs a heap allocation per patch.
core::Patch uplinked_patch(const FrameRecord& frame, std::uint32_t index,
                           std::uint64_t id, int camera, double capture) {
  core::Patch patch;
  patch.id = id;
  patch.camera_id = camera;
  patch.frame_index = frame.frame_index;
  patch.region = frame.patches[index];
  patch.generation_time = capture;
  patch.bytes = frame.patch_bytes[index];
  return patch;
}

// Capture time of eval frame i of camera `cam`: (start + phase) + i *
// interval, where the phase staggers the fleet across one frame interval
// (so a shared uplink sees interleaved arrivals rather than synchronized
// bursts) and the start delays the whole camera.  Both runners evaluate
// this one expression, term for term; a camera without a start adds an
// exact 0.0.
struct CaptureClock {
  const std::vector<const SceneTrace*>& cameras;
  bool stagger;
  std::span<const double> start_s;  // cameras beyond it start at 0

  double operator()(std::size_t cam, std::size_t i) const {
    const double interval = 1.0 / cameras[cam]->spec.fps;
    const double phase = stagger ? interval * static_cast<double>(cam) /
                                       static_cast<double>(cameras.size())
                                 : 0.0;
    const double start = cam < start_s.size() ? start_s[cam] : 0.0;
    return start + phase + static_cast<double>(i) * interval;
  }
};

// The baseline of `kind` on the harness-owned platform.
std::unique_ptr<baselines::Strategy> make_baseline(
    StrategyKind kind, sim::Simulator& sim,
    serverless::FunctionPlatform& platform, const EndToEndConfig& config,
    baselines::PatchCompletionFn on_patch,
    baselines::FrameCompletionFn on_frame) {
  switch (kind) {
    case StrategyKind::kTangram:
      break;
    case StrategyKind::kFullFrame:
      return std::make_unique<baselines::FullFrameStrategy>(
          platform, std::move(on_frame));
    case StrategyKind::kMaskedFrame:
      return std::make_unique<baselines::MaskedFrameStrategy>(
          platform, std::move(on_frame));
    case StrategyKind::kElf:
      return std::make_unique<baselines::ElfStrategy>(platform, config.elf,
                                                      std::move(on_patch));
    case StrategyKind::kClipper:
      return std::make_unique<baselines::ClipperStrategy>(
          sim, platform, config.clipper, std::move(on_patch));
    case StrategyKind::kMArk:
      return std::make_unique<baselines::MArkStrategy>(
          sim, platform, config.mark, std::move(on_patch));
  }
  throw std::logic_error("make_baseline: Tangram runs on core::TangramSystem");
}

}  // namespace

RunResult run_end_to_end(const std::vector<const SceneTrace*>& cameras,
                         StrategyKind kind, const EndToEndConfig& config) {
  if (cameras.empty())
    throw std::invalid_argument("run_end_to_end: no cameras");

  sim::Simulator sim;
  // One shared uplink, or one per camera when dedicated_uplinks is set.
  std::vector<std::unique_ptr<net::Link>> links;
  const std::size_t link_count = config.dedicated_uplinks ? cameras.size() : 1;
  for (std::size_t i = 0; i < link_count; ++i)
    links.push_back(std::make_unique<net::Link>(sim, config.bandwidth_mbps));
  const auto link_of = [&](std::size_t cam) -> net::Link& {
    return *links[config.dedicated_uplinks ? cam : 0];
  };

  RunResult result;
  result.strategy = to_string(kind);

  const auto on_patch_done = [&](const core::Patch& patch,
                                 const serverless::InvocationRecord& record) {
    const double latency = record.finish_time - patch.generation_time;
    result.e2e_latency.add(latency);
    ++result.completed_items;
    if (record.finish_time > patch.deadline() + 1e-9) ++result.violations;
  };
  const auto on_frame_done = [&](const baselines::FrameWork& frame,
                                 const serverless::InvocationRecord& record) {
    const double latency = record.finish_time - frame.generation_time;
    result.e2e_latency.add(latency);
    ++result.completed_items;
    if (record.finish_time > frame.deadline() + 1e-9) ++result.violations;
  };

  // Tangram runs on the scheduler core itself: one invoker shard and one
  // stream registered with slo_s = 0, so every patch keeps its camera's
  // SLO.  The baselines share a harness-owned platform built the same way.
  std::unique_ptr<core::TangramSystem> system;
  std::unique_ptr<serverless::FunctionPlatform> platform;
  std::unique_ptr<baselines::Strategy> strategy;
  core::StreamId stream = 0;
  if (kind == StrategyKind::kTangram) {
    core::TangramSystem::Config system_config;
    system_config.canvas = config.canvas;
    system_config.slack_sigma = config.slack_sigma;
    system_config.heuristic = config.heuristic;
    system_config.platform = config.platform;
    system_config.function_latency = config.latency;
    system_config.sharding = core::ShardPolicy::single();
    system_config.seed = config.seed;
    system = std::make_unique<core::TangramSystem>(sim, system_config,
                                                   on_patch_done);
    stream = system->register_stream({"cameras", 0.0});
  } else {
    platform = std::make_unique<serverless::FunctionPlatform>(
        sim, config.platform, config.latency, config.seed);
    strategy = make_baseline(kind, sim, *platform, config, on_patch_done,
                             on_frame_done);
  }
  const auto deliver = [&](const core::Patch& patch) {
    if (system)
      system->receive_patch(stream, patch);
    else
      strategy->on_patch(patch);
  };

  // Schedule every evaluation frame of every camera up front.  Chaining
  // them like run_multistream would reorder same-instant frames of
  // unstaggered cameras with different frame rates (EndToEndGolden pins
  // this order).
  const CaptureClock capture_time{cameras, config.stagger_cameras, {}};
  std::uint64_t next_patch_id = 1;
  for (std::size_t cam = 0; cam < cameras.size(); ++cam) {
    const SceneTrace& trace = *cameras[cam];
    result.eval_frames += trace.eval_frame_count();

    for (std::size_t i = 0; i < trace.eval_frame_count(); ++i) {
      const FrameRecord& frame = trace.eval_frame(i);
      const double capture = capture_time(cam, i);
      sim.schedule_at(capture + config.edge_latency_s, [&, cam, capture,
                                                        &frame = frame]() {
        if (is_frame_level(kind)) {
          const std::size_t bytes = kind == StrategyKind::kFullFrame
                                        ? frame.full_frame_bytes
                                        : frame.masked_frame_bytes;
          result.total_bytes += bytes;
          baselines::FrameWork work;
          work.camera_id = static_cast<int>(cam);
          work.frame_index = frame.frame_index;
          work.generation_time = capture;
          work.slo = cam < config.per_camera_slo.size()
                         ? config.per_camera_slo[cam]
                         : config.slo_s;
          work.megapixels =
              static_cast<double>(cameras[cam]->spec.frame.area()) / 1.0e6;
          work.masked = kind == StrategyKind::kMaskedFrame;
          link_of(cam).send(bytes,
                            [&, work] { strategy->on_frame(work); });
          return;
        }
        // All patch-level strategies (Tangram, ELF-as-trigger-in-sequence,
        // Clipper, MArk) consume the same Algorithm-1 patch stream; the
        // ELF-system encode (elf_patch_bytes) only enters the Fig. 9
        // bandwidth study via per_frame_cost().
        const double slo = cam < config.per_camera_slo.size()
                               ? config.per_camera_slo[cam]
                               : config.slo_s;
        for (std::size_t p = 0; p < frame.patches.size(); ++p) {
          const std::size_t bytes = frame.patch_bytes[p];
          result.total_bytes += bytes;
          const std::uint64_t id = next_patch_id++;
          const auto index = static_cast<std::uint32_t>(p);
          const auto camera = static_cast<int>(cam);
          link_of(cam).send(bytes, [&deliver, &frame, index, camera, id,
                                    capture, slo] {
            core::Patch patch =
                uplinked_patch(frame, index, id, camera, capture);
            patch.slo = slo;
            deliver(patch);
          });
        }
      });
    }
  }

  sim.run();
  if (system)
    system->flush();
  else
    strategy->flush();
  sim.run();

  const serverless::FunctionPlatform& used =
      system ? system->platform() : *platform;
  result.total_cost = used.total_cost();
  result.invocations = used.invocations();
  result.instances_created = used.instances_created();
  result.fleet_size = used.fleet_size();
  result.stragglers = used.stragglers();
  result.retries = used.retries();
  result.exec_latency = used.execution_latency();
  result.execution_busy_s = used.busy_seconds();
  for (const auto& link : links)
    result.transmission_busy_s += link->transmission_time().sum();
  result.makespan_s = sim.now();
  if (system) {
    core::InvokerStats stats = system->pool().aggregate_stats();
    result.canvas_efficiency = std::move(stats.canvas_efficiency);
    result.batch_canvases = std::move(stats.batch_canvas_count);
    result.batch_patches = std::move(stats.batch_patch_count);
  }
  return result;
}

common::Sampler MultiStreamResult::pooled_queue_to_invoke() const {
  common::Sampler pooled;
  for (const auto& stream : streams)
    for (const double v : stream.queue_to_invoke.values()) pooled.add(v);
  return pooled;
}

std::pair<std::size_t, std::size_t> MultiStreamResult::class_completions_misses(
    double slo_class) const {
  std::size_t completed = 0, misses = 0;
  for (const auto& stream : streams) {
    if (stream.slo_s != slo_class) continue;
    completed += stream.patches_completed;
    misses += stream.slo_violations;
  }
  return {completed, misses};
}

std::pair<std::size_t, std::size_t> MultiStreamResult::patch_class_misses(
    double slo_class) const {
  for (const auto& tally : patch_classes)
    if (tally.slo_s == slo_class) return {tally.completed, tally.misses};
  return {0, 0};
}

MultiStreamResult run_multistream(const std::vector<const SceneTrace*>& cameras,
                                  const MultiStreamConfig& config) {
  if (cameras.empty())
    throw std::invalid_argument("run_multistream: no cameras");

  sim::Simulator sim;
  // Dedicated uplinks: each stream is an independent site (per-site cellular
  // modems), so scale-out stresses the scheduler, not one shared pipe.
  std::vector<std::unique_ptr<net::Link>> links;
  links.reserve(cameras.size());
  for (std::size_t i = 0; i < cameras.size(); ++i)
    links.push_back(std::make_unique<net::Link>(sim, config.bandwidth_mbps));

  const bool drifting = config.drift_at_s >= 0.0;
  const auto base_slo = [&config](std::size_t cam) {
    return cam < config.per_stream_slo.size() ? config.per_stream_slo[cam]
                                              : config.slo_s;
  };
  // The SLO class a patch captured at `capture` carries in a drifting run.
  const auto patch_slo = [&](std::size_t cam, double capture) {
    if (drifting && capture >= config.drift_at_s &&
        cam < config.drift_to_slo.size() && config.drift_to_slo[cam] > 0.0)
      return config.drift_to_slo[cam];
    return base_slo(cam);
  };

  // Per-patch-SLO-class accounting (completions/misses keyed by the SLO the
  // patch carried), filled through the result callback for drifting runs —
  // pure tallying, so wiring it changes no simulation behaviour.
  std::map<double, std::pair<std::size_t, std::size_t>> class_tally;
  core::TangramSystem system(
      sim, system_config_of(config),
      [&class_tally](const core::Patch& patch,
                     const serverless::InvocationRecord& record) {
        auto& tally = class_tally[patch.slo];
        ++tally.first;
        if (record.finish_time > patch.deadline() + 1e-9) ++tally.second;
      });

  std::vector<core::StreamId> streams;
  streams.reserve(cameras.size());
  for (std::size_t cam = 0; cam < cameras.size(); ++cam) {
    core::StreamConfig stream;
    stream.name = "cam-" + std::to_string(cam);
    // Drifting runs register every stream with per-patch SLOs (slo_s = 0):
    // the registration-time router can't see the classes, only the
    // rebalancer's drift tracking can.
    stream.slo_s = drifting ? 0.0 : base_slo(cam);
    streams.push_back(system.register_stream(std::move(stream)));
  }

  MultiStreamResult result;
  std::uint64_t next_patch_id = 1;

  // Chained per-camera frame scheduling: each camera keeps exactly ONE
  // pending capture event — emitting frame i schedules frame i+1 — instead
  // of seeding streams x frames events up front, so the event queue (and the
  // slot pool backing it) stays O(streams) at city scale.  Capture times
  // come from the CaptureClock run_end_to_end uses, and the chain preserves
  // the upfront loop's same-timestamp ordering (cameras seed frame 0 in
  // camera order; frame-i events execute in that order and schedule frame
  // i+1 in the same order), so the simulation is byte-identical —
  // regression-tested against the upfront baselines in
  // tests/test_parallel_runner.cpp.  Scripted load shapes (step / ramp)
  // delay whole streams through per_stream_start_s.
  const CaptureClock capture_time{cameras, config.stagger_cameras,
                                  config.per_stream_start_s};
  std::function<void(std::size_t, std::size_t)> emit_frame =
      [&](std::size_t cam, std::size_t i) {
        const SceneTrace& trace = *cameras[cam];
        const double capture = capture_time(cam, i);
        const FrameRecord& frame = trace.eval_frame(i);
        for (std::size_t p = 0; p < frame.patches.size(); ++p) {
          const std::uint64_t id = next_patch_id++;
          ++result.patches_sent;
          const auto index = static_cast<std::uint32_t>(p);
          const auto camera = static_cast<int>(cam);
          links[cam]->send(frame.patch_bytes[p], [&system, &patch_slo, &frame,
                                                  stream = streams[cam], camera,
                                                  index, drifting, id,
                                                  capture] {
            core::Patch patch =
                uplinked_patch(frame, index, id, camera, capture);
            // Non-drifting runs leave patch.slo alone — the system stamps the
            // stream's registered class exactly as before.
            if (drifting)
              patch.slo = patch_slo(static_cast<std::size_t>(camera), capture);
            system.receive_patch(stream, patch);
          });
        }
        if (i + 1 < trace.eval_frame_count())
          sim.schedule_at(capture_time(cam, i + 1) + config.edge_latency_s,
                          [&emit_frame, cam, i] { emit_frame(cam, i + 1); });
      };
  for (std::size_t cam = 0; cam < cameras.size(); ++cam) {
    if (cameras[cam]->eval_frame_count() == 0) continue;
    sim.schedule_at(capture_time(cam, 0) + config.edge_latency_s,
                    [&emit_frame, cam] { emit_frame(cam, 0); });
  }

  sim.run();
  system.flush();
  sim.run();

  result.streams = system.streams();
  for (const auto& stream : result.streams) {
    result.patches_completed += stream.patches_completed;
    result.slo_violations += stream.slo_violations;
  }
  result.shards = system.pool().shard_count();
  result.total_cost = system.total_cost();
  result.invocations = system.platform().invocations();
  const core::InvokerStats invoker_stats = system.pool().aggregate_stats();
  result.batches = invoker_stats.batches_invoked;
  result.batch_canvases = invoker_stats.batch_canvas_count;
  result.canvas_efficiency = invoker_stats.canvas_efficiency;
  result.saturated_dispatches = invoker_stats.saturated_dispatches;
  result.rebalance.enabled = config.rebalance.active();
  result.rebalance.ticks = system.pool().rebalance_ticks();
  result.rebalance.migrations = invoker_stats.migrations;
  result.rebalance.steals = invoker_stats.steals;
  result.rebalance.steal_bytes = invoker_stats.steal_bytes;
  // The pool allocates an (empty) series per shard even when no policy is
  // active; only surface them when the adaptive layer actually ran.
  if (result.rebalance.enabled)
    result.rebalance.shard_occupancy = system.pool().shard_occupancy();
  result.per_patch_drift = drifting;
  for (const auto& [slo, tally] : class_tally)
    result.patch_classes.push_back(
        MultiStreamResult::SloClassTally{slo, tally.first, tally.second});
  result.makespan_s = sim.now();
  result.events_executed = sim.events_executed();
  result.pools = system.platform().pool_telemetry();
  result.cold_starts = system.platform().cold_starts();
  result.cold_start_setup = system.platform().cold_start_setup();
  result.fleet_size = system.platform().fleet_size();
  // Predictive-provisioning roll-up: sums over EVERY pool (the per-pool
  // telemetry above keeps the series), matching the facade accessors.
  const serverless::AutoscalePolicy& autoscale = config.platform.autoscale;
  result.forecast_active = autoscale.forecasting() && !autoscale.shadow;
  result.forecast_horizon = autoscale.horizon;
  for (const serverless::PoolTelemetry& pool : result.pools)
    result.autoscale_samples += pool.series.size();
  result.prewarm_boots = system.prewarm_boots();
  result.prewarm_cost = system.prewarm_cost();
  return result;
}

core::TangramSystem::PoolAssignFn reserved_tight_pool_plan(
    double tight_slo_threshold, int tight_reserved, int loose_burst_limit,
    int tight_forecast_headroom) {
  return [tight_slo_threshold, tight_reserved, loose_burst_limit,
          tight_forecast_headroom](const std::string&,
                                   const core::StreamConfig& stream) {
    serverless::CapacityPoolConfig pool;
    if (stream.slo_s > 0.0 && stream.slo_s <= tight_slo_threshold) {
      pool.name = "tight";
      pool.reserved = tight_reserved;
      pool.forecast_headroom = tight_forecast_headroom;
    } else {
      pool.name = "loose";
      pool.burst_limit = loose_burst_limit > 0 ? loose_burst_limit : -1;
    }
    return pool;
  };
}

std::shared_ptr<const core::LatencyEstimator> profile_estimator(
    const MultiStreamConfig& config) {
  return core::TangramSystem::profile_estimator(system_config_of(config));
}

ShardedRunResult run_sharded(const std::vector<const SceneTrace*>& cameras,
                             const MultiStreamConfig& config) {
  // The single/sharded legs measure the invoker layout alone: strip the
  // capacity plan, any autoscale policy, AND any rebalance policy so they
  // keep matching the PR-2 baselines byte-for-byte; only the reserved leg
  // runs the caller's provisioning config (still without rebalancing — the
  // rebalanced leg isolates the adaptive layer).
  MultiStreamConfig single_config = config;
  single_config.sharding = core::ShardPolicy::single();
  single_config.pool_for_shard = nullptr;
  single_config.platform.autoscale = serverless::AutoscalePolicy{};
  single_config.rebalance = core::RebalancePolicy{};
  MultiStreamConfig sharded_config = config;
  sharded_config.sharding = core::ShardPolicy::per_slo_class();
  sharded_config.pool_for_shard = nullptr;
  sharded_config.platform.autoscale = serverless::AutoscalePolicy{};
  sharded_config.rebalance = core::RebalancePolicy{};

  // The legs differ only in layout/provisioning, never in the platform
  // resources, canvas, slack, or seed the offline profiling campaign
  // depends on — so profile once and share the estimator by const& instead
  // of rebuilding the identical campaign per leg.
  std::vector<MultiStreamCell> cells;
  cells.push_back({cameras, std::move(single_config)});
  cells.push_back({cameras, std::move(sharded_config)});
  if (config.pool_for_shard) {
    MultiStreamConfig reserved_config = config;
    reserved_config.sharding = core::ShardPolicy::per_slo_class();
    reserved_config.rebalance = core::RebalancePolicy{};
    cells.push_back({cameras, std::move(reserved_config)});
  }
  // The adaptive leg: per-class shards plus the caller's RebalancePolicy,
  // with capacity plan / autoscale stripped exactly like the sharded leg —
  // so sharded vs rebalanced is the adaptive layer, nothing else.
  if (config.rebalance.active()) {
    MultiStreamConfig rebalanced_config = config;
    rebalanced_config.sharding = core::ShardPolicy::per_slo_class();
    rebalanced_config.pool_for_shard = nullptr;
    rebalanced_config.platform.autoscale = serverless::AutoscalePolicy{};
    cells.push_back({cameras, std::move(rebalanced_config)});
  }
  if (!config.profiled_estimator) {
    const auto profile = core::TangramSystem::profile_estimator(
        system_config_of(cells.front().config));
    for (MultiStreamCell& cell : cells) cell.config.profiled_estimator = profile;
  }

  auto outcomes = run_multistream_cells(cells, config.jobs);
  ShardedRunResult result;
  result.single = std::move(outcomes[0].result);
  result.sharded = std::move(outcomes[1].result);
  std::size_t next = 2;
  if (config.pool_for_shard) {
    result.sharded_reserved = std::move(outcomes[next++].result);
    result.has_reserved = true;
  }
  if (config.rebalance.active()) {
    result.rebalanced = std::move(outcomes[next++].result);
    result.has_rebalanced = true;
  }
  return result;
}

std::vector<SweepCellOutcome<MultiStreamResult>> run_multistream_cells(
    const std::vector<MultiStreamCell>& cells, int jobs) {
  const ParallelSweepRunner runner(jobs);
  return runner.map(cells.size(), [&](std::size_t i) {
    return run_multistream(cells[i].cameras, cells[i].config);
  });
}

namespace {

// Full-precision double formatting: 17 significant digits round-trip every
// IEEE-754 double, so any behavioural drift shows up as a byte difference.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_sampler(std::string& out, const char* key,
                    const common::Sampler& s) {
  out += '"';
  out += key;
  out += "\":{\"count\":" + std::to_string(s.count());
  out += ",\"mean\":" + fmt(s.mean());
  out += ",\"stddev\":" + fmt(s.stddev());
  out += ",\"min\":" + fmt(s.stats().min());
  out += ",\"max\":" + fmt(s.stats().max());
  out += ",\"p50\":" + fmt(s.empty() ? 0.0 : s.quantile(0.5));
  out += ",\"p99\":" + fmt(s.empty() ? 0.0 : s.quantile(0.99));
  out += '}';
}

}  // namespace

std::string deterministic_json(const MultiStreamResult& result) {
  std::string out = "{\"shards\":" + std::to_string(result.shards);
  out += ",\"patches_sent\":" + std::to_string(result.patches_sent);
  out += ",\"patches_completed\":" + std::to_string(result.patches_completed);
  out += ",\"slo_violations\":" + std::to_string(result.slo_violations);
  out += ",\"total_cost\":" + fmt(result.total_cost);
  out += ",\"invocations\":" + std::to_string(result.invocations);
  out += ",\"batches\":" + std::to_string(result.batches);
  out += ",\"makespan_s\":" + fmt(result.makespan_s);
  out += ",\"events_executed\":" + std::to_string(result.events_executed);
  out += ",\"cold_starts\":" + std::to_string(result.cold_starts);
  out += ",\"fleet_size\":" + std::to_string(result.fleet_size);
  out += ',';
  append_sampler(out, "batch_canvases", result.batch_canvases);
  out += ',';
  append_sampler(out, "canvas_efficiency", result.canvas_efficiency);
  out += ',';
  append_sampler(out, "cold_start_setup", result.cold_start_setup);
  out += ",\"streams\":[";
  for (std::size_t i = 0; i < result.streams.size(); ++i) {
    const core::StreamStats& s = result.streams[i];
    if (i) out += ',';
    out += "{\"name\":\"" + s.name + "\"";
    out += ",\"slo_s\":" + fmt(s.slo_s);
    out += ",\"shard\":" + std::to_string(s.shard);
    out += ",\"received\":" + std::to_string(s.patches_received);
    out += ",\"completed\":" + std::to_string(s.patches_completed);
    out += ",\"violations\":" + std::to_string(s.slo_violations);
    out += ',';
    append_sampler(out, "e2e", s.e2e_latency);
    out += ',';
    append_sampler(out, "q2i", s.queue_to_invoke);
    out += '}';
  }
  out += "],\"pools\":[";
  for (std::size_t i = 0; i < result.pools.size(); ++i) {
    const serverless::PoolTelemetry& p = result.pools[i];
    if (i) out += ',';
    out += "{\"name\":\"" + p.name + "\"";
    out += ",\"reserved\":" + std::to_string(p.reserved);
    out += ",\"burst_limit\":" + std::to_string(p.burst_limit);
    out += ",\"limit\":" + std::to_string(p.limit);
    out += ",\"peak_in_use\":" + std::to_string(p.peak_in_use);
    out += ",\"dispatched\":" + std::to_string(p.dispatched);
    out += ",\"cold_starts\":" + std::to_string(p.cold_starts);
    out += ",\"autoscale_ticks\":" + std::to_string(p.series.size());
    out += ',';
    append_sampler(out, "backlog_depth", p.backlog_depth);
    out += '}';
  }
  out += ']';
  // Forecast-driven provisioning block: emitted only when an actuating
  // forecast policy drove the run (shadow/observe-only runs included would
  // break their byte-identity with kStatic) — same gating pattern as the
  // rebalance block below.
  if (result.forecast_active) {
    out += ",\"forecast\":{\"horizon\":" +
           std::to_string(result.forecast_horizon);
    out += ",\"autoscale_samples\":" +
           std::to_string(result.autoscale_samples);
    out += ",\"prewarm_boots\":" + std::to_string(result.prewarm_boots);
    out += ",\"prewarm_cost\":" + fmt(result.prewarm_cost);
    out += ",\"pools\":[";
    for (std::size_t i = 0; i < result.pools.size(); ++i) {
      const serverless::PoolTelemetry& p = result.pools[i];
      const serverless::forecast::Accuracy acc = serverless::forecast::accuracy(
          p.demand_history, p.forecast_history, result.forecast_horizon);
      if (i) out += ',';
      out += "{\"name\":\"" + p.name + "\"";
      out += ",\"samples\":" + std::to_string(p.demand_history.size());
      out += ",\"prewarm_boots\":" + std::to_string(p.prewarm_boots);
      out += ",\"prewarm_cost\":" + fmt(p.prewarm_cost);
      out += ",\"mae\":" + fmt(acc.mae);
      out += ",\"rmse\":" + fmt(acc.rmse);
      out += ",\"bias\":" + fmt(acc.bias) + '}';
    }
    out += "]}";
  }
  // The adaptive-layer block exists only for runs that used it (an active
  // RebalancePolicy or the drifting-class-mix workload): every legacy
  // configuration keeps producing the exact pre-rebalancing byte stream —
  // the guarantee ladder's comparison key must not move for them.
  if (result.rebalance.enabled || result.per_patch_drift) {
    out += ",\"rebalance\":{\"ticks\":" + std::to_string(result.rebalance.ticks);
    out += ",\"migrations\":" + std::to_string(result.rebalance.migrations);
    out += ",\"steals\":" + std::to_string(result.rebalance.steals);
    out += ",\"steal_bytes\":" + std::to_string(result.rebalance.steal_bytes);
    out += ",\"saturated_dispatches\":" +
           std::to_string(result.saturated_dispatches);
    out += ",\"shard_occupancy\":[";
    for (std::size_t s = 0; s < result.rebalance.shard_occupancy.size(); ++s) {
      if (s) out += ',';
      out += '[';
      const auto& series = result.rebalance.shard_occupancy[s];
      for (std::size_t i = 0; i < series.size(); ++i) {
        if (i) out += ',';
        out += "{\"t\":" + fmt(series[i].time);
        out += ",\"pending\":" + std::to_string(series[i].pending);
        out += ",\"streams\":" + std::to_string(series[i].streams) + '}';
      }
      out += ']';
    }
    out += "],\"patch_classes\":[";
    for (std::size_t i = 0; i < result.patch_classes.size(); ++i) {
      const auto& tally = result.patch_classes[i];
      if (i) out += ',';
      out += "{\"slo_s\":" + fmt(tally.slo_s);
      out += ",\"completed\":" + std::to_string(tally.completed);
      out += ",\"misses\":" + std::to_string(tally.misses) + '}';
    }
    out += "]}";
  }
  out += '}';
  return out;
}

PerFrameCostResult per_frame_cost(const SceneTrace& trace, StrategyKind kind,
                                  const EndToEndConfig& config) {
  PerFrameCostResult result;
  result.strategy = to_string(kind);
  result.eval_frames = trace.eval_frame_count();

  serverless::InferenceLatencyModel model(config.latency,
                                          common::Rng(config.seed, 13));
  const core::StitchSolver solver(config.heuristic);
  const auto& resources = config.platform.resources;
  const auto& pricing = config.platform.pricing;
  const double frame_mp =
      static_cast<double>(trace.spec.frame.area()) / 1.0e6;

  for (std::size_t i = 0; i < trace.eval_frame_count(); ++i) {
    const FrameRecord& frame = trace.eval_frame(i);
    switch (kind) {
      case StrategyKind::kTangram: {
        if (frame.patches.empty()) break;
        std::vector<common::Size> sizes;
        sizes.reserve(frame.patches.size());
        for (const auto& p : frame.patches) sizes.push_back(p.size());
        const auto packing = solver.pack(sizes, config.canvas);
        const double exec =
            model.mean_batch_latency(packing.canvas_count, config.canvas);
        result.total_cost +=
            serverless::invocation_cost(exec, resources, pricing);
        result.execution_s += exec;
        result.total_bytes += frame.total_patch_bytes();
        ++result.invocations;
        break;
      }
      case StrategyKind::kFullFrame: {
        const double exec = model.mean_image_latency(frame_mp, false);
        result.total_cost +=
            serverless::invocation_cost(exec, resources, pricing);
        result.execution_s += exec;
        result.total_bytes += frame.full_frame_bytes;
        ++result.invocations;
        break;
      }
      case StrategyKind::kMaskedFrame: {
        const double exec = model.mean_image_latency(frame_mp, true);
        result.total_cost +=
            serverless::invocation_cost(exec, resources, pricing);
        result.execution_s += exec;
        result.total_bytes += frame.masked_frame_bytes;
        ++result.invocations;
        break;
      }
      case StrategyKind::kElf: {
        for (const auto& p : frame.patches) {
          const double mp = static_cast<double>(p.area()) *
                            config.elf.area_expansion / 1.0e6;
          const double exec = model.mean_image_latency(mp, false);
          result.total_cost +=
              serverless::invocation_cost(exec, resources, pricing);
          result.execution_s += exec;
          ++result.invocations;
        }
        result.total_bytes += frame.total_elf_bytes();
        break;
      }
      case StrategyKind::kClipper:
      case StrategyKind::kMArk:
        throw std::invalid_argument(
            "per_frame_cost: Clipper/MArk are end-to-end-only baselines");
    }
  }
  return result;
}

}  // namespace tangram::experiments
