#include "core/system.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/hot_path.h"

namespace tangram::core {

namespace {

// The offline profiling campaign (estimator construction) exactly as the
// system ctor has always run it; extracted so profile_estimator() can run it
// against a throwaway platform and share the result across systems.
std::shared_ptr<const LatencyEstimator> run_profiling_campaign(
    serverless::FunctionPlatform& platform,
    const TangramSystem::Config& config, int max_batch) {
  LatencyEstimator::Config est = config.estimator;
  est.sigma_multiplier = config.slack_sigma;
  est.max_profiled_batch =
      max_batch == std::numeric_limits<int>::max()
          ? std::max(config.estimator.max_profiled_batch, 1)
          : max_batch;
  return std::make_shared<const LatencyEstimator>(platform.latency_model(),
                                                  config.canvas, est);
}

}  // namespace

std::shared_ptr<const LatencyEstimator> TangramSystem::profile_estimator(
    const Config& config) {
  // Profiling draws from a copy of the latency model seeded exactly as a
  // real platform would be, so the result is byte-identical to the
  // estimator a TangramSystem(config) would build for itself.
  sim::Simulator sim;
  serverless::FunctionPlatform platform(sim, config.platform,
                                        config.function_latency, config.seed);
  const int max_batch = platform.max_canvases_per_batch(config.canvas);
  if (max_batch < 1)
    throw std::invalid_argument(
        "TangramSystem::profile_estimator: model plus one canvas exceeds "
        "the function's GPU memory");
  return run_profiling_campaign(platform, config, max_batch);
}

TangramSystem::TangramSystem(sim::Simulator& simulator, Config config,
                             ResultFn on_result)
    : config_(std::move(config)), on_result_(std::move(on_result)) {
  platform_ = std::make_unique<serverless::FunctionPlatform>(
      simulator, config_.platform, config_.function_latency, config_.seed);

  // Fail fast on an unschedulable config: if even a single canvas does not
  // fit next to the model weights, no batch can ever be invoked.  The old
  // std::max(1, ...) clamp deferred this to a mid-simulation throw from
  // FunctionPlatform::invoke.
  const int max_batch = platform_->max_canvases_per_batch(config_.canvas);
  if (max_batch < 1)
    throw std::invalid_argument(
        "TangramSystem: model (" +
        std::to_string(config_.platform.model_gpu_gb) + " GB) plus one " +
        std::to_string(config_.canvas.width) + "x" +
        std::to_string(config_.canvas.height) +
        " canvas exceeds the function's GPU memory (" +
        std::to_string(config_.platform.resources.gpu_gb) +
        " GB); shrink the canvas or provision more VRAM");

  // Offline profiling stage: run the estimator's 1000-iteration campaign
  // against (a copy of) the deployed function's latency distribution, one
  // size per admissible batch.  An unconstrained GPU (canvas_gpu_gb == 0
  // reports INT_MAX) falls back to the estimator config's range instead of
  // an endless campaign; slack() extrapolates linearly past it.  A prebuilt
  // estimator (Config::profiled_estimator) skips the campaign: profiling
  // never perturbs the platform's RNG stream, so reuse is byte-identical.
  if (config_.profiled_estimator) {
    const LatencyEstimator& shared = *config_.profiled_estimator;
    if (shared.canvas().width != config_.canvas.width ||
        shared.canvas().height != config_.canvas.height ||
        shared.config().sigma_multiplier != config_.slack_sigma)
      throw std::invalid_argument(
          "TangramSystem: profiled_estimator was built for a different "
          "canvas or slack_sigma than this config");
    estimator_ = config_.profiled_estimator;
  } else {
    estimator_ = run_profiling_campaign(*platform_, config_, max_batch);
  }

  InvokerConfig inv;
  inv.canvas = config_.canvas;
  inv.max_canvases = max_batch;
  inv.telemetry_reservoir = config_.telemetry_reservoir;
  // One recycled-batch arena for the whole system: every shard builds its
  // batches out of it and complete_batch() returns the storage, so canvas
  // capacity recirculates across shards for the lifetime of the run.
  batch_pool_ = std::make_shared<BatchPool>();
  inv.batch_pool = batch_pool_;
  pool_ = std::make_unique<InvokerPool>(
      simulator, StitchSolver(config_.heuristic), *estimator_, inv,
      config_.sharding,
      [this](int shard, Batch&& batch) { dispatch(shard, std::move(batch)); },
      // Capacity wiring: when a shard is created, carve its pool out of the
      // platform fleet; dispatch routes the shard's batches to it through
      // shard_pools_, and the headroom query feeds the shard's saturation
      // telemetry.
      [this](int shard, const std::string& key, const StreamConfig& stream,
             InvokerConfig& shard_config) {
        if (static_cast<std::size_t>(shard) >= shard_pools_.size())
          shard_pools_.resize(static_cast<std::size_t>(shard) + 1, 0);
        if (!config_.pool_for_shard) return;
        const serverless::CapacityPoolConfig pool =
            config_.pool_for_shard(key, stream);
        if (pool.name.empty()) return;
        const int pool_idx = platform_->define_pool(pool);
        shard_pools_[static_cast<std::size_t>(shard)] = pool_idx;
        shard_config.pool_headroom = [platform = platform_.get(), pool_idx] {
          return platform->pool_headroom(pool_idx);
        };
      },
      config_.rebalance,
      // The router moved a stream: restamp its telemetry's shard so
      // per-stream reporting always names the shard now batching it.
      [this](StreamId stream, int /*from*/, int to) {
        auto& stats = streams_[static_cast<std::size_t>(stream)];
        stats.shard = to;
        ++stats.migrations;
      });
}

StreamId TangramSystem::register_stream(StreamConfig config) {
  const auto id = static_cast<StreamId>(streams_.size());
  StreamStats stats;
  // Per-stream telemetry honours the configured reservoir bound (0 keeps
  // the legacy retain-everything samplers).
  stats.e2e_latency = common::Sampler(config_.telemetry_reservoir);
  stats.queue_to_invoke = common::Sampler(config_.telemetry_reservoir);
  // Admission routing happens here, once per stream: every patch the stream
  // ever submits lands on this shard.
  stats.shard = pool_->route(id, config);
  stats.name = config.name.empty() ? "stream-" + std::to_string(id)
                                   : std::move(config.name);
  stats.slo_s = config.slo_s;
  streams_.push_back(std::move(stats));
  return id;
}

void TangramSystem::deregister_stream(StreamId stream) {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size())
    throw std::out_of_range("TangramSystem: unknown stream id");
  auto& stats = streams_[static_cast<std::size_t>(stream)];
  if (!stats.active)
    throw std::invalid_argument("TangramSystem: stream already deregistered");
  // Drops the stream's pending frame chain from its shard's queue; in-flight
  // batches still index streams_ (never erased), so their completion
  // callbacks land safely and the final telemetry stays consistent.
  pool_->deregister(stream);
  stats.active = false;
}

void TangramSystem::receive_patch(StreamId stream, Patch patch) {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size())
    throw std::out_of_range("TangramSystem: unknown stream id");
  if (!streams_[static_cast<std::size_t>(stream)].active)
    throw std::invalid_argument("TangramSystem: stream was deregistered");
  patch.stream_id = stream;
  const double slo = streams_[static_cast<std::size_t>(stream)].slo_s;
  if (slo > 0.0) patch.slo = slo;

  // Fitting patches (the common case) move straight through; only oversized
  // ones pay the split + byte-apportion detour.
  if (patch.region.width > config_.canvas.width ||
      patch.region.height > config_.canvas.height) {
    for (Patch& sub : split_patch(patch, config_.canvas))
      submit(stream, std::move(sub));
    return;
  }
  submit(stream, std::move(patch));
}

TANGRAM_HOT_PATH void TangramSystem::submit(StreamId stream, Patch patch) {
  ++streams_[static_cast<std::size_t>(stream)].patches_received;
  // Route by stream id, not the cached StreamStats::shard — the rebalancer
  // may have moved the stream since registration.
  pool_->submit(stream, std::move(patch));
}

void TangramSystem::flush() { pool_->flush(); }

TANGRAM_HOT_PATH void TangramSystem::dispatch(int shard, Batch&& batch) {
  // Queue-to-invoke latency is known the moment the batch forms; record it
  // per stream before the function round-trip.
  for (const auto& canvas : batch.canvases)
    for (const auto& patch : canvas.patches)
      streams_[static_cast<std::size_t>(patch.stream_id)].queue_to_invoke.add(
          batch.invoke_time - patch.arrival_time);

  // Paper API 2: invoke(canvases) — one serverless call per batch, routed
  // to the shard's capacity pool (index 0 = the platform default pool).
  // The batch is parked in a recycled in-flight slot so the completion
  // callback captures only [this, slot]: it fits the std::function
  // small-buffer, and the batch's vectors round-trip through batch_pool_
  // instead of being freed — zero heap allocations per dispatch at steady
  // state.
  serverless::RequestSpec spec;
  spec.num_canvases = batch.canvas_count();
  spec.canvas = config_.canvas;
  spec.num_items = batch.total_patches;
  const std::uint32_t slot = acquire_inflight();
  inflight_[slot] = std::move(batch);
  platform_->invoke(spec, shard_pools_[static_cast<std::size_t>(shard)],
                    [this, slot](const serverless::InvocationRecord& record) {
                      complete_batch(slot, record);
                    });
}

TANGRAM_HOT_PATH std::uint32_t TangramSystem::acquire_inflight() {
  if (inflight_free_.empty()) {
    inflight_.emplace_back();
    return static_cast<std::uint32_t>(inflight_.size() - 1);
  }
  const std::uint32_t slot = inflight_free_.back();
  inflight_free_.pop_back();
  return slot;
}

TANGRAM_HOT_PATH void TangramSystem::complete_batch(
    std::uint32_t slot, const serverless::InvocationRecord& record) {
  // Move the batch out and free the slot first: on_result_ may submit
  // patches that dispatch re-entrantly and reuse it.
  Batch batch = std::move(inflight_[slot]);
  // reserve: slot freelist keeps the in-flight high-water capacity
  inflight_free_.push_back(slot);
  for (const auto& canvas : batch.canvases) {
    for (const auto& patch : canvas.patches) {
      auto& stats = streams_[static_cast<std::size_t>(patch.stream_id)];
      ++stats.patches_completed;
      stats.e2e_latency.add(record.finish_time - patch.generation_time);
      if (record.finish_time > patch.deadline() + 1e-9)
        ++stats.slo_violations;
      if (on_result_) on_result_(patch, record);
    }
  }
  batch_pool_->recycle(std::move(batch));
}

}  // namespace tangram::core
