// TangramSystem: the plug-and-play cloud-side facade from Section IV of the
// paper, extended into a multi-stream scheduler core.
//
//   class Tangram(canvas_size) { receive_patch(...); invoke(...); }
//
// The facade owns the whole cloud stack — latency estimator (profiled
// offline on construction), patch-stitching solver, SLO-aware invoker, and
// the serverless function platform — and exposes the paper's two-call API:
// feed it patches, get per-patch inference completions back.  Swapping the
// downstream model (detection -> pose estimation -> segmentation) is a
// Config change; no scheduler code is touched.
//
// Beyond the paper's single camera, the facade multiplexes any number of
// registered streams (cameras, sites, tenants) onto a shared InvokerPool and
// ONE function platform: patches from streams routed to the same shard
// stitch onto the same canvases, so cross-stream batching amortizes
// invocations exactly like cross-patch batching does within one camera.
// The pool's admission router assigns each stream a shard when it registers
// (default: one shard per SLO class, cutting head-of-line blocking between
// classes; see ShardPolicy in core/invoker_pool.h).  Each stream carries its
// own SLO class and per-stream telemetry (completions, SLO misses,
// end-to-end latency, queue-to-invoke latency).
//
// Construction fails fast with std::invalid_argument when the configured
// model + one canvas already exceed the function's GPU memory (constraint
// (5)) — a config that can never schedule a batch must not reach the
// simulation and throw mid-run.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/estimator.h"
#include "core/invoker.h"
#include "core/invoker_pool.h"
#include "core/patch.h"
#include "core/stitcher.h"
#include "serverless/platform.h"
#include "sim/simulator.h"

namespace tangram::core {

// StreamId / StreamConfig live in core/invoker_pool.h (the routing layer).

struct StreamStats {
  std::string name;
  double slo_s = 0.0;                 // 0 = per-patch SLOs
  int shard = 0;                      // CURRENT invoker-pool shard (the
                                      // rebalancer may move it; see below)
  bool active = true;                 // false after deregister_stream()
  std::size_t migrations = 0;         // times the rebalancer re-routed it
  std::size_t patches_received = 0;   // after oversized-patch tiling
  std::size_t patches_completed = 0;
  std::size_t slo_violations = 0;
  common::Sampler e2e_latency;        // capture -> inference finish
  common::Sampler queue_to_invoke;    // scheduler arrival -> batch invoke

  [[nodiscard]] double violation_rate() const {
    return patches_completed ? static_cast<double>(slo_violations) /
                                   static_cast<double>(patches_completed)
                             : 0.0;
  }
};

class TangramSystem {
 public:
  // Capacity-pool wiring: maps an invoker shard (identified by its
  // ShardPolicy key and the StreamConfig whose registration created it — a
  // default StreamConfig for kSingle's eager shard) to a CapacityPool
  // carved out of platform.max_instances.  Returning a config with an empty
  // name leaves the shard on the platform's default pool (legacy
  // behaviour).  Distinct shards may share a pool by returning the same
  // name and limits.
  using PoolAssignFn = std::function<serverless::CapacityPoolConfig(
      const std::string& shard_key, const StreamConfig& first_stream)>;

  struct Config {
    common::Size canvas{1024, 1024};
    double slack_sigma = 3.0;  // Eqn. (9) multiplier
    PackHeuristic heuristic = PackHeuristic::kGuillotineBssf;
    serverless::PlatformConfig platform;
    serverless::LatencyModelParams function_latency;  // the deployed model
    LatencyEstimator::Config estimator;
    // Invoker-pool layout; default shards by SLO class.  ShardPolicy::single()
    // reproduces the legacy one-invoker layout byte-for-byte.
    ShardPolicy sharding;
    // Adaptive re-routing on top of the registration-time decision: stream
    // migration between shards and cross-shard work stealing (see
    // RebalancePolicy in core/invoker_pool.h).  The default — none() with
    // stealing disabled — schedules no timer and reproduces route-once
    // behaviour byte-for-byte.
    RebalancePolicy rebalance;
    // Null = every shard invokes through the platform's default pool.
    PoolAssignFn pool_for_shard;
    // Reservoir capacity for per-stream and per-shard telemetry Samplers
    // (e2e latency, queue-to-invoke, canvas efficiency, batch sizes) and —
    // via platform.telemetry_reservoir — the platform's.  0 = retain every
    // sample (legacy, exact quantiles); > 0 bounds per-sim telemetry memory
    // so 10k-stream cells fit (see common/stats.h).
    std::size_t telemetry_reservoir = 0;
    // Prebuilt offline-profiling result to share across systems: when set
    // (and built for an identical canvas / slack / platform / seed config,
    // e.g. via profile_estimator()), construction reuses it instead of
    // re-running the 1000-iteration campaign.  Profiling draws from a
    // private copy of the latency model, so sharing is byte-identical to
    // per-system profiling — run_sharded()'s three legs profile once.
    std::shared_ptr<const LatencyEstimator> profiled_estimator;
    std::uint64_t seed = 2024;
  };

  // Run the offline profiling campaign for `config` exactly as construction
  // would, returning an estimator shareable across every system built from
  // an equivalent config (same canvas, slack_sigma, estimator config,
  // platform resources/latency params, and seed).
  [[nodiscard]] static std::shared_ptr<const LatencyEstimator>
  profile_estimator(const Config& config);

  // Called once per patch when its batch's function invocation completes.
  using ResultFn = std::function<void(const Patch&,
                                      const serverless::InvocationRecord&)>;

  TangramSystem(sim::Simulator& simulator, Config config, ResultFn on_result);

  // --- multi-stream API ------------------------------------------------------
  // Register a stream; patches are then submitted against its id.  All
  // streams share the invoker and platform, so their patches batch together.
  StreamId register_stream(StreamConfig config = {});

  // Unregister a live stream (camera churn): its pending — not yet invoked —
  // patches are discarded, later receive_patch() calls for it throw
  // std::invalid_argument, and batches already in flight complete and record
  // telemetry normally.  The id is never reused and the stream's final
  // telemetry stays readable through stream_stats().  Throws
  // std::out_of_range on an unknown id, std::invalid_argument if already
  // deregistered.
  void deregister_stream(StreamId stream);

  // Paper API 1, stream-addressed: the scheduler receives a patch from one
  // of the registered streams.  Oversized patches are tiled to the canvas
  // automatically.  Throws std::out_of_range on an unknown stream id and
  // std::invalid_argument on a deregistered one.
  void receive_patch(StreamId stream, Patch patch);

  // Dispatch whatever is still queued (shutdown / end of stream).
  void flush();

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }
  [[nodiscard]] const StreamStats& stream_stats(StreamId stream) const {
    return streams_.at(static_cast<std::size_t>(stream));
  }
  [[nodiscard]] const std::vector<StreamStats>& streams() const {
    return streams_;
  }
  [[nodiscard]] const InvokerPool& pool() const { return *pool_; }
  [[nodiscard]] const serverless::FunctionPlatform& platform() const {
    return *platform_;
  }
  [[nodiscard]] const LatencyEstimator& estimator() const {
    return *estimator_;
  }
  [[nodiscard]] double total_cost() const { return platform_->total_cost(); }
  // Predictive-provisioning telemetry, summed across every capacity pool
  // (Config::platform.autoscale selects the forecast policy; see
  // serverless/forecast.h).  total_cost() already includes prewarm_cost().
  [[nodiscard]] std::uint64_t prewarm_boots() const {
    return platform_->prewarm_boots();
  }
  [[nodiscard]] double prewarm_cost() const {
    return platform_->prewarm_cost();
  }

 private:
  void submit(StreamId stream, Patch patch);
  void dispatch(int shard, Batch&& batch);
  // Platform completion for the batch parked in `slot`: per-patch telemetry
  // + result callbacks, then the batch's storage goes back to batch_pool_.
  void complete_batch(std::uint32_t slot,
                      const serverless::InvocationRecord& record);
  [[nodiscard]] std::uint32_t acquire_inflight();

  Config config_;
  ResultFn on_result_;
  std::unique_ptr<serverless::FunctionPlatform> platform_;
  // Shared by every shard; const + shareable across systems (see
  // Config::profiled_estimator).
  std::shared_ptr<const LatencyEstimator> estimator_;
  std::unique_ptr<InvokerPool> pool_;
  // Capacity-pool index per invoker shard (0 = the platform default pool),
  // filled by the shard-setup hook so dispatch skips the name lookup.
  std::vector<int> shard_pools_;
  // Recycled batch storage shared by every shard (see core::BatchPool):
  // dispatch parks each in-flight batch in a recycled inflight_ slot so the
  // platform callback captures only [this, slot] — small enough for the
  // std::function small-buffer — and completion recycles the storage.
  std::shared_ptr<BatchPool> batch_pool_;
  std::vector<Batch> inflight_;
  std::vector<std::uint32_t> inflight_free_;
  std::vector<StreamStats> streams_;
};

}  // namespace tangram::core
