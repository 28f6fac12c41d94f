// InvokerPool: N SloAwareInvoker shards behind an admission router.
//
// The paper's invoker batches every arrival into ONE queue, so a tight-SLO
// stream stuck behind a loose-SLO backlog suffers head-of-line blocking: the
// shared t_DDL is dragged down to the tightest deadline and every class pays
// the tight class's forced flushes.  The pool shards the invoker layer —
// by default one shard per SLO class — so each class batches against its own
// deadline horizon while still sharing one serverless platform and ONE
// offline-profiled latency estimator (profiling is a property of the
// deployed function, not of a shard).
//
// Routing is decided at stream-registration time: the admission router maps
// a stream to a shard key, creates the shard on first sight of that key, and
// the stream's patches land on that shard.  Per-patch routing would split
// one stream's patches across shards and destroy the within-stream batching
// the paper depends on — so the adaptive layer below moves STREAMS, never
// patches, between shards.
//
// On top of route-once sits an optional RebalancePolicy, evaluated on a
// self-stopping sim-timer (the platform autoscaler idiom): it may migrate a
// registered stream to a different shard (detach the stream's pending
// patches, re-route, attach them on the new shard — in-flight batches finish
// where they were formed, so no patch is ever split across shards), and may
// let an idle shard steal packable patches from a backlogged peer's queue
// tail.  RebalancePolicy::none() with stealing disabled schedules no timer
// and is byte-identical to the route-once-forever pool.
//
// A pool with ShardPolicy::single() is byte-identical to the pre-pool
// single-invoker layout: one shard, created eagerly, fed every patch in
// arrival order (regression-tested in tests/test_invoker_pool.cpp).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/invoker.h"
#include "core/patch.h"
#include "core/stitcher.h"
#include "sim/simulator.h"

namespace tangram::core {

using StreamId = int;

struct StreamConfig {
  std::string name;   // telemetry label; default "stream-<id>"
  // SLO class applied to every patch of this stream (> 0 overrides whatever
  // the patch arrived with; <= 0 keeps the per-patch SLO).
  double slo_s = 0.0;
};

// How the admission router maps streams to shards.  Every policy reduces to
// a string key; streams with equal keys share a shard, and shards are
// created lazily per distinct key (except kSingle, whose one shard exists
// from construction so the legacy layout is reproduced exactly).
struct ShardPolicy {
  enum class Kind {
    kSingle,       // every stream on one shard (legacy single-invoker layout)
    kPerSloClass,  // one shard per distinct SLO class (the default)
    kHashStream,   // stream id modulo hash_shards
  };

  Kind kind = Kind::kPerSloClass;
  int hash_shards = 4;  // kHashStream only; must be >= 1

  [[nodiscard]] static ShardPolicy single() {
    return ShardPolicy{Kind::kSingle, 1};
  }
  [[nodiscard]] static ShardPolicy per_slo_class() {
    return ShardPolicy{Kind::kPerSloClass, 1};
  }
  [[nodiscard]] static ShardPolicy hashed(int shards) {
    return ShardPolicy{Kind::kHashStream, shards};
  }
};

// Cross-shard work stealing, evaluated on each rebalance tick: every shard
// with an EMPTY queue steals up to max_patches from the tail of the most
// backlogged peer (queue depth >= min_victim_backlog), committing only when
// the stolen suffix still meets every deadline on the thief with
// slack_margin_s to spare (see SloAwareInvoker::steal_from).
struct StealPolicy {
  bool enabled = false;
  std::size_t min_victim_backlog = 8;
  std::size_t max_patches = 4;
  double slack_margin_s = 0.0;
};

// The adaptive re-routing layer on top of the ShardPolicy's registration-time
// decision.  Evaluated every interval_s of sim-time by a self-stopping timer
// (armed on patch submission, re-armed only while pending work or this
// tick's actions could change the next decision — the platform autoscaler
// idiom), so kNone with stealing disabled schedules nothing at all.
struct RebalancePolicy {
  enum class Kind {
    kNone,           // route once, forever (legacy behaviour)
    kLoadThreshold,  // migrate a stream off the most backlogged shard
    kClassMixDrift,  // re-route a stream to its observed per-patch SLO class
  };

  Kind kind = Kind::kNone;
  double interval_s = 0.25;  // evaluation cadence (sim-seconds)
  // kLoadThreshold: act when the deepest shard queue is >= min_backlog AND
  // more than imbalance_ratio x the shallowest; one stream (the one with the
  // most pending patches there) migrates to the shallowest shard per tick.
  double imbalance_ratio = 2.0;
  std::size_t min_backlog = 8;
  // kClassMixDrift: a stream whose last min_run patches all carried the same
  // SLO class is re-routed to that class's shard (created on demand).
  std::size_t min_run = 4;
  StealPolicy steal;

  // Whether any adaptive machinery (migration or stealing) is on; false
  // guarantees no rebalance timer is ever scheduled.
  [[nodiscard]] bool active() const {
    return kind != Kind::kNone || steal.enabled;
  }

  [[nodiscard]] static RebalancePolicy none() { return RebalancePolicy{}; }
  [[nodiscard]] static RebalancePolicy load_threshold(
      double imbalance_ratio = 2.0, std::size_t min_backlog = 8,
      double interval_s = 0.25) {
    RebalancePolicy policy;
    policy.kind = Kind::kLoadThreshold;
    policy.imbalance_ratio = imbalance_ratio;
    policy.min_backlog = min_backlog;
    policy.interval_s = interval_s;
    return policy;
  }
  [[nodiscard]] static RebalancePolicy class_mix_drift(
      std::size_t min_run = 4, double interval_s = 0.25) {
    RebalancePolicy policy;
    policy.kind = Kind::kClassMixDrift;
    policy.min_run = min_run;
    policy.interval_s = interval_s;
    return policy;
  }
};

// One point of a shard's occupancy time series, recorded at each rebalance
// tick after that tick's migrations/steals were applied.
struct ShardOccupancySample {
  double time = 0.0;
  std::size_t pending = 0;  // patches queued on the shard
  std::size_t streams = 0;  // streams currently routed to the shard
};

class InvokerPool {
 public:
  using InvokeFn = SloAwareInvoker::InvokeFn;
  // Shard-aware variant: receives the index of the shard that formed the
  // batch, so the caller can route it to that shard's capacity pool.
  using ShardInvokeFn = std::function<void(int shard, Batch&&)>;
  // Called once per shard, just before the shard is constructed, with the
  // shard's index, policy key, and the StreamConfig whose registration
  // created it (a default StreamConfig for kSingle's eager shard).  Mutate
  // `config` to wire per-shard capacity: stamp InvokerConfig::pool_headroom
  // after defining a CapacityPool on the platform.
  using ShardSetupFn = std::function<void(
      int shard, const std::string& key, const StreamConfig& first_stream,
      InvokerConfig& config)>;
  // Notification that the rebalancer moved a registered stream between
  // shards, so the owner (TangramSystem) can restamp its per-stream routing
  // telemetry.  Runs after the stream's pending patches were re-admitted.
  using MigrateFn = std::function<void(StreamId stream, int from, int to)>;

  // `estimator` must outlive the pool; all shards share it.  Each shard gets
  // its own StitchSolver copy (stateless) and its own canvas session.
  InvokerPool(sim::Simulator& simulator, StitchSolver solver,
              const LatencyEstimator& estimator, InvokerConfig config,
              ShardPolicy policy, ShardInvokeFn invoke,
              ShardSetupFn shard_setup = nullptr,
              RebalancePolicy rebalance = RebalancePolicy{},
              MigrateFn on_migrate = nullptr);

  // Admission router: resolve the shard for a stream registering with the
  // given config, creating the shard on first sight of its key.  Returns the
  // shard index the caller stamps on the stream (and records it, so
  // submit() routes by stream id from then on).
  [[nodiscard]] int route(StreamId stream, const StreamConfig& config);

  // Feed a patch from a routed stream; the pool resolves the stream's
  // CURRENT shard (migrations may have moved it since route()) and arms the
  // rebalance timer when a policy is active.  Throws std::out_of_range for
  // a stream that was never routed or was deregistered.
  void submit(StreamId stream, Patch patch);

  // Current shard of a routed stream (throws like submit()).
  [[nodiscard]] int shard_of(StreamId stream) const;

  // Drop a stream from the router: its pending patches are discarded (the
  // camera is gone), later submit() calls throw, and in-flight batches are
  // unaffected.  The stream id is never reused.
  void deregister(StreamId stream);

  // Feed a patch to the shard previously returned by route().  Legacy
  // shard-addressed entry; bypasses the rebalancer's stream routing table.
  void on_patch(int shard, Patch patch);

  // Force-invoke pending work on every shard, in shard-index order (creation
  // order, so multi-shard flushes are deterministic).
  void flush();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const SloAwareInvoker& shard(std::size_t index) const {
    return *shards_.at(index);
  }
  [[nodiscard]] const std::string& shard_key(std::size_t index) const {
    return keys_.at(index);
  }
  [[nodiscard]] const ShardPolicy& policy() const { return policy_; }
  [[nodiscard]] const RebalancePolicy& rebalance_policy() const {
    return rebalance_;
  }
  [[nodiscard]] std::size_t pending_patches() const;

  // --- rebalancing telemetry -------------------------------------------------
  [[nodiscard]] std::uint64_t rebalance_ticks() const {
    return rebalance_ticks_;
  }
  [[nodiscard]] std::size_t migrations() const { return migrations_; }
  // Per-shard occupancy time series (index-parallel to shards; one sample
  // per rebalance tick).  Empty unless a policy was active.
  [[nodiscard]] const std::vector<std::vector<ShardOccupancySample>>&
  shard_occupancy() const {
    return occupancy_;
  }

  // Telemetry merged across every shard (the single-invoker view the
  // harness and benches report).  Sums EVERY per-shard counter, including
  // the adaptivity counters (migrations / steals / steal_bytes) and
  // saturated_dispatches — never a shard-0-only view.
  [[nodiscard]] InvokerStats aggregate_stats() const;

 private:
  [[nodiscard]] std::string key_for(StreamId stream,
                                    const StreamConfig& config) const;
  // Find-or-create; `first_stream` is handed to the shard-setup hook when
  // the key is new.
  [[nodiscard]] int shard_for_key(const std::string& key,
                                  const StreamConfig& first_stream);

  // --- rebalancing layer -----------------------------------------------------
  void maybe_arm_rebalancer();  // no-op unless a policy is active
  void rebalance_tick();
  bool rebalance_by_load();   // kLoadThreshold; true if a stream migrated
  bool rebalance_by_drift();  // kClassMixDrift; true if a stream migrated
  bool run_steals();          // StealPolicy; true if any patch moved
  void migrate_stream(StreamId stream, int to);

  sim::Simulator& sim_;
  StitchSolver solver_;
  const LatencyEstimator& estimator_;
  InvokerConfig config_;
  ShardPolicy policy_;
  RebalancePolicy rebalance_;
  ShardInvokeFn invoke_;
  ShardSetupFn shard_setup_;
  MigrateFn on_migrate_;

  std::vector<std::string> keys_;  // parallel to shards_
  std::vector<std::unique_ptr<SloAwareInvoker>> shards_;
  std::vector<std::size_t> shard_streams_;  // routed streams per shard
  std::vector<std::vector<ShardOccupancySample>> occupancy_;

  // Routing table, indexed by StreamId (-1 = never routed / deregistered).
  std::vector<int> stream_shard_;
  // kClassMixDrift per-stream run tracking: the SLO class of the stream's
  // latest patch and how many consecutive patches carried it.
  struct StreamDrift {
    double last_slo = 0.0;
    std::size_t run = 0;
  };
  std::vector<StreamDrift> drift_;

  sim::EventHandle rebalance_timer_;
  std::uint64_t rebalance_ticks_ = 0;
  std::size_t migrations_ = 0;
};

}  // namespace tangram::core
