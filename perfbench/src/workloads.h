// The benchmark's workloads.  Each one has
//  * a set-up step (traces, profiled estimators) that the benchmark times,
//  * an untraced body that calls the library's own runners
//    (experiments::build_trace, run_end_to_end, run_multistream), and
//  * a traced replica of that body, built from the same public calls with a
//    span around each, whose simulated outputs must equal the body's.
//
// Simulated time is an open loop: every camera frame is a scheduled event
// at its capture time plus the on-edge latency, whatever the backlog, so the
// generator is never late.  Host time is a batch job over a fixed input.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "serverless/platform.h"

namespace perfbench {

// The seed whose inputs reproduce the repo's own bench numbers (the
// catalog scenes' raster noise and the harness's default platform seed).
inline constexpr std::uint64_t kDefaultSeed = 7;

// Simulated outputs of one body run, summed over the body's legs.  Equal
// bit for bit across repeats and between the untraced run and its traced
// replica.
struct SimOutcome {
  std::uint64_t sent = 0;       // patches emitted by the cameras
  std::uint64_t completed = 0;  // patches with an inference result
  std::uint64_t late = 0;       // completed after their deadline
  double tight_slo_s = 0.0;     // tightest SLO class in the workload
  std::uint64_t tight_sent = 0;
  std::uint64_t tight_completed = 0;
  std::uint64_t tight_late = 0;
  double makespan_s = 0.0;
  double total_cost = 0.0;  // pre-warm cost included
  double prewarm_cost = 0.0;
  std::uint64_t invocations = 0;
  std::uint64_t events = 0;  // simulator events; 0 where the runner hides it
  std::uint64_t patch_bytes = 0;
  std::uint64_t full_frame_bytes = 0;
  double ap50 = 0.0;
  std::vector<double> e2e;  // capture -> result per completed patch, sorted

  [[nodiscard]] std::uint64_t failed() const { return sent - completed; }
  [[nodiscard]] std::uint64_t missed() const { return late + failed(); }
  [[nodiscard]] std::uint64_t ontime() const { return completed - late; }
  bool operator==(const SimOutcome&) const = default;
};

// One traced leg's invocation stream, for the standalone platform replay.
struct LegCapture {
  tangram::serverless::PlatformConfig platform;
  tangram::serverless::LatencyModelParams latency;
  std::uint64_t seed = 0;
  // Capacity pools in definition order.
  std::vector<tangram::serverless::CapacityPoolConfig> pools;
  std::vector<tangram::serverless::InvocationRecord> records;  // ascending id
};

// Everything a traced body run measures besides host time (which the
// tracer holds).
struct TracedRun {
  SimOutcome outcome;
  // Edge replica (zero when the run reused the body's traces).
  std::uint64_t frames = 0;
  std::uint64_t rois = 0;
  std::uint64_t edge_patches = 0;
  std::uint64_t edge_patch_bytes = 0;
  double analysis_mpx = 0.0;
  // Invoker and stitcher.
  std::uint64_t batches = 0;
  std::uint64_t batch_patches = 0;
  std::uint64_t batch_canvases = 0;
  double canvas_fill_sum = 0.0;  // summed per-canvas used-area fraction
  std::uint64_t canvases = 0;
  std::uint64_t forced_flushes = 0;
  std::uint64_t saturated_dispatches = 0;
  std::uint64_t events = 0;  // simulator events, every leg
  // Platform.
  std::uint64_t cold_starts = 0;
  std::uint64_t prewarm_boots = 0;
  std::vector<double> backlog_depths;  // sorted, every enqueue, all pools
  double busy_s = 0.0;                 // billed function seconds
  double slot_s = 0.0;                 // fleet slots x makespan
  // Uplinks.
  double link_busy_s = 0.0;
  double link_s = 0.0;  // links x makespan
  // Stage decomposition of every completed patch (sorted per stage) and the
  // stage in which each late patch's deadline passed.
  std::array<std::vector<double>, kStageCount> stages;
  std::array<std::uint64_t, kStageCount> misses_by_stage{};
  double generator_lateness_s = 0.0;  // max(emit time - due time)
  std::vector<LegCapture> legs;
  // Correctness-gate findings (empty when every check held).
  std::vector<std::string> failures;
};

struct ReplayResult {
  double seconds = 0.0;
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One line naming the input size, for the host-throughput figures.
  [[nodiscard]] virtual std::string input_size() const = 0;
  // Build traces and profiled estimators; returns the seconds that work
  // took (set-up bookkeeping outside it, such as the city AP, is untimed).
  virtual double setup() = 0;
  // The timed body, through the library's runners.
  [[nodiscard]] virtual SimOutcome run_body() = 0;
  // The untraced work the traced run replicates: the body plus, where the
  // body does not build traces itself, the trace build.
  [[nodiscard]] virtual SimOutcome run_untraced_counterpart() = 0;
  // The traced replica.  With replicate_edge the edge pipeline is re-run
  // span by span and checked against build_trace; otherwise the traced legs
  // reuse the traces the set-up or the last body built.
  [[nodiscard]] virtual TracedRun run_traced(Tracer& tracer,
                                             bool replicate_edge) = 0;
};

// Names accepted by make_workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();
// Throws std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

// Replays one leg's recorded invocation stream (submit time, request, pool)
// into a standalone FunctionPlatform and checks it reproduces the records.
[[nodiscard]] ReplayResult replay_leg(const LegCapture& leg);

}  // namespace perfbench
