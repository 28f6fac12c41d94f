// perfbench: one workload per invocation, end-to-end metrics with tracing
// off (--trace 0) or per-layer metrics from a traced replica (--trace 1).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <hex>] [--trace-file <path>]
//
// The last line of standard output is the result object; every line before
// it is for people.  Any correctness-gate failure exits 1 with no result.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/parallel_runner.h"
#include "metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-up repeats until both limits are met; setup_s is their median.
constexpr std::size_t kMinSetupRepeats = 3;
constexpr double kMinSetupSeconds = 1.0;
constexpr std::size_t kMinBodyRepeats = 3;
constexpr std::size_t kMinTracedRepeats = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string trace_file;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median_of(const std::vector<double>& v) { return quartiles(v).median; }

// One named metric of the result object.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class GateError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw GateError(what);
}

std::string meta_json(const Options& o) {
  std::string m = "{\"workload\":" + json_string(o.workload);
  m += ",\"seed\":" + std::to_string(o.seed);
  m += ",\"trace\":" + std::string(o.trace ? "true" : "false");
  m += ",\"seconds\":" + fmt_double(o.seconds);
  m += ",\"jobs\":1";
  m += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
#if defined(__clang__)
  m += ",\"compiler\":" +
       json_string(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  m += ",\"compiler\":" + json_string(std::string("gcc ") + __VERSION__);
#else
  m += ",\"compiler\":\"unknown\"";
#endif
  m += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  m += ",\"commit\":" + json_string(o.commit);
  m += ",\"source_digest\":" + json_string(o.source_digest) + "}";
  return m;
}

void print_host(const std::string& name, const std::vector<double>& values,
                const std::string& unit) {
  const Quartiles q = quartiles(values);
  std::printf("  %-28s median %.6g %s  [q1 %.6g, q3 %.6g]  n=%zu  runs:",
              name.c_str(), q.median, unit.c_str(), q.q1, q.q3,
              values.size());
  for (const double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

void print_result(const SimOutcome& outcome,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\":true,\"attempted\":" +
                     std::to_string(outcome.sent) +
                     ",\"failed\":" + std::to_string(outcome.failed()) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ',';
    line += json_string(metrics[i].name) + ":{\"value\":" +
            fmt_double(metrics[i].value) +
            ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void check_traced(const TracedRun& traced, const SimOutcome& untraced) {
  for (const auto& f : traced.failures) require(false, f);
  require(traced.outcome == untraced,
          "the traced replica's simulated outputs (completions, misses, cost, "
          "invocations, events, latencies) differ from the untraced run's");
  require(traced.generator_lateness_s == 0.0,
          "an open-loop frame was emitted after its due time");
}

double check_replays(const TracedRun& traced) {
  double seconds = 0.0;
  for (const LegCapture& leg : traced.legs) {
    const ReplayResult replay = replay_leg(leg);
    for (const auto& f : replay.failures) require(false, f);
    seconds += replay.seconds;
  }
  return seconds;
}

// --- --trace 0: end-to-end metrics -------------------------------------------

void report_end_to_end(Workload& w, const Options& o,
                       const std::vector<double>& setup_s) {
  std::vector<double> body_s;
  std::vector<double> patches_per_s;
  SimOutcome reference;
  const double start = now_s();
  while (body_s.size() < kMinBodyRepeats || now_s() - start < o.seconds) {
    const double t0 = now_s();
    SimOutcome out = w.run_body();
    const double elapsed = now_s() - t0;
    if (body_s.empty())
      reference = std::move(out);
    else
      require(out == reference,
              "exact repeat: simulated outputs of repeat " +
                  std::to_string(body_s.size()) + " differ from repeat 0");
    body_s.push_back(elapsed);
    patches_per_s.push_back(static_cast<double>(reference.completed) /
                            elapsed);
  }
  const double rss_mb =
      static_cast<double>(tangram::experiments::peak_rss_kb()) / 1024.0;

  // Correctness gate, untimed: the traced replica (no spans kept) must
  // reproduce the body, conserve patches, keep every patch's timestamps in
  // order, reconcile cost, and its invocation stream must replay exactly.
  Tracer tracer(0);
  const TracedRun traced = w.run_traced(tracer, /*replicate_edge=*/false);
  check_traced(traced, reference);
  (void)check_replays(traced);

  const SimOutcome& r = reference;
  require(r.sent > 0 && r.ontime() > 0 && r.full_frame_bytes > 0 &&
              r.e2e.size() >= 1000,
          "workload too small to report every metric");
  const auto sent = static_cast<double>(r.sent);
  const auto tight_missed = r.tight_late + (r.tight_sent - r.tight_completed);
  const std::vector<Metric> metrics = {
      {"setup_s", median_of(setup_s), "s"},
      {"patches_per_s", median_of(patches_per_s), "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"slo_miss_rate", static_cast<double>(r.missed()) / sent, "ratio"},
      {"tight_miss_rate",
       static_cast<double>(tight_missed) / static_cast<double>(r.tight_sent),
       "ratio"},
      {"e2e_p50_s", quantile_sorted(r.e2e, 0.50), "s"},
      {"e2e_p99_s", quantile_sorted(r.e2e, 0.99), "s"},
      {"goodput_per_sim_s", static_cast<double>(r.ontime()) / r.makespan_s,
       "1/s"},
      {"usd_per_1k_ontime",
       r.total_cost / static_cast<double>(r.ontime()) * 1000.0, "usd"},
      {"uplink_bytes_ratio",
       static_cast<double>(r.patch_bytes) /
           static_cast<double>(r.full_frame_bytes),
       "ratio"},
      {"ap50", r.ap50, "ratio"},
  };

  std::printf("host metrics (this machine; compare only across runs with "
              "the same meta):\n");
  print_host("setup_s", setup_s, "s");
  print_host("body_s", body_s, "s");
  print_host("patches_per_s", patches_per_s, "1/s");
  std::printf("  %-28s %.6g MB (VmHWM after the timed runs)\n", "peak_rss_mb",
              rss_mb);
  std::printf("sim metrics (identical on every repeat of this seed):\n");
  std::printf("  attempted %llu patches, completed %llu, failed %llu "
              "(failed_ratio %.6g), late %llu, tight class %.6g s: %llu "
              "sent / %llu late\n",
              static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.completed),
              static_cast<unsigned long long>(r.failed()),
              static_cast<double>(r.failed()) / sent,
              static_cast<unsigned long long>(r.late), r.tight_slo_s,
              static_cast<unsigned long long>(r.tight_sent),
              static_cast<unsigned long long>(r.tight_late));
  std::printf("  e2e latency over %zu completed patches (no reservoir); the "
              "highest percentile with >= 10 samples beyond it is p%g = "
              "%.6g s\n",
              r.e2e.size(), tail_percentile(r.e2e.size()),
              quantile_sorted(r.e2e, tail_percentile(r.e2e.size()) / 100.0));
  std::printf("  invocations %llu, cost $%.6g (pre-warm $%.6g), makespan "
              "%.6g s (summed over legs), events %s\n",
              static_cast<unsigned long long>(r.invocations), r.total_cost,
              r.prewarm_cost, r.makespan_s,
              r.events ? std::to_string(r.events).c_str()
                       : "not reported by run_end_to_end");
  std::printf("  generator lateness %.6g s (open loop: every frame is a "
              "scheduled event at its due time)\n",
              traced.generator_lateness_s);
  std::printf("correctness gate: passed (exact repeat x%zu, traced replica "
              "== library runner, conservation, time order, cost, platform "
              "replay)\n",
              body_s.size());
  for (const Metric& m : metrics)
    std::printf("%-20s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  print_result(reference, metrics);
}

// --- --trace 1: per-layer metrics --------------------------------------------

struct TracedSample {
  double body_s = 0.0;    // traced replica, replay excluded
  double replay_s = 0.0;  // standalone platform replay, every leg
  std::map<std::string, Tracer::Totals, std::less<>> totals;  // by span name

  // Zeros for a span the workload never opens.
  [[nodiscard]] Tracer::Totals get(std::string_view name) const {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  }
};

void report_layers(Workload& w, const Options& o,
                   const std::vector<double>& setup_s) {
  std::vector<double> untraced_s;
  std::vector<TracedSample> samples;
  SimOutcome reference;
  TracedRun last;
  std::unique_ptr<Tracer> last_tracer;
  const double start = now_s();
  while (untraced_s.size() < kMinTracedRepeats ||
         samples.size() < kMinTracedRepeats || now_s() - start < o.seconds) {
    double t0 = now_s();
    SimOutcome out = w.run_untraced_counterpart();
    untraced_s.push_back(now_s() - t0);
    if (untraced_s.size() == 1)
      reference = std::move(out);
    else
      require(out == reference, "exact repeat: untraced outputs differ");

    auto tracer = std::make_unique<Tracer>();
    t0 = now_s();
    TracedRun traced = w.run_traced(*tracer, /*replicate_edge=*/true);
    TracedSample sample;
    sample.body_s = now_s() - t0;
    require(tracer->open_spans() == 0, "unbalanced spans");
    check_traced(traced, reference);
    sample.replay_s = check_replays(traced);
    for (const auto& name : tracer->names())
      sample.totals[name] = tracer->totals(name);
    samples.push_back(std::move(sample));
    last = std::move(traced);
    last_tracer = std::move(tracer);
  }

  // Host figures: the median over traced repeats.
  const auto host = [&](auto&& of) {
    std::vector<double> v;
    for (const TracedSample& s : samples) v.push_back(of(s));
    return median_of(v);
  };
  const auto self = [](const TracedSample& s, const char* name) {
    return s.get(name).self_s;
  };
  const auto self_s = [&](const char* name) {
    return host([&](const TracedSample& s) { return self(s, name); });
  };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto traced_total = [&](const TracedSample& s) {
    double sum = 0.0;
    for (const auto& [name, totals] : s.totals) sum += totals.self_s;
    return sum;
  };
  const auto share = [&](std::initializer_list<const char*> names) {
    return host([&](const TracedSample& s) {
      double sum = 0.0;
      for (const char* n : names) sum += self(s, n);
      return sum / traced_total(s);
    });
  };

  const TracedRun& r = last;
  const double batches = n(std::max<std::uint64_t>(r.batches, 1));
  const double extract_s = self_s("vision.extract");
  const double replay_s = host([](auto& s) { return s.replay_s; });
  const auto admits = samples.back().get("core.admit").count;
  const double overhead = host([](auto& s) { return s.body_s; }) /
                              median_of(untraced_s) -
                          1.0;

  std::vector<Metric> metrics = {
      {"video.scene_s", self_s("video.scene"), "s"},
      {"video.render_s", self_s("video.render"), "s"},
      {"vision.extract_s", extract_s, "s"},
      {"vision.extract_mpx_per_s", r.analysis_mpx / extract_s, "Mpx/s"},
      {"core.partition_s", self_s("core.partition"), "s"},
      {"video.codec_s", self_s("video.codec"), "s"},
      {"edge.frames", n(r.frames), "count"},
      {"edge.rois", n(r.rois), "count"},
      {"edge.patches", n(r.edge_patches), "count"},
      {"edge.patch_bytes", n(r.edge_patch_bytes), "bytes"},
      {"core.admit_ns_per_patch",
       self_s("core.admit") / n(std::max<std::uint64_t>(admits, 1)) * 1e9,
       "ns"},
      {"core.batches", n(r.batches), "count"},
      {"core.patches_per_batch", n(r.batch_patches) / batches, "count"},
      {"core.canvases_per_batch", n(r.batch_canvases) / batches, "count"},
      {"core.canvas_fill",
       r.canvases ? r.canvas_fill_sum / n(r.canvases) : 0.0, "ratio"},
      {"core.forced_flush_ratio", n(r.forced_flushes) / batches, "ratio"},
      {"core.saturated_dispatches", n(r.saturated_dispatches), "count"},
      {"sim.dispatch_s", self_s("sim.run"), "s"},
      {"sim.events", n(r.events), "count"},
      {"sim.events_per_s",
       host([&](const TracedSample& s) {
         return n(r.events) / s.get("sim.run").total_s;
       }),
       "1/s"},
      {"serverless.replay_s", replay_s, "s"},
      {"serverless.replay_us_per_invocation",
       replay_s / n(r.outcome.invocations) * 1e6, "us"},
      {"serverless.invocations", n(r.outcome.invocations), "count"},
      {"serverless.cold_starts", n(r.cold_starts), "count"},
      {"serverless.prewarm_boots", n(r.prewarm_boots), "count"},
      {"serverless.backlog_p50", quantile_sorted(r.backlog_depths, 0.50),
       "count"},
      {"serverless.backlog_p99", quantile_sorted(r.backlog_depths, 0.99),
       "count"},
      {"serverless.util", r.slot_s > 0 ? r.busy_s / r.slot_s : 0.0, "ratio"},
  };
  for (std::size_t k = 1; k < kStageCount; ++k) {
    const std::string stage = stage_name(static_cast<Stage>(k));
    metrics.push_back({"stage." + stage + "_p50_s",
                       quantile_sorted(r.stages[k], 0.50), "s"});
    metrics.push_back({"stage." + stage + "_p99_s",
                       quantile_sorted(r.stages[k], 0.99), "s"});
  }
  for (std::size_t k = 0; k < kStageCount; ++k)
    metrics.push_back({std::string("miss.") + stage_name(static_cast<Stage>(k)),
                       static_cast<double>(r.misses_by_stage[k]), "count"});
  metrics.push_back({"net.link_busy_frac",
                     r.link_s > 0 ? r.link_busy_s / r.link_s : 0.0, "ratio"});
  metrics.push_back({"share.video",
                     share({"video.scene", "video.render", "video.codec"}),
                     "ratio"});
  metrics.push_back({"share.vision", share({"vision.extract"}), "ratio"});
  metrics.push_back({"share.core",
                     share({"core.partition", "core.admit", "core.construct",
                            "core.flush"}),
                     "ratio"});
  metrics.push_back({"share.net", share({"net.send"}), "ratio"});
  metrics.push_back({"share.sim", share({"sim.run"}), "ratio"});
  metrics.push_back({"share.harness",
                     share({"edge.build_trace", "bench.leg", "bench.emit",
                            "bench.result"}),
                     "ratio"});
  metrics.push_back(
      {"share.experiments", share({"experiments.ap50"}), "ratio"});
  metrics.push_back({"serverless.replay_frac", replay_s / median_of(untraced_s),
                     "ratio"});
  metrics.push_back({"trace.overhead_frac", overhead, "ratio"});

  std::vector<double> traced_s, replays;
  for (const auto& s : samples) {
    traced_s.push_back(s.body_s);
    replays.push_back(s.replay_s);
  }
  std::printf("host timings (this machine):\n");
  print_host("setup_s", setup_s, "s");
  print_host("untraced_s", untraced_s, "s");
  print_host("traced_s", traced_s, "s");
  print_host("replay_s", replays, "s");
  std::printf("spans: %zu stored, %llu beyond the store (totals stay exact)\n",
              last_tracer->stored_spans(),
              static_cast<unsigned long long>(last_tracer->dropped_spans()));
  std::printf("self time by span (median over %zu traced runs):\n",
              samples.size());
  for (const auto& [name, totals] : samples.back().totals) {
    std::printf("  %-20s self %.6g s  total %.6g s  spans %llu\n",
                name.c_str(), host([&](auto& s) { return s.get(name).self_s; }),
                host([&](auto& s) { return s.get(name).total_s; }),
                static_cast<unsigned long long>(totals.count));
  }
  std::printf("stage samples: %zu completed patches; highest percentile with "
              ">= 10 samples beyond it: p%g\n",
              r.stages[0].size(), tail_percentile(r.stages[0].size()));
  std::printf("correctness gate: passed (edge replica == build_trace, traced "
              "== untraced x%zu, conservation, time order, cost, platform "
              "replay)\n",
              samples.size());

  if (!o.trace_file.empty()) {
    std::ofstream out(o.trace_file);
    last_tracer->write_chrome_json(out, meta_json(o));
    std::printf("chrome trace: %s\n", o.trace_file.c_str());
  }
  for (const Metric& m : metrics)
    std::printf("%-38s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  print_result(reference, metrics);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--source-digest <hex>] "
               "[--trace-file <path>]\nworkloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") o.workload = value;
      else if (key == "--seed") o.seed = std::stoull(value);
      else if (key == "--seconds") o.seconds = std::stod(value);
      else if (key == "--trace") o.trace = std::stoi(value) != 0;
      else if (key == "--commit") o.commit = value;
      else if (key == "--source-digest") o.source_digest = value;
      else if (key == "--trace-file") o.trace_file = value;
      else return usage();
    }
    if (argc % 2 == 0 || o.workload.empty() || !(o.seconds > 0)) return usage();
  } catch (const std::exception&) {
    return usage();
  }

  try {
    auto workload = make_workload(o.workload, o.seed);
    std::printf("# meta %s\n", meta_json(o).c_str());
    std::printf("# input: %s\n", workload->input_size().c_str());
    std::vector<double> setup_s;
    double setup_total = 0.0;
    while (setup_s.size() < kMinSetupRepeats ||
           setup_total < kMinSetupSeconds) {
      setup_s.push_back(workload->setup());
      setup_total += setup_s.back();
    }
    if (o.trace)
      report_layers(*workload, o, setup_s);
    else
      report_end_to_end(*workload, o, setup_s);
  } catch (const GateError& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: CORRECTNESS GATE FAILED: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
