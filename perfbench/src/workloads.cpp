#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/partitioner.h"
#include "core/stitcher.h"
#include "core/system.h"
#include "experiments/accuracy.h"
#include "experiments/harness.h"
#include "experiments/trace.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "video/scene_catalog.h"
#include "vision/extractors.h"

using namespace tangram;

namespace perfbench {

namespace {

using experiments::FrameRecord;
using experiments::SceneTrace;
using serverless::InvocationRecord;

// SplitMix64 finalizer: spreads one seed into independent leg seeds.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Leg 0 runs on the seed itself, so --seed 7 reproduces the repo's benches.
std::uint64_t leg_seed(std::uint64_t seed, std::size_t leg) {
  return leg == 0 ? seed : mix64(seed ^ (0xD6E8FEB86659FD93ULL * leg));
}

// The seed drives every scene's sensor noise (and so every pixel, RoI and
// patch); object trajectories stay the catalog's, which keeps each
// workload's size and load regime across seeds.
experiments::TraceConfig trace_config(std::uint64_t seed) {
  experiments::TraceConfig config;
  config.raster.seed ^= (seed - kDefaultSeed) * 0xD1B54A32D192ED03ULL;
  return config;
}

double seconds_since(double start) {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         start;
}

double now_s() { return seconds_since(0.0); }

// Interned span names, one set per tracer.
struct Spans {
  explicit Spans(Tracer& t)
      : build_trace(t.name_id("edge.build_trace")),
        scene(t.name_id("video.scene")),
        render(t.name_id("video.render")),
        extract(t.name_id("vision.extract")),
        partition(t.name_id("core.partition")),
        codec(t.name_id("video.codec")),
        leg(t.name_id("bench.leg")),
        construct(t.name_id("core.construct")),
        sim_run(t.name_id("sim.run")),
        emit(t.name_id("bench.emit")),
        send(t.name_id("net.send")),
        admit(t.name_id("core.admit")),
        flush(t.name_id("core.flush")),
        result(t.name_id("bench.result")) {}
  int build_trace, scene, render, extract, partition, codec;
  int leg, construct, sim_run, emit, send, admit, flush, result;
};

// --- edge replica ------------------------------------------------------------

bool same_rects(const std::vector<common::Rect>& a,
                const std::vector<common::Rect>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].x != b[i].x || a[i].y != b[i].y || a[i].width != b[i].width ||
        a[i].height != b[i].height)
      return false;
  return true;
}

bool same_frame(const FrameRecord& a, const FrameRecord& b) {
  if (a.objects.size() != b.objects.size()) return false;
  for (std::size_t i = 0; i < a.objects.size(); ++i)
    if (a.objects[i].id != b.objects[i].id ||
        !same_rects({a.objects[i].box}, {b.objects[i].box}))
      return false;
  return a.frame_index == b.frame_index && a.capture_time == b.capture_time &&
         same_rects(a.rois, b.rois) && same_rects(a.patches, b.patches) &&
         a.patch_bytes == b.patch_bytes &&
         a.elf_patch_bytes == b.elf_patch_bytes &&
         a.full_frame_bytes == b.full_frame_bytes &&
         a.masked_frame_bytes == b.masked_frame_bytes &&
         a.roi_area_fraction == b.roi_area_fraction &&
         a.truth_area_fraction == b.truth_area_fraction &&
         a.patch_area_fraction == b.patch_area_fraction;
}

// "" when the replica equals build_trace's trace frame for frame.
std::string compare_traces(const SceneTrace& replica,
                           const SceneTrace& reference) {
  const std::string scene = "scene " + std::to_string(reference.spec.index);
  if (replica.frames.size() != reference.frames.size())
    return scene + ": edge replica has " +
           std::to_string(replica.frames.size()) + " frames, build_trace " +
           std::to_string(reference.frames.size());
  for (std::size_t f = 0; f < replica.frames.size(); ++f)
    if (!same_frame(replica.frames[f], reference.frames[f]))
      return scene + ": edge replica differs from build_trace at frame " +
             std::to_string(f);
  return "";
}

// build_trace's loop, one span per public call.
SceneTrace replicate_trace(const video::SceneSpec& spec,
                           const experiments::TraceConfig& config,
                           Tracer& tracer, const Spans& spans,
                           TracedRun& run) {
  ScopedSpan whole(tracer, spans.build_trace,
                   static_cast<std::uint64_t>(spec.index));
  SceneTrace trace;
  trace.spec = spec;
  trace.config = config;
  trace.frames.reserve(static_cast<std::size_t>(spec.total_frames));

  video::SyntheticScene scene(spec);
  video::RasterConfig raster_config = config.raster;
  raster_config.seed ^= spec.seed * 0x9E3779B97F4A7C15ULL;
  video::FrameRasterizer rasterizer(spec.frame, raster_config);
  auto extractor = vision::make_extractor(config.extractor,
                                          raster_config.analysis, spec.seed);
  const bool needs_pixels =
      config.extractor == "GMM" || config.extractor == "OpticalFlow";
  const double frame_mpx =
      static_cast<double>(raster_config.analysis.area()) / 1.0e6;

  for (int f = 0; f < spec.total_frames; ++f) {
    const auto frame_id = static_cast<std::uint64_t>(f);
    video::FrameTruth truth;
    {
      ScopedSpan span(tracer, spans.scene, frame_id);
      truth = scene.next_frame();
    }
    vision::FrameInput input;
    input.frame = spec.frame;
    input.truth = &truth;
    video::Image frame_pixels;
    if (needs_pixels) {
      ScopedSpan span(tracer, spans.render, frame_id);
      frame_pixels = rasterizer.render(truth);
      input.analysis_frame = &frame_pixels;
      input.rasterizer = &rasterizer;
      run.analysis_mpx += frame_mpx;
    }

    FrameRecord rec;
    rec.frame_index = f;
    rec.capture_time = truth.timestamp;
    {
      ScopedSpan span(tracer, spans.extract, frame_id);
      rec.rois = extractor->extract(input);
    }
    rec.truth_area_fraction = truth.roi_proportion(spec.frame);
    {
      ScopedSpan span(tracer, spans.partition, frame_id);
      const auto raw_patches =
          core::partition_patches(spec.frame, rec.rois, config.partition);
      for (const auto& p : raw_patches)
        for (const auto& tile : core::split_oversized(p, config.canvas))
          rec.patches.push_back(tile);
    }
    {
      ScopedSpan span(tracer, spans.codec, frame_id);
      std::int64_t roi_area = 0;
      double roi_perimeter = 0.0;
      for (const auto& r : rec.rois) {
        roi_area += r.area();
        roi_perimeter += 2.0 * (r.width + r.height);
      }
      std::int64_t patch_area = 0;
      for (const auto& p : rec.patches) {
        patch_area += p.area();
        rec.patch_bytes.push_back(config.codec.patch_bytes(p.size()));
        rec.elf_patch_bytes.push_back(config.codec.elf_patch_bytes(p.size()));
      }
      const double frame_area = static_cast<double>(spec.frame.area());
      rec.roi_area_fraction = static_cast<double>(roi_area) / frame_area;
      rec.patch_area_fraction = static_cast<double>(patch_area) / frame_area;
      rec.full_frame_bytes =
          config.codec.full_frame_bytes(spec.frame, rec.roi_area_fraction);
      rec.masked_frame_bytes = config.codec.masked_frame_bytes(
          spec.frame, rec.roi_area_fraction, roi_perimeter);
    }
    rec.objects = std::move(truth.objects);

    ++run.frames;
    run.rois += rec.rois.size();
    run.edge_patches += rec.patches.size();
    run.edge_patch_bytes += rec.total_patch_bytes();
    trace.frames.push_back(std::move(rec));
  }
  return trace;
}

// Eval-frame byte totals of one camera.
void add_bytes(const SceneTrace& trace, std::uint64_t copies,
               SimOutcome& out) {
  std::uint64_t patch = 0, full = 0;
  for (std::size_t i = 0; i < trace.eval_frame_count(); ++i) {
    patch += trace.eval_frame(i).total_patch_bytes();
    full += trace.eval_frame(i).full_frame_bytes;
  }
  out.patch_bytes += patch * copies;
  out.full_frame_bytes += full * copies;
}

std::uint64_t eval_patches(const SceneTrace& trace) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < trace.eval_frame_count(); ++i)
    n += trace.eval_frame(i).patches.size();
  return n;
}

void finish_outcome(SimOutcome& out) {
  std::sort(out.e2e.begin(), out.e2e.end());
}

// --- per-patch accounting inside a traced leg --------------------------------

// Folds each (patch, record) completion into the traced run: stage
// decomposition, miss attribution, exactly-once completion per patch id, the
// time-order gate, and the leg's unique invocation records.
class PatchSink {
 public:
  PatchSink(TracedRun& run, double edge_latency_s, double tight_slo_s)
      : run_(run), edge_latency_s_(edge_latency_s), tight_slo_s_(tight_slo_s) {}

  void on_emit(std::uint64_t id, double slo) {
    if (id != emitted_ + 1) fail("patch ids are not consecutive at emission");
    ++emitted_;
    ++run_.outcome.sent;
    if (slo == tight_slo_s_) ++run_.outcome.tight_sent;
  }

  void on_result(const core::Patch& patch, const InvocationRecord& record) {
    if (patch.id == 0 || patch.id > emitted_) {
      fail("a result arrived for a patch that was never sent");
      return;
    }
    if (done_.size() <= patch.id) done_.resize(emitted_ + 1, 0);
    if (done_[patch.id]++ != 0) fail("a patch completed more than once");

    PatchTimeline t;
    t.capture = patch.generation_time;
    t.sent = patch.generation_time + edge_latency_s_;
    t.arrival = patch.arrival_time;
    t.submit = record.submit_time;
    t.start = record.start_time;
    t.setup = record.setup_s;
    t.finish = record.finish_time;
    t.deadline = patch.deadline();
    if (!time_ordered(t)) ++order_violations_;

    SimOutcome& out = run_.outcome;
    ++out.completed;
    out.e2e.push_back(record.finish_time - patch.generation_time);
    const bool late = is_late(t);
    if (late) ++out.late;
    if (patch.slo == tight_slo_s_) {
      ++out.tight_completed;
      if (late) ++out.tight_late;
    }
    const auto durations = stage_durations(t);
    for (std::size_t k = 0; k < kStageCount; ++k)
      run_.stages[k].push_back(durations[k]);
    if (late)
      ++run_.misses_by_stage[static_cast<std::size_t>(miss_stage(t))];
    records_.emplace(record.id, record);
  }

  // Gate checks at the end of a leg; copies the records into `leg`.
  void finish(std::uint64_t invocations, double total_cost,
              double prewarm_cost, std::uint64_t stream_completed,
              LegCapture& leg) {
    std::uint64_t completed = 0;
    for (const auto d : done_) completed += d;
    if (completed != stream_completed)
      fail("patch conservation: " + std::to_string(completed) +
           " results seen, the system counted " +
           std::to_string(stream_completed));
    if (order_violations_ != 0)
      fail("time order capture <= arrival <= submit <= start <= finish "
           "broken for " +
           std::to_string(order_violations_) + " patches");
    if (records_.size() != invocations)
      fail("saw " + std::to_string(records_.size()) +
           " invocation records, the platform counted " +
           std::to_string(invocations));
    double record_cost = 0.0;
    leg.records.reserve(records_.size());
    for (auto& [id, record] : records_) {
      record_cost += record.cost;
      leg.records.push_back(record);
    }
    const double expected = record_cost + prewarm_cost;
    if (std::abs(expected - total_cost) >
        1e-9 * std::max(1.0, std::abs(total_cost)))
      fail("cost reconciliation: records " + fmt_double(record_cost) +
           " + prewarm " + fmt_double(prewarm_cost) + " != total " +
           fmt_double(total_cost));
  }

 private:
  void fail(std::string message) {
    if (run_.failures.size() < 16) run_.failures.push_back(std::move(message));
  }

  TracedRun& run_;
  double edge_latency_s_;
  double tight_slo_s_;
  std::uint64_t emitted_ = 0;
  std::vector<std::uint8_t> done_;
  std::uint64_t order_violations_ = 0;
  std::map<std::uint64_t, InvocationRecord> records_;
};

// Runs a traced leg to completion around the end-of-stream flush, then folds
// its outputs, invoker / platform / uplink telemetry and gate checks into
// `run` and hands its invocation stream to the replay.
void finish_leg(sim::Simulator& sim, core::TangramSystem& system,
                const std::vector<std::unique_ptr<net::Link>>& links,
                PatchSink& sink, LegCapture& leg, bool count_events,
                Tracer& tracer, const Spans& spans, TracedRun& run) {
  {
    ScopedSpan span(tracer, spans.sim_run, 0);
    sim.run();
  }
  {
    ScopedSpan span(tracer, spans.flush, 0);
    system.flush();
  }
  {
    ScopedSpan span(tracer, spans.sim_run, 1);
    sim.run();
  }
  const double makespan_s = sim.now();
  const serverless::FunctionPlatform& platform = system.platform();
  run.outcome.makespan_s += makespan_s;
  run.outcome.total_cost += system.total_cost();
  run.outcome.prewarm_cost += system.prewarm_cost();
  run.outcome.invocations += platform.invocations();
  if (count_events) run.outcome.events += sim.events_executed();
  run.events += sim.events_executed();

  const core::InvokerStats stats = system.pool().aggregate_stats();
  run.batches += stats.batches_invoked;
  for (const double v : stats.batch_patch_count.values())
    run.batch_patches += static_cast<std::uint64_t>(v);
  for (const double v : stats.batch_canvas_count.values())
    run.batch_canvases += static_cast<std::uint64_t>(v);
  for (const double v : stats.canvas_efficiency.values())
    run.canvas_fill_sum += v;
  run.canvases += stats.canvas_efficiency.count();
  run.forced_flushes += stats.forced_flushes;
  run.saturated_dispatches += stats.saturated_dispatches;

  run.cold_starts += platform.cold_starts();
  run.prewarm_boots += platform.prewarm_boots();
  for (const serverless::PoolTelemetry& pool : platform.pool_telemetry())
    for (const double v : pool.backlog_depth.values())
      run.backlog_depths.push_back(v);
  run.busy_s += platform.busy_seconds();
  run.slot_s += static_cast<double>(platform.fleet_size()) * makespan_s;
  for (const auto& link : links) {
    run.link_busy_s += link->transmission_time().sum();
    run.link_s += makespan_s;
  }

  std::uint64_t stream_completed = 0;
  for (const auto& s : system.streams())
    stream_completed += s.patches_completed;
  sink.finish(platform.invocations(), system.total_cost(),
              system.prewarm_cost(), stream_completed, leg);
  run.legs.push_back(std::move(leg));
}

void finish_traced(TracedRun& run) {
  finish_outcome(run.outcome);
  std::sort(run.backlog_depths.begin(), run.backlog_depths.end());
  for (auto& stage : run.stages) std::sort(stage.begin(), stage.end());
}

// --- edge_fig12 --------------------------------------------------------------

// The Fig. 12 camera set through the edge pipeline and the Tangram leg of
// run_end_to_end (shared 40 Mbps uplink, SLO 1 s), plus stitched-canvas
// AP@0.5.  One replay issues ~150 invocations, so its misses come in whole
// late batches; the leg is replayed under kLegs platform seeds to make the
// miss rate a steady figure.
class EdgeFig12 final : public Workload {
 public:
  static constexpr std::size_t kLegs = 64;

  explicit EdgeFig12(std::uint64_t seed) : trace_config_(trace_config(seed)) {
    for (const int idx : {1, 3, 5, 7})
      specs_.push_back(video::panda4k_scene(idx));
    for (std::size_t leg = 0; leg < kLegs; ++leg) {
      experiments::EndToEndConfig config;
      config.seed = leg_seed(seed, leg);
      configs_.push_back(config);
    }
  }

  std::string input_size() const override {
    int frames = 0, eval = 0;
    for (const auto& s : specs_) {
      frames += s.total_frames;
      eval += s.evaluation_frames();
    }
    return "4 cameras (PANDA4K scenes 1,3,5,7; " + std::to_string(frames) +
           " frames built, " + std::to_string(eval) +
           " streamed) x " + std::to_string(kLegs) +
           " platform seeds, shared 40 Mbps uplink, SLO 1 s";
  }

  double setup() override {
    // The scheduler side of the body: the profiled estimator each leg's
    // Tangram scheduler is built around.
    const double start = now_s();
    profiles_.clear();
    for (const auto& config : configs_)
      profiles_.push_back(
          core::TangramSystem::profile_estimator(system_config(config)));
    return seconds_since(start);
  }

  SimOutcome run_body() override {
    traces_.clear();
    for (const auto& spec : specs_)
      traces_.push_back(experiments::build_trace(spec, trace_config_));
    SimOutcome out;
    const auto cameras = camera_list(traces_);
    for (const auto& config : configs_) {
      const experiments::RunResult r = experiments::run_end_to_end(
          cameras, experiments::StrategyKind::kTangram, config);
      std::uint64_t sent = 0;
      for (const SceneTrace* t : cameras) sent += eval_patches(*t);
      out.sent += sent;
      out.completed += r.completed_items;
      out.late += r.violations;
      out.tight_sent += sent;
      out.tight_completed += r.completed_items;
      out.tight_late += r.violations;
      out.makespan_s += r.makespan_s;
      out.total_cost += r.total_cost;
      out.invocations += r.invocations;
      for (const double v : r.e2e_latency.values()) out.e2e.push_back(v);
      for (const SceneTrace* t : cameras) add_bytes(*t, 1, out);
    }
    out.tight_slo_s = configs_.front().slo_s;
    out.ap50 = mean_ap(traces_, nullptr);
    finish_outcome(out);
    return out;
  }

  SimOutcome run_untraced_counterpart() override { return run_body(); }

  TracedRun run_traced(Tracer& tracer, bool replicate_edge) override {
    const Spans spans(tracer);
    TracedRun run;
    std::vector<SceneTrace> replica;
    if (replicate_edge) {
      for (const auto& spec : specs_)
        replica.push_back(
            replicate_trace(spec, trace_config_, tracer, spans, run));
      if (traces_.size() != replica.size())
        run.failures.push_back("no build_trace reference for the replica");
      else
        for (std::size_t i = 0; i < replica.size(); ++i)
          if (auto diff = compare_traces(replica[i], traces_[i]); !diff.empty())
            run.failures.push_back(diff);
    }
    const std::vector<SceneTrace>& traces = replicate_edge ? replica : traces_;
    const auto cameras = camera_list(traces);
    for (std::size_t leg = 0; leg < configs_.size(); ++leg)
      traced_leg(cameras, configs_[leg], profiles_.at(leg), tracer, spans,
                 run);
    run.outcome.tight_slo_s = configs_.front().slo_s;
    run.outcome.ap50 = mean_ap(traces, &tracer);
    finish_traced(run);
    return run;
  }

 private:
  static std::vector<const SceneTrace*> camera_list(
      const std::vector<SceneTrace>& traces) {
    std::vector<const SceneTrace*> cameras;
    for (const auto& t : traces) cameras.push_back(&t);
    return cameras;
  }

  // Mean stitched-canvas AP@0.5 over the cameras, one span per camera when
  // traced.
  static double mean_ap(const std::vector<SceneTrace>& traces,
                        Tracer* tracer) {
    double sum = 0.0;
    for (const auto& t : traces) {
      std::optional<ScopedSpan> span;
      if (tracer != nullptr)
        span.emplace(*tracer, tracer->name_id("experiments.ap50"),
                     static_cast<std::uint64_t>(t.spec.index));
      sum += experiments::stitched_canvas_ap(t);
    }
    return sum / static_cast<double>(traces.size());
  }

  // run_end_to_end's Tangram scheduler as a TangramSystem: one stream on a
  // single shard, per-patch SLOs, the platform seeded like the harness's.
  static core::TangramSystem::Config system_config(
      const experiments::EndToEndConfig& config) {
    core::TangramSystem::Config sc;
    sc.canvas = config.canvas;
    sc.slack_sigma = config.slack_sigma;
    sc.heuristic = config.heuristic;
    sc.platform = config.platform;
    sc.function_latency = config.latency;
    sc.sharding = core::ShardPolicy::single();
    sc.seed = config.seed;
    return sc;
  }

  // run_end_to_end(kTangram) with a span around each call into the system.
  static void traced_leg(
      const std::vector<const SceneTrace*>& cameras,
      const experiments::EndToEndConfig& config,
      const std::shared_ptr<const core::LatencyEstimator>& profile,
      Tracer& tracer, const Spans& spans, TracedRun& run) {
    ScopedSpan leg_span(tracer, spans.leg, config.seed);
    sim::Simulator sim;
    std::vector<std::unique_ptr<net::Link>> links;
    links.push_back(std::make_unique<net::Link>(sim, config.bandwidth_mbps));
    PatchSink sink(run, config.edge_latency_s, config.slo_s);
    core::TangramSystem::Config sc = system_config(config);
    sc.profiled_estimator = profile;
    std::unique_ptr<core::TangramSystem> system;
    core::StreamId stream = 0;
    {
      ScopedSpan span(tracer, spans.construct, 0);
      system = std::make_unique<core::TangramSystem>(
          sim, std::move(sc),
          [&](const core::Patch& patch, const InvocationRecord& record) {
            ScopedSpan result(tracer, spans.result, patch.id);
            sink.on_result(patch, record);
          });
      stream = system->register_stream(core::StreamConfig{"fig12", 0.0});
    }

    std::uint64_t next_patch_id = 1;
    for (std::size_t cam = 0; cam < cameras.size(); ++cam) {
      const SceneTrace& trace = *cameras[cam];
      const double frame_interval = 1.0 / trace.spec.fps;
      const double phase = config.stagger_cameras
                               ? frame_interval * static_cast<double>(cam) /
                                     static_cast<double>(cameras.size())
                               : 0.0;
      for (std::size_t i = 0; i < trace.eval_frame_count(); ++i) {
        const FrameRecord& frame = trace.eval_frame(i);
        const double capture = phase + static_cast<double>(i) * frame_interval;
        const double due = capture + config.edge_latency_s;
        sim.schedule_at(due, [&, cam, capture, due, &frame = frame] {
          ScopedSpan emit(tracer, spans.emit,
                          static_cast<std::uint64_t>(frame.frame_index));
          run.generator_lateness_s =
              std::max(run.generator_lateness_s, sim.now() - due);
          for (std::size_t p = 0; p < frame.patches.size(); ++p) {
            core::Patch patch;
            patch.id = next_patch_id++;
            patch.camera_id = static_cast<int>(cam);
            patch.frame_index = frame.frame_index;
            patch.region = frame.patches[p];
            patch.generation_time = capture;
            patch.slo = config.slo_s;
            patch.bytes = frame.patch_bytes[p];
            sink.on_emit(patch.id, patch.slo);
            ScopedSpan send(tracer, spans.send, patch.id);
            links[0]->send(patch.bytes, [&, stream, patch] {
              ScopedSpan admit(tracer, spans.admit, patch.id);
              system->receive_patch(stream, patch);
            });
          }
        });
      }
    }
    for (const SceneTrace* t : cameras) add_bytes(*t, 1, run.outcome);
    LegCapture leg;
    leg.platform = config.platform;
    leg.latency = config.latency;
    leg.seed = config.seed;
    // run_end_to_end does not report its event count.
    finish_leg(sim, *system, links, sink, leg, /*count_events=*/false, tracer,
               spans, run);
  }

  experiments::TraceConfig trace_config_;
  std::vector<video::SceneSpec> specs_;
  std::vector<experiments::EndToEndConfig> configs_;
  std::vector<std::shared_ptr<const core::LatencyEstimator>> profiles_;
  std::vector<SceneTrace> traces_;  // built by the last run_body()
};

// --- fleets on run_multistream -----------------------------------------------

struct FleetSpec {
  std::size_t streams = 0;
  std::vector<double> slo_cycle;  // stream i gets slo_cycle[i % size]
  // Legs run one after another, each on its own platform seed.
  std::size_t legs = 1;
  // true: the seed also draws the trace's sensor noise; false: every seed
  // replays the catalog trace.
  bool seeded_trace = true;
  // Applies the workload's sharding / capacity / autoscale settings.
  std::function<void(experiments::MultiStreamConfig&, double trace_s)> shape;
  std::string describe;
};

// run_multistream's configuration -> TangramSystem::Config mapping (the
// harness keeps its copy private).
core::TangramSystem::Config system_config_of(
    const experiments::MultiStreamConfig& config) {
  core::TangramSystem::Config sc;
  sc.canvas = config.canvas;
  sc.slack_sigma = config.slack_sigma;
  sc.heuristic = config.heuristic;
  sc.platform = config.platform;
  sc.function_latency = config.latency;
  sc.sharding = config.sharding;
  sc.rebalance = config.rebalance;
  sc.pool_for_shard = config.pool_for_shard;
  sc.telemetry_reservoir = config.telemetry_reservoir;
  if (config.telemetry_reservoir > 0 && sc.platform.telemetry_reservoir == 0)
    sc.platform.telemetry_reservoir = config.telemetry_reservoir;
  sc.profiled_estimator = config.profiled_estimator;
  sc.seed = config.seed;
  return sc;
}

// Camera streams of one PANDA4K scene-5 trace through run_multistream.
class Fleet final : public Workload {
 public:
  Fleet(FleetSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)),
        seed_(seed),
        trace_config_(trace_config(spec_.seeded_trace ? seed : kDefaultSeed)) {
    for (std::size_t i = 0; i < spec_.streams; ++i)
      slos_.push_back(spec_.slo_cycle[i % spec_.slo_cycle.size()]);
    tight_slo_ = *std::min_element(slos_.begin(), slos_.end());
  }

  std::string input_size() const override {
    return std::to_string(spec_.streams) +
           " streams of one PANDA4K scene-5 trace (133 frames built, 33 "
           "streamed per stream) x " +
           std::to_string(spec_.legs) + " platform seeds, " + spec_.describe;
  }

  double setup() override {
    const double start = now_s();
    trace_ = experiments::build_trace(video::panda4k_scene(5), trace_config_);
    const double trace_s =
        static_cast<double>(trace_.eval_frame_count()) / trace_.spec.fps;
    configs_.clear();
    for (std::size_t leg = 0; leg < spec_.legs; ++leg) {
      experiments::MultiStreamConfig config;
      config.per_stream_slo = slos_;
      config.seed = leg_seed(seed_, leg);
      spec_.shape(config, trace_s);
      config.profiled_estimator = experiments::profile_estimator(config);
      configs_.push_back(std::move(config));
    }
    const double seconds = seconds_since(start);
    ap50_ = experiments::stitched_canvas_ap(trace_);
    return seconds;
  }

  SimOutcome run_body() override {
    const std::vector<const SceneTrace*> cameras(spec_.streams, &trace_);
    SimOutcome out;
    for (const auto& config : configs_) {
      const experiments::MultiStreamResult r =
          experiments::run_multistream(cameras, config);
      out.sent += r.patches_sent;
      out.completed += r.patches_completed;
      out.late += r.slo_violations;
      for (const core::StreamStats& s : r.streams) {
        for (const double v : s.e2e_latency.values()) out.e2e.push_back(v);
        if (s.slo_s != tight_slo_) continue;
        out.tight_sent += s.patches_received;
        out.tight_completed += s.patches_completed;
        out.tight_late += s.slo_violations;
      }
      out.makespan_s += r.makespan_s;
      out.total_cost += r.total_cost;
      out.prewarm_cost += r.prewarm_cost;
      out.invocations += r.invocations;
      out.events += r.events_executed;
      add_bytes(trace_, spec_.streams, out);
    }
    out.tight_slo_s = tight_slo_;
    out.ap50 = ap50_;
    finish_outcome(out);
    return out;
  }

  SimOutcome run_untraced_counterpart() override {
    // The traced run replicates the trace build too.
    (void)experiments::build_trace(video::panda4k_scene(5), trace_config_);
    return run_body();
  }

  TracedRun run_traced(Tracer& tracer, bool replicate_edge) override {
    const Spans spans(tracer);
    TracedRun run;
    const SceneTrace* trace = &trace_;
    SceneTrace replica;
    if (replicate_edge) {
      replica = replicate_trace(video::panda4k_scene(5), trace_config_, tracer,
                                spans, run);
      if (auto diff = compare_traces(replica, trace_); !diff.empty())
        run.failures.push_back(diff);
      trace = &replica;
    }
    const std::vector<const SceneTrace*> cameras(spec_.streams, trace);
    for (const auto& config : configs_)
      traced_leg(cameras, config, tracer, spans, run);
    run.outcome.tight_slo_s = tight_slo_;
    run.outcome.ap50 = ap50_;
    finish_traced(run);
    return run;
  }

 private:
  // run_multistream (no drift, no rebalancing) with a span around each call
  // into the system.
  void traced_leg(const std::vector<const SceneTrace*>& cameras,
                  const experiments::MultiStreamConfig& config, Tracer& tracer,
                  const Spans& spans, TracedRun& run) const {
    if (config.drift_at_s >= 0.0 || config.rebalance.active())
      throw std::logic_error("traced fleet leg: drift/rebalance unsupported");
    ScopedSpan leg_span(tracer, spans.leg, config.seed);
    sim::Simulator sim;
    std::vector<std::unique_ptr<net::Link>> links;
    links.reserve(cameras.size());
    for (std::size_t i = 0; i < cameras.size(); ++i)
      links.push_back(std::make_unique<net::Link>(sim, config.bandwidth_mbps));

    LegCapture leg;
    leg.latency = config.latency;
    leg.seed = config.seed;
    core::TangramSystem::Config sc = system_config_of(config);
    leg.platform = sc.platform;
    if (config.pool_for_shard) {
      // Record each capacity pool as the system defines it, so the replay
      // can define the same pools in the same order.
      sc.pool_for_shard = [inner = config.pool_for_shard, &leg](
                              const std::string& key,
                              const core::StreamConfig& stream) {
        serverless::CapacityPoolConfig pool = inner(key, stream);
        const bool known = std::any_of(
            leg.pools.begin(), leg.pools.end(),
            [&](const auto& p) { return p.name == pool.name; });
        if (!pool.name.empty() && !known) leg.pools.push_back(pool);
        return pool;
      };
    }
    PatchSink sink(run, config.edge_latency_s, tight_slo_);
    std::unique_ptr<core::TangramSystem> system;
    std::vector<core::StreamId> streams;
    {
      ScopedSpan span(tracer, spans.construct, 0);
      system = std::make_unique<core::TangramSystem>(
          sim, std::move(sc),
          [&](const core::Patch& patch, const InvocationRecord& record) {
            ScopedSpan result(tracer, spans.result, patch.id);
            sink.on_result(patch, record);
          });
      streams.reserve(cameras.size());
      for (std::size_t cam = 0; cam < cameras.size(); ++cam) {
        core::StreamConfig stream;
        stream.name = "cam-" + std::to_string(cam);
        stream.slo_s = slos_[cam];
        streams.push_back(system->register_stream(std::move(stream)));
      }
    }

    // Chained per-camera emission, capture times term for term as in
    // run_multistream.
    const auto stream_start = [&config](std::size_t cam) {
      return cam < config.per_stream_start_s.size()
                 ? config.per_stream_start_s[cam]
                 : 0.0;
    };
    const auto phase_of = [&](std::size_t cam, double frame_interval) {
      return config.stagger_cameras
                 ? frame_interval * static_cast<double>(cam) /
                       static_cast<double>(cameras.size())
                 : 0.0;
    };
    std::uint64_t next_patch_id = 1;
    std::function<void(std::size_t, std::size_t)> emit_frame =
        [&](std::size_t cam, std::size_t i) {
          const SceneTrace& trace = *cameras[cam];
          const double frame_interval = 1.0 / trace.spec.fps;
          const double phase = phase_of(cam, frame_interval);
          const double capture = stream_start(cam) + phase +
                                 static_cast<double>(i) * frame_interval;
          ScopedSpan emit(tracer, spans.emit, cam);
          run.generator_lateness_s =
              std::max(run.generator_lateness_s,
                       sim.now() - (capture + config.edge_latency_s));
          const FrameRecord& frame = trace.eval_frame(i);
          for (std::size_t p = 0; p < frame.patches.size(); ++p) {
            core::Patch patch;
            patch.id = next_patch_id++;
            patch.camera_id = static_cast<int>(cam);
            patch.frame_index = frame.frame_index;
            patch.region = frame.patches[p];
            patch.generation_time = capture;
            patch.bytes = frame.patch_bytes[p];
            sink.on_emit(patch.id, slos_[cam]);
            ScopedSpan send(tracer, spans.send, patch.id);
            links[cam]->send(patch.bytes, [&, cam, patch] {
              ScopedSpan admit(tracer, spans.admit, patch.id);
              system->receive_patch(streams[cam], patch);
            });
          }
          if (i + 1 < trace.eval_frame_count()) {
            const double next_capture =
                stream_start(cam) + phase +
                static_cast<double>(i + 1) * frame_interval;
            sim.schedule_at(next_capture + config.edge_latency_s,
                            [&emit_frame, cam, i] { emit_frame(cam, i + 1); });
          }
        };
    for (std::size_t cam = 0; cam < cameras.size(); ++cam) {
      const SceneTrace& trace = *cameras[cam];
      if (trace.eval_frame_count() == 0) continue;
      const double phase = phase_of(cam, 1.0 / trace.spec.fps);
      sim.schedule_at(stream_start(cam) + phase + config.edge_latency_s,
                      [&emit_frame, cam] { emit_frame(cam, 0); });
    }
    add_bytes(*cameras.front(), cameras.size(), run.outcome);
    finish_leg(sim, *system, links, sink, leg, /*count_events=*/true, tracer,
               spans, run);
  }

  FleetSpec spec_;
  std::uint64_t seed_;
  experiments::TraceConfig trace_config_;
  std::vector<double> slos_;
  double tight_slo_ = 0.0;
  SceneTrace trace_;
  std::vector<experiments::MultiStreamConfig> configs_;
  double ap50_ = 0.0;
};

// The SLO mix of bench_multistream_scale's city axis.
const std::vector<double> kCitySlos = {1.0, 0.8, 1.5};

FleetSpec city_provisioned() {
  FleetSpec spec;
  spec.streams = 4096;
  spec.slo_cycle = kCitySlos;
  spec.shape = [](experiments::MultiStreamConfig& c, double) {
    c.sharding = core::ShardPolicy::hashed(8);
    c.platform.max_instances = 512;
  };
  spec.describe = "hashed(8) shards, 512 instances";
  return spec;
}

FleetSpec city_saturated() {
  FleetSpec spec;
  spec.streams = 2048;
  spec.slo_cycle = kCitySlos;
  spec.shape = [](experiments::MultiStreamConfig& c, double) {
    c.sharding = core::ShardPolicy::hashed(8);
  };
  spec.describe = "hashed(8) shards, 64 instances";
  return spec;
}

// bench_multistream_scale Part 5's step-load fleet scaled x16: 1 tight
// (0.25 s) to 3 loose (2 s) streams, per-class shards, a reserved tight
// pool, windowed-max autoscaling with pre-warming; the second half of the
// fleet starts after the first wave has drained and the fleet has cooled.
FleetSpec pools_step() {
  constexpr int kScale = 16;
  FleetSpec spec;
  spec.streams = 32 * kScale;
  spec.slo_cycle = {0.25, 2.0, 2.0, 2.0};
  spec.legs = 16;
  // The tight misses fall on the first frames of the second wave.  Sensor
  // noise alone moves them between 192 and 316 per leg (scene 5, eight
  // noise seeds), which would swamp any platform change, so every seed
  // replays the catalog trace and drives the 16 platform seeds.
  spec.seeded_trace = false;
  spec.shape = [](experiments::MultiStreamConfig& c, double trace_s) {
    const int instances = 16 * kScale;
    const int tight_reserved = 4 * kScale;
    c.sharding = core::ShardPolicy::per_slo_class();
    c.platform.max_instances = instances;
    c.platform.keepalive_s = 4.0;
    c.pool_for_shard = experiments::reserved_tight_pool_plan(
        0.5, tight_reserved, instances - tight_reserved,
        /*tight_forecast_headroom=*/4 * kScale);
    auto policy = serverless::AutoscalePolicy::windowed_max(24, 0.5, 0);
    policy.prewarm = true;
    c.platform.autoscale = policy;
    const std::size_t n = c.per_stream_slo.size();
    c.per_stream_start_s.assign(n, trace_s + 6.0);
    for (std::size_t i = 0; i < n / 2; ++i) c.per_stream_start_s[i] = 0.0;
  };
  spec.describe =
      "per-class shards, 256 instances (64 reserved tight), windowed-max "
      "autoscaling + pre-warm, step load";
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "edge_fig12", "city_provisioned", "city_saturated", "pools_step"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "edge_fig12") return std::make_unique<EdgeFig12>(seed);
  if (name == "city_provisioned")
    return std::make_unique<Fleet>(city_provisioned(), seed);
  if (name == "city_saturated")
    return std::make_unique<Fleet>(city_saturated(), seed);
  if (name == "pools_step") return std::make_unique<Fleet>(pools_step(), seed);
  throw std::invalid_argument("unknown workload: " + name);
}

ReplayResult replay_leg(const LegCapture& leg) {
  ReplayResult result;
  std::vector<InvocationRecord> replayed;
  replayed.reserve(leg.records.size());
  const double start = now_s();
  {
    sim::Simulator sim;
    serverless::FunctionPlatform platform(sim, leg.platform, leg.latency,
                                          leg.seed);
    for (const auto& pool : leg.pools) (void)platform.define_pool(pool);
    for (std::size_t i = 0; i < leg.records.size(); ++i)
      sim.schedule_at(leg.records[i].submit_time, [&, i] {
        const InvocationRecord& r = leg.records[i];
        platform.invoke(r.spec, r.pool, [&](const InvocationRecord& done) {
          replayed.push_back(done);
        });
      });
    sim.run();
  }
  result.seconds = seconds_since(start);

  std::sort(replayed.begin(), replayed.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  const auto same = [](const InvocationRecord& a, const InvocationRecord& b) {
    return a.id == b.id && a.submit_time == b.submit_time &&
           a.start_time == b.start_time && a.finish_time == b.finish_time &&
           a.execution_s == b.execution_s && a.setup_s == b.setup_s &&
           a.cost == b.cost && a.instance_id == b.instance_id &&
           a.pool == b.pool && a.cold_start == b.cold_start &&
           a.straggler == b.straggler && a.attempts == b.attempts &&
           a.spec.num_canvases == b.spec.num_canvases &&
           a.spec.num_items == b.spec.num_items;
  };
  if (replayed.size() != leg.records.size()) {
    result.failures.push_back(
        "platform replay produced " + std::to_string(replayed.size()) +
        " records, the run recorded " + std::to_string(leg.records.size()));
    return result;
  }
  for (std::size_t i = 0; i < replayed.size(); ++i)
    if (!same(replayed[i], leg.records[i])) {
      result.failures.push_back("platform replay differs at invocation " +
                                std::to_string(leg.records[i].id));
      break;
    }
  return result;
}

}  // namespace perfbench
