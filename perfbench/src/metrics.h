// The benchmark's own metric code: sample statistics, per-patch stage
// decomposition with miss attribution, and an in-memory span tracer with
// exact self-time accounting and Chrome trace-event export.
//
// Everything here is independent of the Tangram library, so the self-test
// (perfbench/tests/test_metrics.cpp) can pin it on hand-built inputs.

#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- sample statistics -------------------------------------------------------

// Nearest-rank quantile of an ascending-sorted sample: the smallest value
// with at least q * n samples at or below it.  q in [0, 1]; 0 on empty input.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

// The highest reportable percentile for n samples: the largest of
// 50, 90, 99, 99.9, ... that leaves at least ten samples beyond it.
// Returns 0 when n < 20 (not even the median has ten samples above it).
[[nodiscard]] double tail_percentile(std::size_t n);

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

// Quartiles by the same rule as Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method); a single value is its own quartiles.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

// --- per-patch stage decomposition ------------------------------------------

// A patch's life, in the order the stages run: the edge encodes it, the
// uplink carries it, the invoker holds it until its batch is submitted, the
// platform queues the request, a cold start (if any) boots the instance, and
// the function executes.
enum class Stage {
  kEdge,
  kUplink,
  kSchedWait,
  kPlatformWait,
  kColdStart,
  kExec,
};
inline constexpr std::size_t kStageCount = 6;

[[nodiscard]] const char* stage_name(Stage stage);

// Simulated timestamps of one completed patch.  `sent` is capture plus the
// on-edge latency; `setup` is the cold-start seconds paid just before
// `start` (InvocationRecord::setup_s).
struct PatchTimeline {
  double capture = 0.0;
  double sent = 0.0;
  double arrival = 0.0;
  double submit = 0.0;
  double start = 0.0;
  double setup = 0.0;
  double finish = 0.0;
  double deadline = 0.0;
};

// capture <= sent <= arrival <= submit <= start - setup <= start <= finish.
[[nodiscard]] bool time_ordered(const PatchTimeline& t);

// Seconds spent in each stage; they sum to finish - capture.
[[nodiscard]] std::array<double, kStageCount> stage_durations(
    const PatchTimeline& t);

// The library's miss rule: late when finish > deadline + 1e-9.
[[nodiscard]] bool is_late(const PatchTimeline& t);

// The stage in progress when the deadline passed: the stage whose interval
// [begin, end) holds the deadline.  Only meaningful for a late patch.
[[nodiscard]] Stage miss_stage(const PatchTimeline& t);

// --- span tracer -------------------------------------------------------------

// Spans nest strictly (begin/end pairs on one thread).  Every span's
// duration and self time (duration minus the time its direct children
// cover) is folded into per-name totals as it closes, so the totals are
// exact however many spans the run makes.  The first `max_stored` spans are
// also kept whole for the Chrome trace file.
class Tracer {
 public:
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::uint64_t count = 0;
  };

  explicit Tracer(std::size_t max_stored = 100000);

  // Interns a span name; the id is stable for the tracer's lifetime.
  [[nodiscard]] int name_id(std::string_view name);

  void begin(int name, std::uint64_t id) { begin_at(name, id, now_s()); }
  void end() { end_at(now_s()); }
  // Explicit-timestamp variants (seconds); the self-test drives these.
  void begin_at(int name, std::uint64_t id, double t);
  void end_at(double t);

  [[nodiscard]] const Totals& totals(int name) const;
  // Totals by name; zeros for a name never interned.
  [[nodiscard]] Totals totals(std::string_view name) const;
  // Every interned name, in interning order.
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] std::size_t stored_spans() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_; }
  [[nodiscard]] std::size_t open_spans() const { return stack_.size(); }

  // Chrome trace-event JSON ("X" complete events, microseconds), which
  // chrome://tracing and the Perfetto UI open directly.  `metadata` is a
  // JSON object written as the file's "otherData".
  void write_chrome_json(std::ostream& out, const std::string& metadata) const;

 private:
  struct Span {
    int name;
    std::int64_t parent;  // index into spans_, -1 for a root or an unstored
    double start;
    double end;
    std::uint64_t id;
  };
  struct Open {
    int name;
    double start;
    double child_s;
    std::int64_t stored;  // index into spans_, -1 when not stored
  };

  [[nodiscard]] static double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::size_t max_stored_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::uint64_t dropped_ = 0;
};

// RAII span on a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, int name, std::uint64_t id) : tracer_(tracer) {
    tracer_.begin(name, id);
  }
  ~ScopedSpan() { tracer_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

// --- output helpers ----------------------------------------------------------

// Shortest round-trip decimal form of a double (17 significant digits).
[[nodiscard]] std::string fmt_double(double v);
// JSON string literal with the minimal escapes.
[[nodiscard]] std::string json_string(std::string_view s);

}  // namespace perfbench
