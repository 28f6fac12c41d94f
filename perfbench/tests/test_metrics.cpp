// Self-test of the benchmark's own metric code: the percentile rule,
// quartiles, self-time subtraction on nested spans, and miss-stage
// attribution on hand-built patch timelines.  Exits 1 on the first failure.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

using perfbench::PatchTimeline;
using perfbench::Stage;

void test_percentile_rule() {
  using perfbench::tail_percentile;
  CHECK(tail_percentile(0) == 0.0);
  CHECK(tail_percentile(19) == 0.0);
  CHECK(tail_percentile(20) == 50.0);  // ten samples above the median
  CHECK(tail_percentile(99) == 50.0);
  CHECK(tail_percentile(100) == 90.0);
  CHECK(tail_percentile(999) == 90.0);
  CHECK(near(tail_percentile(1000), 99.0));
  CHECK(near(tail_percentile(9999), 99.0));
  CHECK(std::abs(tail_percentile(10000) - 99.9) < 1e-9);
  CHECK(std::abs(tail_percentile(100000) - 99.99) < 1e-9);
}

void test_quantiles() {
  using perfbench::quantile_sorted;
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK(quantile_sorted(ten, 0.0) == 1.0);
  CHECK(quantile_sorted(ten, 0.5) == 5.0);
  CHECK(quantile_sorted(ten, 0.9) == 9.0);
  CHECK(quantile_sorted(ten, 0.99) == 10.0);
  CHECK(quantile_sorted({}, 0.5) == 0.0);

  // Python: statistics.quantiles(values, n=4).
  auto q = perfbench::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  CHECK(near(q.q1, 2.75) && near(q.median, 5.5) && near(q.q3, 8.25));
  q = perfbench::quartiles({1, 2});
  CHECK(near(q.q1, 0.75) && near(q.median, 1.5) && near(q.q3, 2.25));
  q = perfbench::quartiles({5, 1, 4, 2, 3});
  CHECK(near(q.q1, 1.5) && near(q.median, 3.0) && near(q.q3, 4.5));
  q = perfbench::quartiles({0.3, 0.1, 0.2});
  CHECK(q.q1 == 0.1 && q.median == 0.2 && q.q3 == 0.3);
  q = perfbench::quartiles({4.0});
  CHECK(q.q1 == 4.0 && q.median == 4.0 && q.q3 == 4.0);
}

void test_self_time() {
  perfbench::Tracer tracer(/*max_stored=*/3);
  const int a = tracer.name_id("a");
  const int b = tracer.name_id("b");
  const int c = tracer.name_id("c");
  const int d = tracer.name_id("d");
  CHECK(tracer.name_id("b") == b);
  // a[0,10] { b[1,4] { c[2,3] }  d[5,9] }   a[20,22]
  tracer.begin_at(a, 1, 0.0);
  tracer.begin_at(b, 2, 1.0);
  tracer.begin_at(c, 3, 2.0);
  tracer.end_at(3.0);
  tracer.end_at(4.0);
  tracer.begin_at(d, 4, 5.0);
  tracer.end_at(9.0);
  tracer.end_at(10.0);
  tracer.begin_at(a, 5, 20.0);
  tracer.end_at(22.0);

  CHECK(tracer.open_spans() == 0);
  CHECK(near(tracer.totals(a).total_s, 12.0));
  CHECK(near(tracer.totals(a).self_s, 5.0));  // (10 - 3 - 4) + 2
  CHECK(tracer.totals(a).count == 2);
  CHECK(near(tracer.totals(b).total_s, 3.0));
  CHECK(near(tracer.totals(b).self_s, 2.0));  // grandchild c not subtracted
  CHECK(near(tracer.totals(c).self_s, 1.0));
  CHECK(near(tracer.totals(d).self_s, 4.0));
  CHECK(tracer.totals("missing").count == 0);
  // The store keeps the first three spans whole; totals stay exact.
  CHECK(tracer.stored_spans() == 3);
  CHECK(tracer.dropped_spans() == 2);

  std::ostringstream json;
  tracer.write_chrome_json(json, "{}");
  const std::string s = json.str();
  std::size_t events = 0;
  for (auto pos = s.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = s.find("\"ph\":\"X\"", pos + 1))
    ++events;
  CHECK(events == 3);
  CHECK(s.find("\"traceEvents\"") != std::string::npos);
  CHECK(s.find("\"name\":\"c\"") != std::string::npos);
  CHECK(s.find("\"parent\":1") != std::string::npos);  // c's parent is b
}

PatchTimeline timeline(double deadline) {
  PatchTimeline t;
  t.capture = 0.0;
  t.sent = 0.02;
  t.arrival = 0.1;
  t.submit = 0.3;
  t.start = 0.9;
  t.setup = 0.45;  // cold start over [0.45, 0.9)
  t.finish = 1.2;
  t.deadline = deadline;
  return t;
}

void test_stage_attribution() {
  using perfbench::miss_stage;
  const auto durations = perfbench::stage_durations(timeline(1.0));
  const double expected[] = {0.02, 0.08, 0.2, 0.15, 0.45, 0.3};
  double sum = 0.0;
  for (std::size_t k = 0; k < perfbench::kStageCount; ++k) {
    CHECK(std::abs(durations[k] - expected[k]) < 1e-12);
    sum += durations[k];
  }
  CHECK(std::abs(sum - 1.2) < 1e-12);

  CHECK(miss_stage(timeline(0.01)) == Stage::kEdge);
  CHECK(miss_stage(timeline(0.05)) == Stage::kUplink);
  CHECK(miss_stage(timeline(0.1)) == Stage::kSchedWait);  // at arrival
  CHECK(miss_stage(timeline(0.2)) == Stage::kSchedWait);
  CHECK(miss_stage(timeline(0.3)) == Stage::kPlatformWait);  // at submit
  CHECK(miss_stage(timeline(0.4)) == Stage::kPlatformWait);
  CHECK(miss_stage(timeline(0.5)) == Stage::kColdStart);
  CHECK(miss_stage(timeline(1.0)) == Stage::kExec);

  CHECK(perfbench::is_late(timeline(1.1)));
  CHECK(!perfbench::is_late(timeline(1.2)));
  CHECK(!perfbench::is_late(timeline(1.2 - 1e-10)));  // the 1e-9 tolerance
  CHECK(std::string(perfbench::stage_name(Stage::kPlatformWait)) ==
        "platform_wait");

  CHECK(perfbench::time_ordered(timeline(1.0)));
  PatchTimeline bad = timeline(1.0);
  bad.arrival = 0.01;  // arrived before it was sent
  CHECK(!perfbench::time_ordered(bad));
  bad = timeline(1.0);
  bad.setup = 0.7;  // cold start began before the request was submitted
  CHECK(!perfbench::time_ordered(bad));
  bad = timeline(1.0);
  bad.finish = 0.8;
  CHECK(!perfbench::time_ordered(bad));
}

}  // namespace

int main() {
  test_percentile_rule();
  test_quantiles();
  test_self_time();
  test_stage_attribution();
  if (failures != 0) return 1;
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
