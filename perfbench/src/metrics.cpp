#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const double rank = std::ceil(q * n);
  const std::size_t index =
      rank <= 1.0
          ? 0
          : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

double tail_percentile(std::size_t n) {
  // Candidates 50, 90, 99, 99.9, ...: the share beyond percentile p is
  // 1 - p/100, so p needs n * (1 - p/100) >= 10.
  if (n < 20) return 0.0;
  double best = 50.0;
  double beyond = 0.1;  // share beyond the next candidate (90)
  while (static_cast<double>(n) * beyond >= 10.0 - 1e-9) {
    best = 100.0 * (1.0 - beyond);
    beyond /= 10.0;
  }
  return best;
}

Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(..., n=4, method="exclusive").
  const std::size_t m = n + 1;
  double cut[3];
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kEdge: return "edge";
    case Stage::kUplink: return "uplink";
    case Stage::kSchedWait: return "sched_wait";
    case Stage::kPlatformWait: return "platform_wait";
    case Stage::kColdStart: return "cold_start";
    case Stage::kExec: return "exec";
  }
  return "?";
}

namespace {

// Stage boundaries b[0..6]: stage k runs over [b[k], b[k+1]).
std::array<double, kStageCount + 1> boundaries(const PatchTimeline& t) {
  return {t.capture, t.sent,          t.arrival, t.submit,
          t.start - t.setup, t.start, t.finish};
}

}  // namespace

bool time_ordered(const PatchTimeline& t) {
  // The cold start sits inside [submit, start]; start - setup is a rounded
  // difference, so it gets a nanosecond of slack against submit.
  return t.capture <= t.sent && t.sent <= t.arrival &&
         t.arrival <= t.submit && t.submit <= t.start &&
         t.start <= t.finish && t.setup >= 0.0 &&
         t.start - t.setup >= t.submit - 1e-9;
}

std::array<double, kStageCount> stage_durations(const PatchTimeline& t) {
  const auto b = boundaries(t);
  std::array<double, kStageCount> d{};
  for (std::size_t k = 0; k < kStageCount; ++k) d[k] = b[k + 1] - b[k];
  return d;
}

bool is_late(const PatchTimeline& t) { return t.finish > t.deadline + 1e-9; }

Stage miss_stage(const PatchTimeline& t) {
  const auto b = boundaries(t);
  for (std::size_t k = 0; k + 1 < kStageCount; ++k)
    if (t.deadline < b[k + 1]) return static_cast<Stage>(k);
  return Stage::kExec;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(std::size_t max_stored) : max_stored_(max_stored) {
  spans_.reserve(std::min<std::size_t>(max_stored_, 1u << 16));
}

int Tracer::name_id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

void Tracer::begin_at(int name, std::uint64_t id, double t) {
  std::int64_t stored = -1;
  if (spans_.size() < max_stored_) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().stored;
    stored = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, parent, t, t, id});
  } else {
    ++dropped_;
  }
  stack_.push_back({name, t, 0.0, stored});
}

void Tracer::end_at(double t) {
  if (stack_.empty()) throw std::logic_error("Tracer::end without begin");
  const Open open = stack_.back();
  stack_.pop_back();
  const double duration = t - open.start;
  Totals& totals = totals_[static_cast<std::size_t>(open.name)];
  totals.total_s += duration;
  totals.self_s += duration - open.child_s;
  ++totals.count;
  if (!stack_.empty()) stack_.back().child_s += duration;
  if (open.stored >= 0) spans_[static_cast<std::size_t>(open.stored)].end = t;
}

const Tracer::Totals& Tracer::totals(int name) const {
  return totals_.at(static_cast<std::size_t>(name));
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return totals_[i];
  return {};
}

void Tracer::write_chrome_json(std::ostream& out,
                               const std::string& metadata) const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
      << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  (s.start - origin) * 1e6, (s.end - s.start) * 1e6);
    out << (i ? ",\n" : "\n") << "{\"name\":"
        << json_string(names_[static_cast<std::size_t>(s.name)])
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1," << buf
        << ",\"args\":{\"id\":" << s.id << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
