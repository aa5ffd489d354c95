// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions, one SpanLog per job (so pool workers never
// share a buffer), then merged, summarised per layer and written as a
// Chrome trace-event file. A disabled log records nothing and only calls
// the wrapped function, so the untraced re-drive runs the same code.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace stepbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< layer span ("core.verify") or container
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the same log (after merge: global)
  int cone = -1;    ///< cone / PO / netlist id, -1 for circuit-level spans
  int tid = 0;      ///< small per-thread id
};

/// Containers group layer spans; they are not a layer themselves, so they
/// do not count towards coverage and their self time is the uncovered gap.
inline bool is_container(const char* name) {
  const std::string n = name;
  return n == "pass" || n == "circuit" || n == "cone" || n == "po";
}

/// Small stable id for the calling thread (Chrome "tid").
inline int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  /// Index of the innermost open span, -1 when none is open.
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Runs fn() inside a span named `name`; returns what fn returns.
  template <typename Fn>
  decltype(auto) span(const char* name, int cone, Fn&& fn) {
    if (!enabled_) return fn();
    const int idx = open(name, cone);
    struct Closer {
      SpanLog* log;
      int idx;
      ~Closer() { log->close(idx); }
    } closer{this, idx};
    return fn();
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  int open(const char* name, int cone) {
    Span s;
    s.name = name;
    s.cone = cone;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.tid = thread_slot();
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// All spans of one traced pass, merged from the per-job logs.
class Trace {
 public:
  /// Appends `log`'s spans; its root spans become children of `parent`.
  void absorb(SpanLog& log, int parent) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : log.spans()) {
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans_.push_back(s);
    }
    log.spans().clear();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, summed over threads: each span's duration
  /// minus the part of it its children cover (children on pool threads may
  /// overlap one another, so the union counts, not the sum).
  std::map<std::string, double> self_seconds() const {
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::int64_t covered = union_ns(children[i], s.start_ns, s.end_ns);
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return out;
  }

  /// Seconds of [t0, t1] covered by at least one layer (non-container)
  /// span on any thread.
  double covered_seconds(std::int64_t t0, std::int64_t t1) const {
    std::vector<Interval> iv;
    for (const Span& s : spans_) {
      if (!is_container(s.name)) iv.push_back({s.start_ns, s.end_ns});
    }
    return static_cast<double>(union_ns(iv, t0, t1)) * 1e-9;
  }

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  bool write_chrome(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"cone\":%d}}\n",
                   i == 0 ? "" : ",", s.name, s.tid,
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, s.cone);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  using Interval = std::pair<std::int64_t, std::int64_t>;

  /// Length of the union of `iv` clipped to [t0, t1].
  static std::int64_t union_ns(std::vector<Interval> iv, std::int64_t t0,
                               std::int64_t t1) {
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, hi = t0;
    for (const auto& [a, b] : iv) {
      const std::int64_t lo = std::max(a, hi);
      const std::int64_t end = std::min(b, t1);
      if (end > lo) {
        covered += end - lo;
        hi = end;
      }
    }
    return covered;
  }

  std::vector<Span> spans_;
};

}  // namespace stepbench
