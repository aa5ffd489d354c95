// stepbench — the STEP end-to-end benchmark.
//
//   stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Drives the library through its public API on one of three generated
// workloads (see README.md next to this file for why each exists):
//
//   search-qdb     small table-III suite, run_circuit, STEP-QDB, OR, -j1
//   decoder-cones  epfl_decoder(14) via binary AIGER (parsed and linted
//                  each pass), STEP-QD, AND, -jN
//   resynth-mg     small suite minus xmm9a, run_circuit_resynth, STEP-MG
//
// A run sets the inputs up, warms up, runs closed-loop passes over the
// whole workload for --seconds (repeating the set-up after every pass;
// setup_s is the median), and checks the answers against references that
// do not come from the SAT path. With --trace 1 it then re-drives the work
// through the library's layer entry points, once without and once with
// one span per call. It prints one JSON block with every end-to-end metric
// of the workload (unit, direction, sample count), and as its last line
// the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// carrying the end-to-end metrics common to all workloads (--trace 0) or
// the per-layer metrics of the traced re-drive (--trace 1).

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "aig/ops.h"
#include "aig/simulate.h"
#include "aig/support.h"
#include "analysis/lint.h"
#include "benchgen/epfl.h"
#include "benchgen/generators.h"
#include "benchgen/suite.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/circuit_driver.h"
#include "core/dec_cache.h"
#include "core/decomposer.h"
#include "core/extract.h"
#include "core/partition_check.h"
#include "core/relaxation.h"
#include "core/schedule.h"
#include "core/synthesis.h"
#include "io/aiger.h"
#include "trace.h"

namespace {

using namespace step;  // NOLINT
using stepbench::Clock;
using stepbench::SpanLog;
using stepbench::Trace;

// Budgets wide enough that no deadline trips: wall time measures work.
constexpr double kPoBudget_s = 120.0;
constexpr double kQbfCallBudget_s = 60.0;
constexpr double kCircuitBudget_s = 1800.0;

// Untimed warm-up before the measured passes: the first seconds of a fresh
// process run 15-60% slower (heap growth, thread start-up, cold caches).
// It is a fixed amount of work, never a time slice, so that the heap (and
// peak RSS) it leaves behind does not depend on the machine's speed. The
// cone workloads warm up with one whole untimed pass.
constexpr std::size_t kResynthWarmupCircuits = 4;  // ~2.5 s

// Set-up time spent again after every timed pass (at least two repeats),
// so that slow spells of the host hit set-up and passes alike.
constexpr double kSetupSlice_s = 0.05;

// Support limits of the library's exhaustive references.
constexpr int kExhaustiveMaxSupport = 16;
constexpr int kBruteForceMaxSupport = 10;

/// Pool width of decoder-cones and of the untimed checks: min(4, nproc).
int pool_workers() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Robust wall time of one pass: the sum over the pass's units (circuits,
/// or parse / lint calls) of each unit's median time across passes. Host
/// noise that slows part of one pass drops out; a median of whole passes
/// keeps it. unit_s[p][u] is unit u's time in pass p; every pass has every
/// unit.
double median_pass_s(const std::vector<std::vector<double>>& unit_s) {
  double total = 0.0;
  for (std::size_t u = 0; u < unit_s.front().size(); ++u) {
    std::vector<double> v;
    for (const std::vector<double>& pass : unit_s) v.push_back(pass[u]);
    total += median(v);
  }
  return total;
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// Peak resident set of this address space (VmHWM). getrusage's ru_maxrss
/// is not used: it keeps the peak of the process image before execve, so
/// when a Python wrapper starts the benchmark it reports the wrapper's RSS.
double peak_rss_mb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Hands freed heap back to the system and restarts VmHWM from the current
/// resident set, so the peak read after the first timed pass belongs to
/// that pass and the live inputs, not to set-up or warm-up. Returns false
/// when the kernel does not allow the reset.
bool reset_peak_rss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// 64 x `words` random-pattern simulation signature over all outputs.
std::uint64_t sim_signature(const aig::Aig& a, int words = 4) {
  std::uint64_t sig = 0x9e3779b97f4a7c15ULL ^ a.num_outputs();
  Rng rng(0xC0FFEE);
  for (int w = 0; w < words; ++w) {
    std::vector<std::uint64_t> in(a.num_inputs());
    for (auto& x : in) x = rng.next();
    for (const std::uint64_t o : aig::simulate(a, in)) {
      sig ^= o + 0x9e3779b97f4a7c15ULL + (sig << 6) + (sig >> 2);
    }
  }
  return sig;
}

// ------------------------------------------------------------- output

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
  long samples = 0;    ///< measurements behind the value
};

/// Per-layer metrics of the traced run, in BENCHMARK.json order, each with
/// the end-to-end metric and workload it should move. Every traced run
/// reports all of them; a layer a workload never enters reads 0 (only the
/// end-to-end metrics of the result line are non-zero on every workload).
struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;
};
constexpr const char* kSearch = "cones_per_s, cone_p90_ms on search-qdb";
constexpr const char* kSolverSetup = "cones_per_s on decoder-cones, resynth-mg";
constexpr const char* kDecoder = "cones_per_s on decoder-cones";
constexpr const char* kExtractVerify =
    "cones_per_s on decoder-cones, search-qdb";
constexpr const char* kResynth = "cones_per_s on resynth-mg";
constexpr const char* kTraceQuality = "none: trace quality, every workload";
constexpr LayerDef kLayers[] = {
    {"core.optimum.search_s", "s", kSearch},
    {"qbf.calls", "count", kSearch},
    {"qbf.iterations", "count", kSearch},
    {"qbf.abstraction_conflicts", "count", kSearch},
    {"qbf.verification_conflicts", "count", kSearch},
    {"sat.conflicts", "count", kSearch},
    {"sat.decisions", "count", kSearch},
    {"sat.propagations", "count", kSearch},
    {"core.relaxation.solver_s", "s", kSolverSetup},
    {"core.mg.search_s", "s", kSolverSetup},
    {"core.mg.sat_calls", "count", kSolverSetup},
    {"sat.inprocess_rounds", "count", kSolverSetup},
    {"sat.eliminated_vars", "count", kSolverSetup},
    {"sat.failed_literals", "count", kSolverSetup},
    {"sat.restarts", "count", kSolverSetup},
    {"aig.support_scan_s", "s", kDecoder},
    {"core.cone_extract_s", "s", kDecoder},
    {"core.relaxation.build_s", "s", kDecoder},
    {"core.schedule_s", "s", kDecoder},
    {"common.thread_pool.busy_frac", "frac", kDecoder},
    {"common.thread_pool.idle_s", "s", kDecoder},
    {"core.extract_s", "s", kExtractVerify},
    {"core.verify_s", "s", kExtractVerify},
    {"core.synthesis.tree_s", "s", kResynth},
    {"core.synthesis.verify_s", "s", kResynth},
    {"core.synthesis.splits", "count", kResynth},
    {"core.dec_cache.hit_rate", "frac", kResynth},
    {"core.dec_cache.lookups", "count", kResynth},
    {"core.dec_cache.sat_confirms", "count", kResynth},
    {"io.aiger.parse_s", "s", "parse_mb_per_s on decoder-cones"},
    {"analysis.lint_s", "s", "lint_mb_per_s on decoder-cones"},
    {"trace.coverage", "frac", kTraceQuality},
    {"trace.overhead_s", "s", kTraceQuality},
};

/// End-to-end metrics every workload reports: the result line's set.
constexpr const char* kCommonEndToEnd[] = {
    "setup_s", "cones_per_s", "decided_frac", "verified_frac", "peak_rss_mb"};

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<std::pair<std::string, std::string>> config;  ///< raw JSON
  std::vector<Metric> e2e;
  std::map<std::string, double> layers;      ///< per-layer values
  std::map<std::string, double> self_times;  ///< every span name
  std::map<std::string, double> gaps;        ///< container self times
  long attempted = 0;
  std::vector<std::string> failures;

  void fail(std::string msg) { failures.push_back(std::move(msg)); }

  void add(std::string name, double value, std::string unit,
           std::string better, long samples) {
    e2e.push_back({std::move(name), value, std::move(unit), std::move(better),
                   samples});
  }
  void cfg(std::string key, std::string raw_json) {
    config.emplace_back(std::move(key), std::move(raw_json));
  }
};

void print_report(const Report& r) {
  // The per-workload block: one stable JSON line.
  std::string b = "{\"stepbench\":\"workload\",\"workload\":" +
                  quoted(r.workload) + ",\"seed\":" + std::to_string(r.seed) +
                  ",\"trace\":" + (r.traced ? "1" : "0") + ",\"config\":{";
  for (std::size_t i = 0; i < r.config.size(); ++i) {
    b += (i ? "," : "") + quoted(r.config[i].first) + ":" + r.config[i].second;
  }
  b += "},\"end_to_end\":{";
  for (std::size_t i = 0; i < r.e2e.size(); ++i) {
    const Metric& m = r.e2e[i];
    b += (i ? "," : "") + quoted(m.name) + ":{\"value\":" + num(m.value) +
         ",\"unit\":" + quoted(m.unit) + ",\"better\":" + quoted(m.better) +
         ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  b += "}";
  if (r.traced) {
    b += ",\"per_layer\":{";
    bool first = true;
    for (const LayerDef& l : kLayers) {
      const auto it = r.layers.find(l.name);
      b += (first ? "" : ",") + quoted(l.name) + ":{\"value\":" +
           num(it == r.layers.end() ? 0.0 : it->second) + ",\"unit\":" +
           quoted(l.unit) + ",\"moves\":" + quoted(l.moves) + "}";
      first = false;
    }
    b += "},\"self_s\":{";
    first = true;
    for (const auto& [name, s] : r.self_times) {
      b += (first ? "" : ",") + quoted(name) + ":" + num(s);
      first = false;
    }
    b += "},\"uncovered_s\":{";
    first = true;
    for (const auto& [name, s] : r.gaps) {
      b += (first ? "" : ",") + quoted(name) + ":" + num(s);
      first = false;
    }
    b += "}";
  }
  b += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size() && i < 20; ++i) {
    b += (i ? "," : "") + quoted(r.failures[i]);
  }
  b += "]}";
  std::printf("%s\n", b.c_str());

  // The result line (last line of stdout).
  std::string res = "{\"correct\":" +
                    std::string(r.failures.empty() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failures.size()) +
                    ",\"metrics\":{";
  bool first = true;
  auto put = [&](const std::string& name, double v, const std::string& unit) {
    res += (first ? "" : ",") + quoted(name) + ":{\"value\":" + num(v) +
           ",\"unit\":" + quoted(unit) + "}";
    first = false;
  };
  if (r.traced) {
    for (const LayerDef& l : kLayers) {
      const auto it = r.layers.find(l.name);
      put(l.name, it == r.layers.end() ? 0.0 : it->second, l.unit);
    }
  } else {
    for (const char* name : kCommonEndToEnd) {
      for (const Metric& m : r.e2e) {
        if (m.name == name) put(m.name, m.value, m.unit);
      }
    }
  }
  res += "}}";
  std::printf("%s\n", res.c_str());
  std::fflush(stdout);
}

/// Derives the per-layer times, coverage and gaps of a traced pass.
void summarise_trace(const Trace& trace, std::int64_t t0, std::int64_t t1,
                     Report& r) {
  r.self_times = trace.self_seconds();
  for (const auto& [name, s] : r.self_times) {
    if (stepbench::is_container(name.c_str())) {
      r.gaps[name] = s;
    } else {
      r.layers[name + "_s"] = s;
    }
  }
  const double wall = static_cast<double>(t1 - t0) * 1e-9;
  const double cov = wall > 0 ? trace.covered_seconds(t0, t1) / wall : 0.0;
  r.layers["trace.coverage"] = cov;
  if (cov < 0.9) {  // name the gap: time inside containers but no layer
    std::string gap = "trace coverage " + num(cov) + " < 0.9; uncovered:";
    for (const auto& [name, s] : r.gaps) gap += " " + name + "=" + num(s) + "s";
    r.cfg("coverage_gap", quoted(gap));
    std::fprintf(stderr, "stepbench: %s\n", gap.c_str());
  }
}

/// Progress and phase timings go to stderr; stdout carries the results.
void note(const std::string& what, double seconds) {
  std::fprintf(stderr, "stepbench: %s %.3f s\n", what.c_str(), seconds);
}

/// Lists every pass's wall time, so a run's own spread is visible.
void note_passes(const std::vector<double>& walls) {
  std::string line = "stepbench: " + std::to_string(walls.size()) + " passes, s:";
  for (const double w : walls) line += " " + num(std::round(w * 1e4) / 1e4);
  std::fprintf(stderr, "%s\n", line.c_str());
}

/// Times the set-up `fn` (which builds the inputs): once before the
/// passes, keeping that result for the run, and again after every timed
/// pass via between_passes(), discarding those copies. A set-up of a few
/// milliseconds timed only at the start of a fresh process reads 30-40%
/// apart between runs; repeats spread over the whole run see the same
/// host as the passes. setup_s is the median of every repeat.
template <typename T>
class SetupTimer {
 public:
  explicit SetupTimer(std::function<T()> fn) : fn_(std::move(fn)) {}

  T first() { return timed(); }

  void between_passes() {
    double spent = 0.0;
    for (int i = 0; i < 2 || spent < kSetupSlice_s; ++i) {
      const Clock::time_point t0 = Clock::now();
      timed();
      spent += since(t0);
    }
  }

  void report(Report& r) const {
    double total = 0.0;
    for (const double t : times_) total += t;
    r.add("setup_s", median(times_), "s", "lower",
          static_cast<long>(times_.size()));
    note("setup x" + std::to_string(times_.size()), total);
  }

 private:
  T timed() {
    const Clock::time_point t0 = Clock::now();
    T out = fn_();
    times_.push_back(since(t0));
    return out;
  }

  std::function<T()> fn_;
  std::vector<double> times_;
};

// ------------------------------------------------------------- inputs

/// Seed 0 keeps a generator's own seed; any other seed redraws it.
std::uint64_t redraw(std::uint64_t base, std::uint64_t seed) {
  if (seed == 0) return base;
  std::uint64_t z = base ^ (seed * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// benchgen::standard_suite(kSmall) with the random_dag / random_sop
/// members redrawn from `seed` (same parameters). Seed 0 is the library
/// suite itself; check_suite_copy() pins that. xs38417 and xi10 keep their
/// library draws: their redraws move one search-qdb pass from 0.2 to 4.7 s
/// and by ~15%, so the spread over seeds would measure one draw's luck.
std::vector<benchgen::BenchCircuit> small_suite(std::uint64_t seed) {
  using namespace benchgen;  // NOLINT
  auto dag = [seed](int in, int ands, int out, std::uint64_t s) {
    return random_dag(in, ands, out, redraw(s, seed));
  };
  auto sop = [seed](int a, int b, int c, int out, int cubes, std::uint64_t s) {
    return random_sop(a, b, c, out, cubes, redraw(s, seed));
  };
  std::vector<BenchCircuit> s;
  s.push_back({"xc880", "C880", merge({alu(5), sop(4, 4, 1, 5, 4, 0x880)})});
  s.push_back({"xc2670", "C2670",
               merge({carry_select_adder(8, 3), comparator(6),
                      sop(4, 4, 2, 6, 4, 0x2670)})});
  s.push_back({"xc7552", "C7552",
               merge({ripple_adder(8), parity_tree(10), priority_encoder(10),
                      sop(5, 5, 2, 8, 5, 0xc7552)})});
  s.push_back({"xrot", "rot", barrel_rotator(8)});
  s.push_back({"xi10", "i10", random_dag(20, 90, 18, 0x110)});
  s.push_back({"xpair", "pair", merge({array_multiplier(4), mux_tree(3)})});
  s.push_back({"xs1423", "s1423",
               merge({lfsr_next(12, 0b110000001011), counter_next(8),
                      sop(4, 4, 2, 6, 4, 0x51423)})});
  s.push_back({"xs5378", "s5378",
               merge({gray_next(8), decoder(4), dag(12, 40, 10, 0x5378)})});
  s.push_back({"xs9234", "s9234.1",
               merge({counter_next(10), comparator(7), parity_tree(8),
                      sop(5, 5, 1, 8, 4, 0x9234)})});
  s.push_back({"xs15850", "s15850.1",
               merge({alu(4), barrel_rotator(6),
                      lfsr_next(14, 0b10000000101001)})});
  s.push_back({"xs38417", "s38417", random_dag(24, 140, 28, 0x38417)});
  s.push_back({"xs38584", "s38584.1",
               merge({priority_encoder(12), mux_tree(3), majority(9)})});
  s.push_back({"xb07", "ITC b07",
               merge({counter_next(6), hamming_ge(5, 3),
                      sop(3, 3, 2, 5, 3, 0xb07)})});
  s.push_back({"xb12", "ITC b12", dag(14, 48, 14, 0xb12)});
  s.push_back({"xclma", "clma",
               merge({decoder(4), array_multiplier(3),
                      sop(5, 5, 2, 8, 5, 0xc1a)})});
  s.push_back({"xsbc", "sbc",
               merge({gray_next(7), priority_encoder(8),
                      sop(4, 4, 2, 8, 5, 0x5bc)})});
  s.push_back({"xmm9a", "mm9a", merge({comparator(9), mux_tree(3)})});
  s.push_back({"xmm9b", "mm9b",
               merge({comparator(8), hamming_ge(4, 2), parity_tree(6),
                      sop(4, 4, 1, 4, 3, 0x99b)})});
  s.push_back({"xapex", "apex7", sop(6, 6, 3, 16, 6, 0xa9e7)});
  s.push_back({"xterm1", "term1",
               merge({sop(5, 5, 2, 10, 5, 0x7e41), mux_tree(3)})});
  s.push_back({"xdcw", "dc-window", implied_majority(5)});
  for (BenchCircuit& b : s) b.aig = aig::sweep_dead(b.aig);
  return s;
}

/// The copy above must reproduce the library suite at seed 0.
void check_suite_copy(Report& r) {
  const auto lib = benchgen::standard_suite(benchgen::SuiteScale::kSmall);
  const auto mine = small_suite(0);
  bool same = lib.size() == mine.size();
  for (std::size_t i = 0; same && i < lib.size(); ++i) {
    same = lib[i].name == mine[i].name &&
           lib[i].aig.num_nodes() == mine[i].aig.num_nodes() &&
           lib[i].aig.num_outputs() == mine[i].aig.num_outputs() &&
           sim_signature(lib[i].aig) == sim_signature(mine[i].aig);
  }
  if (!same) r.fail("seeded small-suite copy differs from standard_suite(kSmall)");
}

/// The member left out of resynth-mg: alone it takes most of the pass and
/// grows from 73 to ~44k ANDs, so it would measure one pathological
/// recursion instead of the suite.
constexpr const char* kResynthExcluded = "xmm9a";

// ------------------------------------------------------- cone workloads

struct ConeAnswer {
  core::DecomposeStatus status = core::DecomposeStatus::kUnknown;
  core::OutcomeReason reason = core::OutcomeReason::kOk;
  core::Metrics metrics;
  bool proven_optimal = false;
};

bool same_answer(const ConeAnswer& a, const ConeAnswer& b) {
  return a.status == b.status && a.proven_optimal == b.proven_optimal &&
         a.metrics.n == b.metrics.n && a.metrics.shared == b.metrics.shared &&
         a.metrics.imbalance == b.metrics.imbalance;
}

/// Solver counters of one re-driven cone.
struct Counters {
  long qbf_calls = 0, qbf_iterations = 0, mg_sat_calls = 0;
  std::uint64_t abs_conflicts = 0, ver_conflicts = 0;
  sat::Solver::Stats sat;

  void operator+=(const Counters& o) {
    qbf_calls += o.qbf_calls;
    qbf_iterations += o.qbf_iterations;
    mg_sat_calls += o.mg_sat_calls;
    abs_conflicts += o.abs_conflicts;
    ver_conflicts += o.ver_conflicts;
    sat += o.sat;
  }
};

struct RedrivenCone {
  ConeAnswer answer;
  core::Partition partition;
  bool verified = false;
  Counters counters;
};

core::QbfModel model_of(core::Engine e) {
  return e == core::Engine::kQbfDisjoint   ? core::QbfModel::kQD
         : e == core::Engine::kQbfBalanced ? core::QbfModel::kQB
                                           : core::QbfModel::kQDB;
}

/// One cone through the same public steps as BiDecomposer::decompose
/// (MG or QBF engine, no support reduction, no care set).
RedrivenCone redrive_cone(const aig::Aig& circuit, std::uint32_t po, int id,
                          const core::DecomposeOptions& opts, SpanLog& log) {
  RedrivenCone out;
  log.span("cone", id, [&] {
    const core::Cone cone = log.span("core.cone_extract", id, [&] {
      return core::extract_po_cone(circuit, po);
    });
    Deadline deadline(opts.po_budget_s);
    const core::RelaxationMatrix matrix =
        log.span("core.relaxation.build", id, [&] {
          return core::build_relaxation_matrix(cone, opts.op);
        });
    std::optional<core::RelaxationSolver> rs;
    log.span("core.relaxation.solver", id, [&] { rs.emplace(matrix, opts.sat); });
    const core::PartitionSearchResult mg =
        log.span("core.mg.search", id, [&] {
          return core::MgDecomposer(*rs, opts.mg).find_partition(&deadline);
        });
    ConeAnswer& a = out.answer;
    if (mg.found) {
      a.status = core::DecomposeStatus::kDecomposed;
      out.partition = mg.partition;
    } else if (mg.exhausted) {
      a.status = core::DecomposeStatus::kNotDecomposable;
    }
    if (core::is_qbf_engine(opts.engine) &&
        a.status != core::DecomposeStatus::kNotDecomposable) {
      std::optional<core::Partition> bootstrap;
      if (mg.found) bootstrap = mg.partition;
      a.status = core::DecomposeStatus::kUnknown;
      log.span("core.optimum.search", id, [&] {
        core::QbfFinderOptions q = opts.qbf;
        q.cegar.sat = opts.sat;
        core::QbfPartitionFinder finder(matrix, q);
        core::OptimumSearch search(finder, model_of(opts.engine), opts.optimum);
        const core::OptimumResult r = search.run(bootstrap, &deadline);
        out.counters.qbf_calls = r.qbf_calls;
        out.counters.qbf_iterations = finder.total_iterations();
        out.counters.abs_conflicts = finder.abstraction_conflicts();
        out.counters.ver_conflicts = finder.verification_conflicts();
        out.counters.sat += finder.solver_stats();
        if (r.outcome == core::OptimumResult::Outcome::kFound) {
          a.status = core::DecomposeStatus::kDecomposed;
          out.partition = r.best;
          a.proven_optimal = r.proven_optimal;
        } else if (r.outcome == core::OptimumResult::Outcome::kNotDecomposable) {
          a.status = core::DecomposeStatus::kNotDecomposable;
        } else {
          a.reason = r.reason;
        }
      });
    }
    out.counters.mg_sat_calls = rs->sat_calls();
    out.counters.sat += rs->solver().stats();
    if (a.status == core::DecomposeStatus::kUnknown &&
        a.reason == core::OutcomeReason::kOk) {
      a.reason = core::reason_of_unknown(&deadline);
    }
    if (a.status != core::DecomposeStatus::kDecomposed) return;
    a.metrics = core::Metrics::of(out.partition);
    const core::ExtractedFunctions fns = log.span("core.extract", id, [&] {
      return core::extract_functions(cone, opts.op, out.partition);
    });
    out.verified = log.span("core.verify", id, [&] {
      return core::verify_decomposition(cone, fns);
    });
    if (!out.verified) {
      a = ConeAnswer{};
      a.reason = core::OutcomeReason::kVerificationFailed;
    }
  });
  return out;
}

struct ConeCircuit {
  std::string name;
  aig::Aig aig;        ///< generator output
  std::string aiger;   ///< binary AIGER; when set, each pass parses it
  std::uint64_t signature = 0;
};

struct ConeSpec {
  core::Engine engine;
  core::GateOp op;
  int threads;
};

core::DecomposeOptions decompose_options(const ConeSpec& spec) {
  core::DecomposeOptions opts;
  opts.engine = spec.engine;
  opts.op = spec.op;
  opts.po_budget_s = kPoBudget_s;
  opts.optimum.call_timeout_s = kQbfCallBudget_s;
  opts.extract = true;
  opts.verify = true;
  return opts;
}

struct ConePass {
  double wall_s = 0.0;
  std::vector<double> circuit_s;  ///< parse + run_circuit, per circuit
  std::vector<double> parse_s;    ///< per parsed circuit
  std::vector<double> lint_s;     ///< per parsed circuit
  std::uint64_t parsed_bytes = 0;
  std::size_t lint_findings = 0;
  std::vector<ConeAnswer> answers;
  std::vector<double> cone_s;
  std::vector<int> support;
  std::vector<std::uint32_t> po;
  std::vector<int> circuit;
};

/// One pass over every circuit.
ConePass run_cone_pass(const std::vector<ConeCircuit>& circuits,
                       const core::DecomposeOptions& opts, int threads) {
  ConePass p;
  core::ParallelDriverOptions par;
  par.num_threads = threads;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    const ConeCircuit& in = circuits[c];
    const Clock::time_point tc = Clock::now();
    std::optional<aig::Aig> parsed;
    if (!in.aiger.empty()) {
      parsed.emplace(io::parse_aiger_binary(in.aiger));
      p.parsed_bytes += in.aiger.size();
      p.parse_s.push_back(since(tc));
      const Clock::time_point tl = Clock::now();
      p.lint_findings += analysis::lint_aiger(in.aiger).findings.size();
      p.lint_s.push_back(since(tl));
    }
    const core::CircuitRunResult run = core::run_circuit(
        parsed ? *parsed : in.aig, in.name, opts, kCircuitBudget_s, par);
    p.circuit_s.push_back(since(tc));
    for (const core::PoOutcome& o : run.pos) {
      p.answers.push_back({o.status, o.reason, o.metrics, o.proven_optimal});
      p.cone_s.push_back(o.cpu_s);
      p.support.push_back(o.support);
      p.po.push_back(static_cast<std::uint32_t>(o.po_index));
      p.circuit.push_back(static_cast<int>(c));
    }
  }
  p.wall_s = since(t0);
  return p;
}

struct Redrive {
  std::vector<RedrivenCone> cones;  ///< same order as ConePass::answers
  Counters counters;
  double wall_s = 0.0;
  double pool_wall_s = 0.0;  ///< summed over circuits, pooled runs only
  double pool_cone_s = 0.0;  ///< cone seconds inside the pools
};

/// Re-drives every candidate cone the way run_circuit does (candidate scan,
/// FIFO schedule, optional pool), recording spans when `trace` is set.
Redrive redrive_cones(const std::vector<ConeCircuit>& circuits,
                      const core::DecomposeOptions& opts, int threads,
                      Trace* trace) {
  Redrive rd;
  const Clock::time_point origin = Clock::now();
  const bool on = trace != nullptr;
  SpanLog main_log(on, origin);
  std::vector<std::pair<int, SpanLog>> job_logs;  // (parent span, log)
  main_log.span("pass", -1, [&] {
    for (const ConeCircuit& in : circuits) {
      main_log.span("circuit", -1, [&] {
        const int circuit_span = main_log.current();
        std::optional<aig::Aig> parsed;
        if (!in.aiger.empty()) {
          main_log.span("io.aiger.parse", -1, [&] {
            parsed.emplace(io::parse_aiger_binary(in.aiger));
          });
          main_log.span("analysis.lint", -1, [&] {
            return analysis::lint_aiger(in.aiger);
          });
        }
        const aig::Aig& circuit = parsed ? *parsed : in.aig;
        std::vector<std::uint32_t> pos;
        std::vector<int> supports;
        for (std::uint32_t po = 0; po < circuit.num_outputs(); ++po) {
          const int support = main_log.span(
              "aig.support_scan", static_cast<int>(po), [&] {
                return static_cast<int>(
                    aig::structural_support(circuit, circuit.output(po)).size());
              });
          if (support < 2) continue;
          pos.push_back(po);
          supports.push_back(support);
        }
        std::vector<std::vector<std::size_t>> batches;
        main_log.span("core.schedule", -1, [&] {
          const std::vector<double> est = core::tree_size_estimates(circuit);
          std::vector<double> scores(pos.size());
          for (std::size_t j = 0; j < pos.size(); ++j) {
            core::ConeCost cost;
            cost.po = pos[j];
            cost.support = supports[j];
            cost.est_ands = est[aig::node_of(circuit.output(pos[j]))];
            scores[j] = core::predicted_hardness(cost);
          }
          const auto order =
              core::schedule_order(scores, core::SchedulePolicy::kFifo);
          batches = core::schedule_batches(scores, order,
                                           core::SchedulePolicy::kFifo);
        });
        const std::size_t base = rd.cones.size();
        rd.cones.resize(base + pos.size());
        if (threads <= 1) {
          for (const auto& batch : batches) {
            for (const std::size_t j : batch) {
              rd.cones[base + j] = redrive_cone(
                  circuit, pos[j], static_cast<int>(base + j), opts, main_log);
            }
          }
          return;
        }
        std::vector<SpanLog> logs(batches.size(), SpanLog(on, origin));
        std::vector<double> busy(batches.size(), 0.0);
        const Clock::time_point tp = Clock::now();
        {
          ThreadPool pool(threads);
          for (std::size_t b = 0; b < batches.size(); ++b) {
            pool.submit([&, b] {
              const Clock::time_point tb = Clock::now();
              for (const std::size_t j : batches[b]) {
                rd.cones[base + j] = redrive_cone(
                    circuit, pos[j], static_cast<int>(base + j), opts, logs[b]);
              }
              busy[b] = since(tb);
            });
          }
          pool.wait_idle();
        }
        rd.pool_wall_s += since(tp);
        for (const double s : busy) rd.pool_cone_s += s;
        for (SpanLog& l : logs) job_logs.emplace_back(circuit_span, std::move(l));
      });
    }
  });
  rd.wall_s = since(origin);
  if (on) {
    trace->absorb(main_log, -1);
    for (auto& [parent, log] : job_logs) trace->absorb(log, parent);
  }
  for (const RedrivenCone& c : rd.cones) rd.counters += c.counters;
  return rd;
}

/// One cone against references that do not come from the SAT path: the
/// truth-table validity oracle (support <= 16) and, for the QBF engines,
/// the brute-force optimum (support <= 10). Returns "" when it passes.
std::string check_cone(const aig::Aig& circuit, std::uint32_t po, int support,
                       const ConeAnswer& a, const RedrivenCone& t,
                       const core::DecomposeOptions& opts) {
  const std::string where = "po " + std::to_string(po);
  if (a.status == core::DecomposeStatus::kUnknown) {
    return where + ": no conclusion (" + core::to_string(a.reason) + ")";
  }
  if (!same_answer(a, t.answer)) {
    return where + ": re-driven answer differs from run_circuit";
  }
  const bool exhaustive = support <= kExhaustiveMaxSupport;
  const bool brute =
      core::is_qbf_engine(opts.engine) && support <= kBruteForceMaxSupport;
  if (!exhaustive && !brute) return "";
  const core::Cone cone = core::extract_po_cone(circuit, po);
  if (a.status == core::DecomposeStatus::kDecomposed && exhaustive &&
      !core::check_partition_exhaustive(cone, opts.op, t.partition)) {
    return where + ": partition fails the exhaustive check";
  }
  if (!brute) return "";
  const core::MetricKind kind = core::metric_of(model_of(opts.engine));
  const core::BruteForceResult bf = core::brute_force_optimum(cone, opts.op, kind);
  if (a.status == core::DecomposeStatus::kNotDecomposable) {
    return bf.decomposable ? where + ": brute force finds a partition" : "";
  }
  const int cost = core::metric_cost(a.metrics, kind);
  if (!bf.decomposable || cost < bf.best_cost ||
      (a.proven_optimal && cost != bf.best_cost)) {
    return where + ": cost " + std::to_string(cost) +
           " vs brute-force optimum " + std::to_string(bf.best_cost);
  }
  return "";
}

/// Checks every re-driven cone (on `workers` threads: the checks are
/// outside the timed region and independent per cone).
void check_cones(const std::vector<ConeCircuit>& circuits,
                 const ConePass& pass, const Redrive& rd,
                 const core::DecomposeOptions& opts, int workers, Report& r) {
  std::vector<std::optional<aig::Aig>> parsed(circuits.size());
  for (std::size_t c = 0; c < circuits.size(); ++c) {
    if (circuits[c].aiger.empty()) continue;
    parsed[c].emplace(io::parse_aiger_binary(circuits[c].aiger));
    if (sim_signature(*parsed[c]) != circuits[c].signature) {
      r.fail(circuits[c].name + ": parsed netlist differs from its generator");
    }
  }
  if (rd.cones.size() != pass.answers.size()) {
    r.fail("re-drive saw " + std::to_string(rd.cones.size()) +
           " candidate cones, run_circuit " + std::to_string(pass.answers.size()));
    return;
  }
  std::vector<std::string> errors(rd.cones.size());
  {
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < rd.cones.size(); ++i) {
      pool.submit([&, i] {
        const std::size_t c = static_cast<std::size_t>(pass.circuit[i]);
        errors[i] = check_cone(parsed[c] ? *parsed[c] : circuits[c].aig,
                               pass.po[i], pass.support[i], pass.answers[i],
                               rd.cones[i], opts);
      });
    }
    pool.wait_idle();
  }
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (!errors[i].empty()) {
      r.fail(circuits[static_cast<std::size_t>(pass.circuit[i])].name + " " +
             errors[i]);
    }
  }
}

void add_counter_layers(const Counters& c, Report& r) {
  r.layers["qbf.calls"] = static_cast<double>(c.qbf_calls);
  r.layers["qbf.iterations"] = static_cast<double>(c.qbf_iterations);
  r.layers["qbf.abstraction_conflicts"] = static_cast<double>(c.abs_conflicts);
  r.layers["qbf.verification_conflicts"] = static_cast<double>(c.ver_conflicts);
  r.layers["core.mg.sat_calls"] = static_cast<double>(c.mg_sat_calls);
  r.layers["sat.conflicts"] = static_cast<double>(c.sat.conflicts);
  r.layers["sat.decisions"] = static_cast<double>(c.sat.decisions);
  r.layers["sat.propagations"] = static_cast<double>(c.sat.propagations);
  r.layers["sat.inprocess_rounds"] = static_cast<double>(c.sat.inprocess_rounds);
  r.layers["sat.eliminated_vars"] = static_cast<double>(c.sat.eliminated_vars);
  r.layers["sat.failed_literals"] = static_cast<double>(c.sat.failed_literals);
  r.layers["sat.restarts"] = static_cast<double>(c.sat.restarts);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

void write_trace(const Trace& trace, const Args& args, Report& r) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (trace.write_chrome(path)) {
    r.cfg("trace_file", quoted(path));
  } else {
    r.fail("cannot write " + path);
  }
}

/// Closed loop: each pass starts when the previous one returns, for
/// `seconds` and at least once, with the set-up repeated after every pass.
/// The peak-RSS mark is reset before the first pass and read after it:
/// later passes reuse the memory, and how many of them fit in the run must
/// not move the figure.
template <typename T, typename PassFn>
auto timed_passes(double seconds, SetupTimer<T>& setup, PassFn&& pass,
                  double& rss, Report& r) {
  r.cfg("peak_rss_reset", reset_peak_rss() ? "true" : "false");
  std::vector<decltype(pass())> passes;
  const Clock::time_point t0 = Clock::now();
  do {
    passes.push_back(pass());
    if (passes.size() == 1) rss = peak_rss_mb();
    setup.between_passes();
  } while (since(t0) < seconds);
  setup.report(r);
  return passes;
}

Report run_cone_workload(const Args& args, const ConeSpec& spec,
                         const std::function<std::vector<ConeCircuit>()>& setup,
                         Report r) {
  SetupTimer<std::vector<ConeCircuit>> setup_timer(setup);
  const std::vector<ConeCircuit> circuits = setup_timer.first();
  const core::DecomposeOptions opts = decompose_options(spec);
  r.cfg("engine", quoted(core::to_string(spec.engine)));
  r.cfg("op", quoted(core::to_string(spec.op)));
  r.cfg("threads", std::to_string(spec.threads));
  r.cfg("budgets_s", "{\"po\":" + num(kPoBudget_s) + ",\"qbf_call\":" +
                         num(kQbfCallBudget_s) + ",\"circuit\":" +
                         num(kCircuitBudget_s) + "}");
  r.cfg("circuits", std::to_string(circuits.size()));

  note("warm-up pass", run_cone_pass(circuits, opts, spec.threads).wall_s);
  double rss = 0.0;
  const std::vector<ConePass> passes = timed_passes(
      args.seconds, setup_timer,
      [&] { return run_cone_pass(circuits, opts, spec.threads); }, rss, r);
  std::vector<double> walls;
  for (const ConePass& p : passes) walls.push_back(p.wall_s);
  note_passes(walls);
  const ConePass& first = passes.front();
  const std::size_t cones = first.answers.size();
  r.cfg("cones", std::to_string(cones));
  r.cfg("passes", std::to_string(passes.size()));

  std::vector<std::vector<double>> circuit_s, parse_s, lint_s;
  std::vector<double> cone_ms;
  long decided = 0, attempted = 0;
  for (const ConePass& p : passes) {
    circuit_s.push_back(p.circuit_s);
    parse_s.push_back(p.parse_s);
    lint_s.push_back(p.lint_s);
    for (const double s : p.cone_s) cone_ms.push_back(s * 1e3);
    for (std::size_t i = 0; i < p.answers.size(); ++i) {
      ++attempted;
      if (p.answers[i].status != core::DecomposeStatus::kUnknown) ++decided;
      if (i < first.answers.size() && !same_answer(p.answers[i], first.answers[i])) {
        r.fail("pass answers differ at cone " + std::to_string(i));
      }
    }
  }
  r.attempted = attempted;

  // After the passes, outside the timing: the untraced re-drive yields the
  // partitions the checks need and is the reference wall of the traced one.
  const Redrive rd = redrive_cones(circuits, opts, spec.threads, nullptr);
  note("re-drive", rd.wall_s);
  Trace trace;
  std::optional<Redrive> traced;
  if (args.trace) {
    traced = redrive_cones(circuits, opts, spec.threads, &trace);
    note("traced re-drive", traced->wall_s);
    for (std::size_t i = 0; i < cones && i < traced->cones.size(); ++i) {
      if (!same_answer(first.answers[i], traced->cones[i].answer)) {
        r.fail("cone " + std::to_string(i) + ": traced answer differs");
      }
    }
  }
  const Clock::time_point tc = Clock::now();
  check_cones(circuits, first, rd, opts, pool_workers(), r);
  note("checks", since(tc));

  int decomposed = 0, verified = 0, optimal = 0;
  double cost_sum = 0.0;
  for (std::size_t i = 0; i < cones && i < rd.cones.size(); ++i) {
    if (first.answers[i].status != core::DecomposeStatus::kDecomposed) continue;
    ++decomposed;
    if (rd.cones[i].verified) ++verified;
    if (first.answers[i].proven_optimal) ++optimal;
    cost_sum += first.answers[i].metrics.combined_cost();
  }
  const auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const long n_passes = static_cast<long>(passes.size());
  r.add("cones_per_s", static_cast<double>(cones) / median_pass_s(circuit_s),
        "1/s", "higher", n_passes);
  r.add("cone_p50_ms", percentile(cone_ms, 0.5), "ms", "lower",
        static_cast<long>(cone_ms.size()));
  r.add("cone_p90_ms", percentile(cone_ms, 0.9), "ms", "lower",
        static_cast<long>(cone_ms.size()));
  r.add("decided_frac", frac(decided, attempted), "frac", "higher", attempted);
  r.add("verified_frac", frac(verified, decomposed), "frac", "higher", decomposed);
  r.add("optimal_frac", frac(optimal, decomposed), "frac", "higher", decomposed);
  r.add("partition_cost_sum", cost_sum, "count", "lower", decomposed);
  if (first.parsed_bytes > 0) {
    const double mb = static_cast<double>(first.parsed_bytes) / 1e6;
    r.add("parse_mb_per_s", mb / median_pass_s(parse_s), "MB/s", "higher",
          n_passes);
    r.add("lint_mb_per_s", mb / median_pass_s(lint_s), "MB/s", "higher",
          n_passes);
    if (first.lint_findings != 0) {
      r.fail("lint reports " + std::to_string(first.lint_findings) + " findings");
    }
  }
  r.add("peak_rss_mb", rss, "MB", "lower", 1);

  if (args.trace) {
    const auto& root = trace.spans().front();
    summarise_trace(trace, root.start_ns, root.end_ns, r);
    add_counter_layers(traced->counters, r);
    if (traced->pool_wall_s > 0) {
      const double capacity = spec.threads * traced->pool_wall_s;
      r.layers["common.thread_pool.busy_frac"] = traced->pool_cone_s / capacity;
      r.layers["common.thread_pool.idle_s"] = capacity - traced->pool_cone_s;
    }
    r.layers["trace.overhead_s"] = traced->wall_s - rd.wall_s;
    write_trace(trace, args, r);
  }
  return r;
}

// ------------------------------------------------------------ resynth

struct ResynthPass {
  double wall_s = 0.0;
  std::vector<double> circuit_s;
  std::vector<core::CircuitResynthResult> runs;
};

core::SynthesisOptions synthesis_options(core::DecCache* cache) {
  core::SynthesisOptions opts;  // the `step resynth` settings
  opts.engine = core::Engine::kMg;
  opts.pick_best_op = true;
  opts.cache = cache;
  opts.per_node.po_budget_s = kPoBudget_s;
  opts.per_node.optimum.call_timeout_s = kQbfCallBudget_s;
  return opts;
}

/// One -j1 pass over the first `count` circuits (all by default), a fresh
/// DecCache per circuit.
ResynthPass run_resynth_pass(const std::vector<benchgen::BenchCircuit>& suite,
                             std::size_t count = SIZE_MAX) {
  ResynthPass p;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < suite.size() && i < count; ++i) {
    const benchgen::BenchCircuit& c = suite[i];
    const Clock::time_point tc = Clock::now();
    core::DecCache cache;
    p.runs.push_back(core::run_circuit_resynth(
        c.aig, c.name, synthesis_options(&cache), kCircuitBudget_s, {},
        /*verify=*/true));
    p.circuit_s.push_back(since(tc));
  }
  p.wall_s = since(t0);
  return p;
}

bool same_tree(const core::DecTreeStats& a, const core::DecTreeStats& b) {
  return a.gates == b.gates && a.cone_leaves == b.cone_leaves &&
         a.literal_leaves == b.literal_leaves && a.const_leaves == b.const_leaves &&
         a.cone_ands == b.cone_ands && a.depth == b.depth;
}

/// Independent netlist check: the rewritten PO equals the original one,
/// exhaustively over its support when that is at most 20 inputs, else by
/// a SAT miter over the shared support.
bool po_equivalent(const aig::Aig& before, const aig::Aig& after,
                   std::uint32_t po) {
  const std::vector<std::uint32_t> inputs =
      aig::structural_support(before, before.output(po));
  for (const std::uint32_t i : aig::structural_support(after, after.output(po))) {
    if (!std::binary_search(inputs.begin(), inputs.end(), i)) {
      return false;  // the rewrite reads an input the original does not
    }
  }
  if (inputs.size() <= 20) {
    return aig::truth_table(before, before.output(po), inputs) ==
           aig::truth_table(after, after.output(po), inputs);
  }
  auto cone_over = [&](const aig::Aig& src) {
    core::Cone c;
    std::vector<aig::Lit> map(src.num_inputs(), aig::kLitFalse);
    for (const std::uint32_t i : inputs) map[i] = c.aig.add_input();
    c.root = aig::copy_cone(src, src.output(po), c.aig, map);
    return c;
  };
  return core::cones_equivalent(cone_over(before), cone_over(after));
}

struct ResynthRedrive {
  double wall_s = 0.0;
  int splits = 0;
  core::DecCacheStats cache;
  std::vector<std::string> mismatches;  ///< against the timed pass
};

/// Re-drives run_circuit_resynth's per-PO steps at -j1, one span per call
/// when `log` is enabled; its trees must equal those of the timed pass.
ResynthRedrive redrive_resynth(const std::vector<benchgen::BenchCircuit>& suite,
                               const ResynthPass& first, SpanLog& log) {
  ResynthRedrive out;
  const Clock::time_point tr = Clock::now();
  log.span("pass", -1, [&] {
    for (std::size_t c = 0; c < suite.size(); ++c) {
      const aig::Aig& circuit = suite[c].aig;
      const core::CircuitResynthResult& ref = first.runs[c];
      log.span("circuit", -1, [&] {
        core::DecCache cache;
        core::SynthesisOptions sopts = synthesis_options(&cache);
        Deadline circuit_deadline(kCircuitBudget_s);
        sopts.per_node.run_deadline = &circuit_deadline;
        aig::Aig dst;
        std::vector<aig::Lit> pi_map(circuit.num_inputs());
        for (std::uint32_t i = 0; i < circuit.num_inputs(); ++i) {
          pi_map[i] = dst.add_input(circuit.input_name(i));
        }
        std::vector<std::shared_ptr<const core::DecTree>> trees;
        std::vector<std::vector<std::uint32_t>> inputs(circuit.num_outputs());
        core::SynthesisStats stats;
        for (std::uint32_t po = 0; po < circuit.num_outputs(); ++po) {
          const int id = static_cast<int>(po);
          log.span("po", id, [&] {
            const core::Cone cone = log.span("core.cone_extract", id, [&] {
              return core::extract_po_cone(circuit, po, &inputs[po]);
            });
            const int depth = log.span("core.synthesis.depth", id, [&] {
              return core::cone_depth(circuit, circuit.output(po));
            });
            core::SynthesisStats st;
            st.pos_processed = 1;
            auto tree = log.span("core.synthesis.tree", id, [&] {
              return core::decompose_to_tree(cone, sopts, &st, &circuit_deadline);
            });
            const bool ok = log.span("core.synthesis.verify", id, [&] {
              return core::tree_equivalent(cone, *tree);
            });
            if (!ok || depth != ref.pos[po].depth_before ||
                !same_tree(tree->stats(), ref.pos[po].tree)) {
              out.mismatches.push_back(
                  ref.circuit + " po " + std::to_string(po) +
                  ": re-driven tree differs from run_circuit_resynth");
            }
            stats += st;
            trees.push_back(std::move(tree));
          });
        }
        log.span("core.synthesis.assemble", -1, [&] {
          for (std::uint32_t po = 0; po < circuit.num_outputs(); ++po) {
            std::vector<aig::Lit> in(inputs[po].size());
            for (std::size_t i = 0; i < in.size(); ++i) in[i] = pi_map[inputs[po][i]];
            dst.add_output(core::emit_tree(*trees[po], dst, in));
          }
        });
        if (dst.num_ands() != ref.stats.ands_after) {
          out.mismatches.push_back(
              ref.circuit + ": re-driven netlist has " +
              std::to_string(dst.num_ands()) + " ANDs, run_circuit_resynth " +
              std::to_string(ref.stats.ands_after));
        }
        const core::DecCacheStats cs = cache.stats();
        out.cache.lookups += cs.lookups;
        out.cache.npn_hits += cs.npn_hits;
        out.cache.sig_hits += cs.sig_hits;
        out.cache.sat_confirms += cs.sat_confirms;
        out.splits += stats.decompositions;
      });
    }
  });
  out.wall_s = since(tr);
  return out;
}

/// The re-drive once without spans (the reference wall) and once with
/// them; the traced answers must equal the timed pass's.
void trace_resynth(const std::vector<benchgen::BenchCircuit>& suite,
                   const ResynthPass& first, int splits, const Args& args,
                   Report& r) {
  SpanLog off(false, Clock::now());
  const double untraced_wall = redrive_resynth(suite, first, off).wall_s;
  note("re-drive", untraced_wall);
  Trace trace;
  SpanLog log(true, Clock::now());
  const ResynthRedrive traced = redrive_resynth(suite, first, log);
  note("traced re-drive", traced.wall_s);
  for (const std::string& m : traced.mismatches) r.fail(m);
  if (traced.splits != splits) r.fail("re-driven split count differs");
  trace.absorb(log, -1);
  const auto& root = trace.spans().front();
  summarise_trace(trace, root.start_ns, root.end_ns, r);
  r.layers["core.synthesis.splits"] = traced.splits;
  r.layers["core.dec_cache.lookups"] = static_cast<double>(traced.cache.lookups);
  r.layers["core.dec_cache.hit_rate"] = traced.cache.hit_rate();
  r.layers["core.dec_cache.sat_confirms"] =
      static_cast<double>(traced.cache.sat_confirms);
  r.layers["trace.overhead_s"] = traced.wall_s - untraced_wall;
  write_trace(trace, args, r);
}

Report run_resynth(const Args& args, Report r) {
  const std::function<std::vector<benchgen::BenchCircuit>()> setup = [&] {
    std::vector<benchgen::BenchCircuit> s = small_suite(args.seed);
    s.erase(std::remove_if(s.begin(), s.end(),
                           [](const benchgen::BenchCircuit& b) {
                             return b.name == kResynthExcluded;
                           }),
            s.end());
    return s;
  };
  SetupTimer<std::vector<benchgen::BenchCircuit>> setup_timer(setup);
  const std::vector<benchgen::BenchCircuit> suite = setup_timer.first();
  check_suite_copy(r);
  r.cfg("generator", quoted("standard_suite(kSmall) minus xmm9a; seed != 0 "
                            "redraws random_dag/random_sop"));
  r.cfg("excluded", "{\"xmm9a\":" +
                        quoted("alone ~14 of ~22 s of a pass and 73 -> ~44k "
                               "ANDs: one pathological recursion") + "}");
  r.cfg("engine", quoted("STEP-MG"));
  r.cfg("ops", quoted("OR,AND,XOR pick_best_op"));
  r.cfg("cache", quoted("one DecCache per circuit"));
  r.cfg("threads", "1");
  r.cfg("verify", "true");
  r.cfg("budgets_s", "{\"po\":" + num(kPoBudget_s) + ",\"circuit\":" +
                         num(kCircuitBudget_s) + "}");
  r.cfg("circuits", std::to_string(suite.size()));

  note("warm-up", run_resynth_pass(suite, kResynthWarmupCircuits).wall_s);
  double rss = 0.0;
  const std::vector<ResynthPass> passes = timed_passes(
      args.seconds, setup_timer, [&] { return run_resynth_pass(suite); }, rss,
      r);
  std::vector<double> walls;
  for (const ResynthPass& p : passes) walls.push_back(p.wall_s);
  note_passes(walls);
  r.cfg("passes", std::to_string(passes.size()));

  const ResynthPass& first = passes.front();
  std::vector<std::vector<double>> circuit_s;
  std::vector<double> po_ms;
  long attempted = 0, decided = 0, verified = 0, pos = 0;
  for (const ResynthPass& p : passes) {
    circuit_s.push_back(p.circuit_s);
    for (std::size_t c = 0; c < p.runs.size(); ++c) {
      const core::CircuitResynthResult& run = p.runs[c];
      const core::CircuitResynthResult& ref = first.runs[c];
      for (std::size_t i = 0; i < run.pos.size(); ++i) {
        ++attempted;
        po_ms.push_back(run.pos[i].cpu_s * 1e3);
        if (run.pos[i].reason == core::OutcomeReason::kOk) {
          ++decided;
        } else {
          r.fail(run.circuit + " po " + std::to_string(i) + ": " +
                 core::to_string(run.pos[i].reason));
        }
        if (!same_tree(run.pos[i].tree, ref.pos[i].tree)) {
          r.fail(run.circuit + " po " + std::to_string(i) +
                 ": tree differs between passes");
        }
      }
    }
  }
  r.attempted = attempted;

  // Checks: the in-pass tree miter per PO plus an independent PO-by-PO
  // comparison of the assembled netlist against the original circuit.
  double log_ands = 0.0, log_depth = 0.0;
  int splits = 0;
  std::uint32_t ands_after = 0;
  for (std::size_t c = 0; c < suite.size(); ++c) {
    const core::CircuitResynthResult& run = first.runs[c];
    for (std::uint32_t po = 0; po < run.pos.size(); ++po) {
      ++pos;
      const bool ok = run.pos[po].verified &&
                      po_equivalent(suite[c].aig, run.network, po);
      if (ok) {
        ++verified;
      } else {
        r.fail(run.circuit + " po " + std::to_string(po) + ": not equivalent");
      }
    }
    log_ands += std::log(static_cast<double>(run.stats.ands_after) /
                         std::max<std::uint32_t>(run.stats.ands_before, 1));
    log_depth += std::log(static_cast<double>(std::max(run.stats.depth_after, 1)) /
                          std::max(run.stats.depth_before, 1));
    splits += run.stats.decompositions;
    ands_after += run.stats.ands_after;
  }
  const double k = static_cast<double>(std::max<std::size_t>(suite.size(), 1));
  r.cfg("splits", std::to_string(splits));
  r.cfg("ands_after", std::to_string(ands_after));
  r.add("cones_per_s", static_cast<double>(pos) / median_pass_s(circuit_s),
        "1/s", "higher", static_cast<long>(passes.size()));
  r.add("cone_p50_ms", percentile(po_ms, 0.5), "ms", "lower",
        static_cast<long>(po_ms.size()));
  r.add("cone_p90_ms", percentile(po_ms, 0.9), "ms", "lower",
        static_cast<long>(po_ms.size()));
  r.add("decided_frac", static_cast<double>(decided) / std::max(attempted, 1L),
        "frac", "higher", attempted);
  r.add("verified_frac", static_cast<double>(verified) / std::max(pos, 1L),
        "frac", "higher", pos);
  r.add("ands_ratio", std::exp(log_ands / k), "ratio", "lower",
        static_cast<long>(suite.size()));
  r.add("depth_ratio", std::exp(log_depth / k), "ratio", "lower",
        static_cast<long>(suite.size()));
  r.add("peak_rss_mb", rss, "MB", "lower", 1);

  if (args.trace) {
    trace_resynth(suite, first, splits, args, r);
  }
  return r;
}

// --------------------------------------------------------------- main

int usage() {
  std::fprintf(stderr,
               "usage: stepbench --workload "
               "<search-qdb|decoder-cones|resynth-mg>\n"
               "                 [--seed n] [--seconds s] [--trace 0|1] "
               "[--out dir]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (flag == "--out") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }

  Report r;
  r.workload = args.workload;
  r.seed = args.seed;
  r.traced = args.trace;

  if (args.workload == "search-qdb") {
    r.cfg("generator", quoted("standard_suite(kSmall); seed != 0 redraws "
                              "random_dag/random_sop"));
    const std::uint64_t seed = args.seed;
    r = run_cone_workload(
        args, {core::Engine::kQbfCombined, core::GateOp::kOr, 1},
        [seed] {
          std::vector<ConeCircuit> out;
          for (benchgen::BenchCircuit& b : small_suite(seed)) {
            out.push_back({b.name, std::move(b.aig), "", 0});
          }
          return out;
        },
        std::move(r));
    check_suite_copy(r);
  } else if (args.workload == "decoder-cones") {
    r.cfg("generator", quoted("epfl_decoder(14) as binary AIGER, parsed and "
                              "linted each pass"));
    r = run_cone_workload(
        args, {core::Engine::kQbfDisjoint, core::GateOp::kAnd, pool_workers()},
        [] {
          ConeCircuit c{"epfl_decoder_14", benchgen::epfl_decoder(14), "", 0};
          c.aiger = io::write_aiger_binary(c.aig);
          c.signature = sim_signature(c.aig);
          std::vector<ConeCircuit> out;
          out.push_back(std::move(c));
          return out;
        },
        std::move(r));
  } else if (args.workload == "resynth-mg") {
    r = run_resynth(args, std::move(r));
  } else {
    return usage();
  }
  print_report(r);
  return 0;
}
