#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchgen/suite.h"
#include "common/rng.h"
#include "core/circuit_driver.h"

namespace step::bench {

// ---- SAT solver configurations A/B'd by the benches --------------------
// One definition so the committed BENCH_sat.json, the google-benchmark
// micro variants and any future consumer compare the *same* baselines.

/// The shipping defaults (Luby restarts, LBD tiers, binary watch lists).
inline sat::SolverOptions modern_sat_config() { return {}; }

/// LBD tiers off: every learnt is local, and only the old size-triggered
/// activity-only halving reduces the database.
inline sat::SolverOptions legacy_sat_config() {
  sat::SolverOptions o;
  o.core_lbd_cut = 0;
  o.tier2_lbd_cut = 0;
  o.reduce_interval = 1 << 30;
  o.reduce_min_local = 0;
  return o;
}

// ---- shared micro SAT instances ----------------------------------------

/// Pigeonhole principle with `holes`+1 pigeons (UNSAT).
inline void add_pigeonhole(sat::Solver& s, int holes) {
  std::vector<std::vector<sat::Var>> p(holes + 1, std::vector<sat::Var>(holes));
  for (auto& row : p) {
    for (auto& v : row) v = s.new_var();
  }
  for (auto& row : p) {
    sat::LitVec c;
    for (auto v : row) c.push_back(sat::mk_lit(v));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i <= holes; ++i) {
      for (int j = i + 1; j <= holes; ++j) {
        s.add_clause({~sat::mk_lit(p[i][h]), ~sat::mk_lit(p[j][h])});
      }
    }
  }
}

/// Uniform random 3-CNF at the given clause/variable ratio.
inline void add_random3cnf(sat::Solver& s, int nv, double ratio,
                           std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < nv; ++i) s.new_var();
  const int nc = static_cast<int>(nv * ratio);
  for (int c = 0; c < nc; ++c) {
    sat::LitVec cl;
    for (int j = 0; j < 3; ++j) {
      cl.push_back(sat::mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
    }
    s.add_clause(cl);
  }
}

/// Parses `<flag> <path>` from argv; empty string = flag absent.
inline std::string path_from_args(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing output path\n", flag);
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  return {};
}

/// True iff the bare flag appears in argv.
inline bool flag_from_args(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Parses `--json <path>` from argv; empty string = no JSON output.
inline std::string json_path_from_args(int argc, char** argv) {
  return path_from_args(argc, argv, "--json");
}

/// Tiny streaming JSON writer — just enough structure for the bench
/// artifacts (objects, arrays, scalars), so the perf trajectory files are
/// machine-readable without pulling in a JSON dependency.
class JsonWriter {
 public:
  explicit JsonWriter(FILE* f) : f_(f) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(const char* k) {
    separate();
    write_string(k);
    std::fputc(':', f_);
    pending_value_ = true;
  }

  void value(const char* s) { scalar(); write_string(s); }
  void value(const std::string& s) { value(s.c_str()); }
  void value(double d) { scalar(); std::fprintf(f_, "%.6f", d); }
  void value(long long i) { scalar(); std::fprintf(f_, "%lld", i); }
  void value(std::uint64_t i) {
    scalar();
    std::fprintf(f_, "%llu", static_cast<unsigned long long>(i));
  }
  void value(int i) { value(static_cast<long long>(i)); }
  void value(long i) { value(static_cast<long long>(i)); }
  void value(bool b) { scalar(); std::fputs(b ? "true" : "false", f_); }

  template <typename T>
  void kv(const char* k, T v) {
    key(k);
    value(v);
  }

 private:
  void open(char c) {
    separate();
    std::fputc(c, f_);
    nonempty_.push_back(false);
  }
  void close(char c) {
    nonempty_.pop_back();
    std::fputc(c, f_);
  }
  void scalar() { separate(); }
  /// Emits the comma before a sibling element; a value right after key()
  /// is not a sibling.
  void separate() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!nonempty_.empty()) {
      if (nonempty_.back()) std::fputc(',', f_);
      nonempty_.back() = true;
    }
  }
  void write_string(const char* s) {
    std::fputc('"', f_);
    for (; *s != '\0'; ++s) {
      if (*s == '"' || *s == '\\') std::fputc('\\', f_);
      std::fputc(*s, f_);
    }
    std::fputc('"', f_);
  }

  FILE* f_;
  std::vector<bool> nonempty_;
  bool pending_value_ = false;
};

/// Parses `-j <n>` from argv, falling back to STEP_BENCH_THREADS, then to
/// 1 (the sequential reference run). 0 means "all hardware threads".
/// Rejects missing or non-numeric values loudly: a silently mis-parsed
/// thread count would skew the published table numbers.
inline core::ParallelDriverOptions parallel_from_env_or_args(int argc,
                                                             char** argv) {
  auto parse_count = [](const char* what, const char* text) {
    char* end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 0) {
      std::fprintf(stderr, "%s: expected a thread count >= 0, got \"%s\"\n",
                   what, text);
      std::exit(2);
    }
    return static_cast<int>(v);
  };
  core::ParallelDriverOptions par;
  if (const char* env = std::getenv("STEP_BENCH_THREADS")) {
    par.num_threads = parse_count("STEP_BENCH_THREADS", env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-j") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "-j: missing thread count\n");
        std::exit(2);
      }
      par.num_threads = parse_count("-j", argv[++i]);
    }
  }
  return par;
}

/// Emits the common per-run counters of one engine×circuit run as keys of
/// the currently open JSON object.
inline void json_run_stats(JsonWriter& j, const core::CircuitRunResult& r) {
  j.kv("pos", static_cast<long long>(r.pos.size()));
  j.kv("decomposed", r.num_decomposed());
  j.kv("proven_optimal", r.num_proven_optimal());
  j.kv("cpu_s", r.total_cpu_s);
  j.kv("sat_calls", r.total_sat_calls());
  j.kv("qbf_calls", r.total_qbf_calls());
  j.kv("qbf_iterations", r.total_qbf_iterations());
  j.kv("abstraction_conflicts", r.total_abstraction_conflicts());
  j.kv("verification_conflicts", r.total_verification_conflicts());
  // The per-reason outcome taxonomy (core/outcome.h): "ok" always appears,
  // other reasons only when nonzero — artifact diffs then surface any new
  // failure mode a perf change introduces.
  const core::OutcomeCounts oc = r.outcome_counts();
  j.key("outcomes");
  j.begin_object();
  for (int i = 0; i < core::kNumOutcomeReasons; ++i) {
    const auto reason = static_cast<core::OutcomeReason>(i);
    if (reason != core::OutcomeReason::kOk && oc.of(reason) == 0) continue;
    j.kv(core::to_string(reason), oc.of(reason));
  }
  j.end_object();
  j.kv("degraded", r.num_degraded());
}

/// Budgets scaled to the suite size (the paper: 6000 s per circuit, 4 s per
/// QBF call on a 2.93 GHz Xeon; our suite is ~100x smaller).
struct BenchBudgets {
  double circuit_s = 20.0;
  double po_s = 2.0;
  double qbf_call_s = 0.25;
};

inline BenchBudgets budgets_for(benchgen::SuiteScale scale) {
  switch (scale) {
    case benchgen::SuiteScale::kTiny: return {5.0, 1.0, 0.25};
    case benchgen::SuiteScale::kSmall: return {20.0, 2.0, 0.25};
    case benchgen::SuiteScale::kFull: return {120.0, 6.0, 1.0};
  }
  return {};
}

inline core::DecomposeOptions engine_options(core::Engine engine,
                                             core::GateOp op,
                                             const BenchBudgets& b) {
  core::DecomposeOptions o;
  o.engine = engine;
  o.op = op;
  o.po_budget_s = b.po_s;
  o.optimum.call_timeout_s = b.qbf_call_s;
  // Benches time the partition search; extraction/verification are
  // exercised by the test suite and the examples.
  o.extract = false;
  o.verify = false;
  return o;
}

/// One engine across the whole suite.
inline std::vector<core::CircuitRunResult> run_suite(
    const std::vector<benchgen::BenchCircuit>& suite, core::Engine engine,
    core::GateOp op, const BenchBudgets& b,
    const core::ParallelDriverOptions& par = {}) {
  std::vector<core::CircuitRunResult> out;
  out.reserve(suite.size());
  for (const benchgen::BenchCircuit& c : suite) {
    out.push_back(core::run_circuit(
        c.aig, c.name, engine_options(engine, op, b), b.circuit_s, par));
  }
  return out;
}

inline const char* scale_name(benchgen::SuiteScale s) {
  switch (s) {
    case benchgen::SuiteScale::kTiny: return "tiny";
    case benchgen::SuiteScale::kSmall: return "small";
    case benchgen::SuiteScale::kFull: return "full";
  }
  return "?";
}

inline void print_preamble(const char* what, benchgen::SuiteScale scale) {
  std::printf("# %s\n", what);
  std::printf("# suite scale: %s (STEP_BENCH_SCALE=tiny|small|full)\n",
              scale_name(scale));
  std::printf(
      "# substitution note: generator suite stands in for ISCAS/ITC/LGSYNTH"
      " (DESIGN.md par.4)\n");
}

}  // namespace step::bench
