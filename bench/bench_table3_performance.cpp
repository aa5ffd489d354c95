// Reproduces Table III: "Performance data for OR bi-decomposition" —
// #Dec (functions decomposed) and CPU seconds per circuit for
// LJH, STEP-MG and STEP-{QD,QB,QDB} — and times the optimum-search loop
// of the QBF engines on its own, checking its answers against the
// brute-force oracles (core/partition_check.h) on every cone of at most
// 10 inputs.
//
// `--json <path>` additionally writes the whole run machine-readably
// (per-circuit per-engine wall/calls/iterations/conflicts plus the
// search-loop section); CI emits BENCH_table3.json.
//
// `--sat-json <path>` runs the SAT-configuration A/B on top: the same
// optimum-search loop under the shipped solver ("modern": LBD tiers, Luby
// restarts) and the same solver with LBD tiers off ("legacy":
// activity-only reduction), plus a few micro SAT instances, written to
// BENCH_sat.json. CI fails when the modern configuration regresses the
// search-loop wall time by >10% against legacy measured in the same run.
// `--ab-only` skips the (slow) per-circuit table for exactly that use.

#include <array>
#include <cstdio>
#include <cstring>
#include <utility>

#include "bench_common.h"

namespace {

using namespace step;
using core::Engine;

struct EngineCell {
  core::CircuitRunResult run;
};

/// Micro SAT instances solved directly (no google-benchmark dependency so
/// the JSON is produced even where the library is absent), built from the
/// shared generators in bench_common.h.
struct MicroResult {
  const char* name;
  double wall_s = 0.0;
  std::uint64_t conflicts = 0;
  bool unsat = false;
};

MicroResult run_pigeonhole(const char* name, int holes,
                           const sat::SolverOptions& cfg) {
  MicroResult res{name};
  Timer t;
  sat::Solver s(cfg);
  bench::add_pigeonhole(s, holes);
  res.unsat = s.solve() == sat::Result::kUnsat;
  res.wall_s = t.elapsed_s();
  res.conflicts = s.stats().conflicts;
  return res;
}

MicroResult run_random3cnf(const char* name, int nv, std::uint64_t seed,
                           const sat::SolverOptions& cfg) {
  MicroResult res{name};
  Timer t;
  sat::Solver s(cfg);
  bench::add_random3cnf(s, nv, 4.2, seed);
  res.unsat = s.solve() == sat::Result::kUnsat;
  res.wall_s = t.elapsed_s();
  res.conflicts = s.stats().conflicts;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const auto scale = benchgen::scale_from_env();
  const auto suite = benchgen::standard_suite(scale);
  const auto budgets = bench::budgets_for(scale);
  const auto par = bench::parallel_from_env_or_args(argc, argv);
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::string sat_json_path =
      bench::path_from_args(argc, argv, "--sat-json");
  const bool ab_only = bench::flag_from_args(argc, argv, "--ab-only");
  if (!json_path.empty() && ab_only) {
    std::fprintf(stderr, "--json is unavailable with --ab-only"
                         " (the per-circuit table is skipped)\n");
    return 2;
  }
  bench::print_preamble("Table III: performance data for OR bi-decomposition",
                        scale);
  std::printf("# threads per circuit: %d (-j N or STEP_BENCH_THREADS)\n",
              par.num_threads);

  const Engine engines[] = {Engine::kLjh, Engine::kMg, Engine::kQbfDisjoint,
                            Engine::kQbfBalanced, Engine::kQbfCombined};
  const Engine qbf_engines[] = {Engine::kQbfDisjoint, Engine::kQbfBalanced,
                                Engine::kQbfCombined};
  const core::QbfModel qbf_models[] = {core::QbfModel::kQD, core::QbfModel::kQB,
                                       core::QbfModel::kQDB};

  // cells[c][e]: full run result, kept for the JSON artifact. Each cell is
  // the fastest of kTableRepeats runs (answers are deterministic, CPU time
  // is not), so totals[e] sums per-circuit minima.
  constexpr int kTableRepeats = 3;
  std::vector<std::vector<EngineCell>> cells(suite.size());
  double totals[5] = {};
  int dec_totals[5] = {};
  if (!ab_only) {
    std::printf("# CPU per cell: min of %d runs\n", kTableRepeats);
    std::printf("%-10s %-10s %5s %5s |", "Circuit", "(standin)", "#In", "#InM");
    for (Engine e : engines) {
      std::printf(" %8s %9s |", core::to_string(e), "CPU(s)");
    }
    std::printf("\n");

    for (std::size_t c = 0; c < suite.size(); ++c) {
      const benchgen::BenchCircuit& circ = suite[c];
      std::printf("%-10s %-10s %5u", circ.name.c_str(),
                  circ.standin_for.c_str(), circ.aig.num_inputs());
      bool first = true;
      for (int e = 0; e < 5; ++e) {
        const core::DecomposeOptions opts =
            bench::engine_options(engines[e], core::GateOp::kOr, budgets);
        auto run = [&] {
          return core::run_circuit(circ.aig, circ.name, opts,
                                   budgets.circuit_s, par);
        };
        core::CircuitRunResult r = run();
        for (int rep = 1; rep < kTableRepeats; ++rep) {
          core::CircuitRunResult again = run();
          if (again.total_cpu_s < r.total_cpu_s) r = std::move(again);
        }
        if (first) {
          std::printf(" %5d |", r.max_support());
          first = false;
        }
        std::printf(" %4d/%-3zu %9.2f |", r.num_decomposed(), r.pos.size(),
                    r.total_cpu_s);
        totals[e] += r.total_cpu_s;
        dec_totals[e] += r.num_decomposed();
        cells[c].push_back(EngineCell{std::move(r)});
      }
      std::printf("\n");
      std::fflush(stdout);
    }

    std::printf("%-33s", "TOTAL (#Dec / CPU s)");
    for (int e = 0; e < 5; ++e) {
      std::printf(" %4d %11.2f |", dec_totals[e], totals[e]);
    }
    std::printf("\n");
    std::printf(
        "# shape check (paper): #Dec(Q*) == #Dec(MG) >= #Dec(LJH);"
        " CPU: MG < QB < QD < QDB among STEP engines; LJH slowest on most\n"
        "# circuits (the paper, like us, has QDB overtake LJH on some rows,"
        " e.g. s38584.1)\n");
  }  // !ab_only

  // ---- don't-care A/B: windowed-DC vs exact decomposability --------------
  // Same driver, same engine/op/budgets; the only difference is
  // use_dont_cares. Extraction + verification stay ON so every windowed
  // decomposition that counts has been SAT-verified against its window
  // before splicing. DC mode falls back to the exact cone per PO, so
  // #Dec(dc) >= #Dec(exact) is a hard invariant (CI gates on it); the
  // dc-window suite circuit makes the improvement strict.
  struct DcAb {
    core::CircuitRunResult exact, dc;
  };
  std::vector<DcAb> dc_ab(suite.size());
  int dc_total_exact = 0, dc_total_dc = 0;
  if (!ab_only) {
    std::printf("\n# don't-care A/B (STEP-MG, OR, extract+verify on):\n");
    std::printf("%-10s %9s %9s %8s %8s %10s %9s %9s\n", "circuit", "exactDec",
                "dcDec", "windows", "winDec", "sdc", "cpu0(s)", "cpu1(s)");
    for (std::size_t c = 0; c < suite.size(); ++c) {
      const benchgen::BenchCircuit& circ = suite[c];
      core::DecomposeOptions o = bench::engine_options(
          core::Engine::kMg, core::GateOp::kOr, budgets);
      o.extract = true;
      o.verify = true;
      dc_ab[c].exact =
          core::run_circuit(circ.aig, circ.name, o, budgets.circuit_s, par);
      o.use_dont_cares = true;
      dc_ab[c].dc =
          core::run_circuit(circ.aig, circ.name, o, budgets.circuit_s, par);
      const core::CircuitRunResult& ex = dc_ab[c].exact;
      const core::CircuitRunResult& dc = dc_ab[c].dc;
      dc_total_exact += ex.num_decomposed();
      dc_total_dc += dc.num_decomposed();
      std::printf("%-10s %6d/%-2zu %6d/%-2zu %8d %8d %10llu %9.3f %9.3f\n",
                  circ.name.c_str(), ex.num_decomposed(), ex.pos.size(),
                  dc.num_decomposed(), dc.pos.size(), dc.num_windows_built(),
                  dc.num_window_decomposed(),
                  static_cast<unsigned long long>(
                      dc.total_window_sdc_minterms()),
                  ex.total_cpu_s, dc.total_cpu_s);
      std::fflush(stdout);
    }
    std::printf("# dc totals: exact=%d dc=%d (dc >= exact must hold;"
                " strictly more on the dc-window circuit)\n",
                dc_total_exact, dc_total_dc);
  }

  // Shared search-loop workload of the two sections below: matrices and
  // MG bootstraps are prepared once, outside every timer.
  struct Workload {
    core::Cone cone;
    core::RelaxationMatrix matrix;
    std::optional<core::Partition> bootstrap;
  };
  std::vector<Workload> work;
  for (const benchgen::BenchCircuit& circ : suite) {
    for (std::uint32_t po = 0; po < circ.aig.num_outputs(); ++po) {
      const core::Cone cone = core::extract_po_cone(circ.aig, po);
      if (cone.n() < 2) continue;
      Workload w;
      w.cone = cone;
      w.matrix = core::build_relaxation_matrix(cone, core::GateOp::kOr);
      core::RelaxationSolver rs(w.matrix);
      core::MgDecomposer mg(rs);
      const core::PartitionSearchResult r = mg.find_partition();
      if (!r.found) continue;  // MG is exact on decomposability
      w.bootstrap = r.partition;
      work.push_back(std::move(w));
    }
  }
  std::printf("# workload: %zu decomposable OR cones, MG-bootstrapped\n",
              work.size());

  // ---- the optimum-search loop on its own --------------------------------
  // Each engine runs the full bound-search schedule over every cone.
  // Counters are deterministic; wall time is the minimum of kRepeats runs.
  // Every cone of at most 10 inputs is then checked against the
  // brute-force oracles, which share no code with the search: the found
  // partition must be valid, its cost no lower than the optimum, and a
  // proven-optimal cost equal to it. Skipped under --ab-only, which runs
  // the SAT-configuration A/B alone.
  struct LoopResult {
    int found = 0;
    long qbf_calls = 0;
    long iterations = 0;
    std::uint64_t abs_conflicts = 0;
    std::uint64_t ver_conflicts = 0;
    double wall_s = 0.0;
    /// Per-cone answers; deterministic across repeats, so any pass's stand.
    std::vector<core::OptimumResult> answers;
  };
  constexpr int kRepeats = 3;
  constexpr int kOracleMaxInputs = 10;  // brute_force_optimum's limit
  LoopResult loop[3];
  long oracle_checked = 0;
  long oracle_mismatches = 0;  // across all engines
  if (!ab_only) {
    std::printf("\n# optimum-search loop (OR, whole suite, search loop"
                " only):\n");
    std::printf("%-10s %6s %9s %10s %11s %12s\n", "Engine", "found", "CPU(s)",
                "qbf_calls", "iterations", "conflicts");
    for (int e = 0; e < 3; ++e) {
      LoopResult& res = loop[e];
      for (int rep = 0; rep < kRepeats; ++rep) {
        LoopResult pass;
        Timer t;
        for (const Workload& w : work) {
          core::OptimumOptions o;
          o.call_timeout_s = budgets.qbf_call_s;
          core::QbfPartitionFinder finder(w.matrix);
          core::OptimumSearch search(finder, qbf_models[e], o);
          core::OptimumResult r = search.run(w.bootstrap);
          if (r.outcome == core::OptimumResult::Outcome::kFound) ++pass.found;
          pass.qbf_calls += finder.qbf_calls();
          pass.iterations += finder.total_iterations();
          pass.abs_conflicts += finder.abstraction_conflicts();
          pass.ver_conflicts += finder.verification_conflicts();
          pass.answers.push_back(std::move(r));
        }
        pass.wall_s = t.elapsed_s();
        if (rep == 0 || pass.wall_s < res.wall_s) res = std::move(pass);
      }
      std::printf("%-10s %6d %9.3f %10ld %11ld %12llu\n",
                  core::to_string(qbf_engines[e]), res.found, res.wall_s,
                  res.qbf_calls, res.iterations,
                  static_cast<unsigned long long>(res.abs_conflicts +
                                                  res.ver_conflicts));
      std::fflush(stdout);
    }
    using Outcome = core::OptimumResult::Outcome;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const core::Cone& cone = work[i].cone;
      if (cone.n() > kOracleMaxInputs) continue;
      ++oracle_checked;
      for (int e = 0; e < 3; ++e) {
        const core::BruteForceResult oracle = core::brute_force_optimum(
            cone, core::GateOp::kOr, core::metric_of(qbf_models[e]));
        const core::OptimumResult& r = loop[e].answers[i];
        bool ok =
            r.outcome != Outcome::kNotDecomposable || !oracle.decomposable;
        if (r.outcome == Outcome::kFound) {
          ok = oracle.decomposable &&
               core::check_partition_exhaustive(cone, core::GateOp::kOr,
                                                r.best) &&
               r.best_cost >= oracle.best_cost &&
               (!r.proven_optimal || r.best_cost == oracle.best_cost);
        }
        if (!ok) ++oracle_mismatches;
      }
    }
    std::printf("# oracle: %ld cones of <= %d inputs checked against"
                " brute_force_optimum / check_partition_exhaustive;"
                " mismatches (must be 0): %ld\n",
                oracle_checked, kOracleMaxInputs, oracle_mismatches);
  }  // !ab_only

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    bench::JsonWriter j(f);
    j.begin_object();
    j.kv("bench", "table3_performance");
    j.kv("scale", bench::scale_name(scale));
    j.kv("threads", par.num_threads);
    j.kv("table_repeats", kTableRepeats);
    j.kv("op", "or");
    j.key("circuits");
    j.begin_array();
    for (std::size_t c = 0; c < suite.size(); ++c) {
      j.begin_object();
      j.kv("name", suite[c].name);
      j.kv("standin_for", suite[c].standin_for);
      j.kv("inputs", static_cast<long long>(suite[c].aig.num_inputs()));
      j.kv("max_support", cells[c][0].run.max_support());
      j.key("engines");
      j.begin_array();
      for (int e = 0; e < 5; ++e) {
        j.begin_object();
        j.kv("engine", core::to_string(engines[e]));
        bench::json_run_stats(j, cells[c][e].run);
        j.end_object();
      }
      j.end_array();
      j.end_object();
    }
    j.end_array();
    j.key("totals");
    j.begin_array();
    for (int e = 0; e < 5; ++e) {
      j.begin_object();
      j.kv("engine", core::to_string(engines[e]));
      j.kv("decomposed", dec_totals[e]);
      j.kv("cpu_s", totals[e]);
      j.end_object();
    }
    j.end_array();
    j.key("dc_ab");
    j.begin_object();
    j.kv("engine", "STEP-MG");
    j.kv("op", "or");
    j.kv("measures", "run_circuit with extract+verify; dc = SDC windows +"
                     " care-set decomposition with exact fallback");
    j.kv("total_exact_decomposed", dc_total_exact);
    j.kv("total_dc_decomposed", dc_total_dc);
    j.key("circuits");
    j.begin_array();
    for (std::size_t c = 0; c < suite.size(); ++c) {
      const core::CircuitRunResult& ex = dc_ab[c].exact;
      const core::CircuitRunResult& dc = dc_ab[c].dc;
      j.begin_object();
      j.kv("name", suite[c].name);
      j.kv("pos", static_cast<long long>(ex.pos.size()));
      j.kv("exact_decomposed", ex.num_decomposed());
      j.kv("dc_decomposed", dc.num_decomposed());
      j.kv("windows_built", dc.num_windows_built());
      j.kv("window_decomposed", dc.num_window_decomposed());
      j.kv("sdc_minterms", dc.total_window_sdc_minterms());
      j.kv("care_sat_completions", dc.total_window_sat_completions());
      j.kv("cpu_exact_s", ex.total_cpu_s);
      j.kv("cpu_dc_s", dc.total_cpu_s);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    j.key("search_loop");
    j.begin_object();
    j.kv("workload_cones", static_cast<long long>(work.size()));
    j.kv("repeats", kRepeats);
    j.kv("oracle_checked", oracle_checked);
    j.kv("oracle_mismatches", oracle_mismatches);
    j.kv("measures", "optimum-search loop only (matrices + MG bootstrap"
                     " prepared outside the timer); wall = min over repeats;"
                     " oracle = brute_force_optimum and"
                     " check_partition_exhaustive on cones of <= 10 inputs");
    j.key("engines");
    j.begin_array();
    for (int e = 0; e < 3; ++e) {
      j.begin_object();
      j.kv("engine", core::to_string(qbf_engines[e]));
      j.kv("found", loop[e].found);
      j.kv("wall_s", loop[e].wall_s);
      j.kv("qbf_calls", loop[e].qbf_calls);
      j.kv("qbf_iterations", loop[e].iterations);
      j.kv("abstraction_conflicts", loop[e].abs_conflicts);
      j.kv("verification_conflicts", loop[e].ver_conflicts);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    j.end_object();
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }

  // ---- SAT-configuration A/B: modern defaults vs LBD tiers off ----------
  // Same prepared search-loop workload and finder on both sides; only the
  // sat::SolverOptions differ. This is the committed
  // BENCH_sat.json evidence of what the LBD-tiered database is worth on
  // the workload the engines actually run.
  if (!sat_json_path.empty()) {
    struct SatAb {
      int found = 0;
      long qbf_calls = 0;
      long iterations = 0;
      double wall_s = 0.0;
      sat::Solver::Stats stats;
      std::vector<std::array<int, 3>> answers;
    };
    constexpr int kConfigs = 2;
    // More repeats than the search-loop section: the configs are close in
    // wall time, so the min-statistic needs more samples to stabilize.
    constexpr int kSatRepeats = 5;
    // "modern" is the shipping default, "legacy" the same solver with LBD
    // tiers off (the baseline the CI gate compares against).
    const sat::SolverOptions cfgs[kConfigs] = {bench::modern_sat_config(),
                                               bench::legacy_sat_config()};
    const char* cfg_names[kConfigs] = {"modern", "legacy"};
    SatAb sab[kConfigs];
    std::printf("\n# SAT-configuration A/B (optimum search,"
                " whole suite, all QBF engines):\n");
    std::printf("%-10s %6s %9s %10s %11s %12s %10s\n", "config", "found",
                "CPU(s)", "qbf_calls", "iterations", "conflicts", "restarts");
    // Repeats on the outside, configs on the inside: ambient machine load
    // drifts over the ~minute this A/B takes, and running one config's
    // repeats back-to-back would charge that drift entirely to whichever
    // config happened to run during the busy stretch.
    for (int rep = 0; rep < kSatRepeats; ++rep) {
      for (int cfg = 0; cfg < kConfigs; ++cfg) {
        SatAb& res = sab[cfg];
        SatAb pass;
        Timer t;
        for (const Workload& w : work) {
          for (const core::QbfModel model : qbf_models) {
            core::QbfFinderOptions f;
            f.cegar.sat = cfgs[cfg];
            core::OptimumOptions o;
            o.call_timeout_s = budgets.qbf_call_s;
            core::QbfPartitionFinder finder(w.matrix, f);
            core::OptimumSearch search(finder, model, o);
            const core::OptimumResult r = search.run(w.bootstrap);
            if (r.outcome == core::OptimumResult::Outcome::kFound) {
              ++pass.found;
            }
            pass.answers.push_back({static_cast<int>(r.outcome), r.best_cost,
                                    r.proven_optimal ? 1 : 0});
            pass.qbf_calls += finder.qbf_calls();
            pass.iterations += finder.total_iterations();
            pass.stats += finder.solver_stats();
          }
        }
        pass.wall_s = t.elapsed_s();
        if (rep == 0 || pass.wall_s < res.wall_s) res = std::move(pass);
      }
    }
    for (int cfg = 0; cfg < kConfigs; ++cfg) {
      const SatAb& res = sab[cfg];
      std::printf("%-10s %6d %9.3f %10ld %11ld %12llu %10llu\n",
                  cfg_names[cfg], res.found, res.wall_s, res.qbf_calls,
                  res.iterations,
                  static_cast<unsigned long long>(res.stats.conflicts),
                  static_cast<unsigned long long>(res.stats.restarts));
      std::fflush(stdout);
    }
    // Outcomes depend on per-call wall timeouts, so a loaded machine can
    // turn one config's conclusion into kUnknown or strip its optimality
    // proof without any code defect. Only contradictions between *proven*
    // answers are hard mismatches (and gate CI); timing-explainable
    // differences are reported separately.
    long sat_ab_mismatches = 0;
    long sat_ab_timing_diffs = 0;
    constexpr int kFoundOutcome =
        static_cast<int>(core::OptimumResult::Outcome::kFound);
    constexpr int kNotDecOutcome =
        static_cast<int>(core::OptimumResult::Outcome::kNotDecomposable);
    for (int cfg = 1; cfg < kConfigs; ++cfg) {
      for (std::size_t i = 0; i < sab[0].answers.size(); ++i) {
        const std::array<int, 3>& a = sab[0].answers[i];
        const std::array<int, 3>& b = sab[cfg].answers[i];
        if (a == b) continue;
        const bool contradiction =
            (a[0] == kFoundOutcome && b[0] == kNotDecOutcome) ||
            (a[0] == kNotDecOutcome && b[0] == kFoundOutcome);
        const bool both_proven_differ =
            a[2] == 1 && b[2] == 1 && (a[0] != b[0] || a[1] != b[1]);
        if (contradiction || both_proven_differ) {
          ++sat_ab_mismatches;
        } else {
          ++sat_ab_timing_diffs;
        }
      }
    }
    std::printf("# answer mismatches between configs (must be 0): %ld;"
                " timing-explainable differences (timeouts): %ld\n",
                sat_ab_mismatches, sat_ab_timing_diffs);

    FILE* f = std::fopen(sat_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", sat_json_path.c_str());
      return 1;
    }
    bench::JsonWriter j(f);
    j.begin_object();
    j.kv("bench", "sat_config_ab");
    j.kv("scale", bench::scale_name(scale));
    j.kv("workload_cones", static_cast<long long>(work.size()));
    j.kv("repeats", kSatRepeats);
    j.kv("answer_mismatches", sat_ab_mismatches);
    j.kv("timing_explainable_diffs", sat_ab_timing_diffs);
    j.kv("measures",
         "optimum-search loop only (matrices + MG bootstrap prepared"
         " outside the timer), QD+QB+QDB, same finder on both sides;"
         " wall = min over repeats");
    j.key("configs");
    j.begin_object();
    for (int cfg = 0; cfg < kConfigs; ++cfg) {
      const SatAb& res = sab[cfg];
      j.key(cfg_names[cfg]);
      j.begin_object();
      j.kv("found", res.found);
      j.kv("search_loop_wall_s", res.wall_s);
      j.kv("qbf_calls", res.qbf_calls);
      j.kv("qbf_iterations", res.iterations);
      j.kv("conflicts", res.stats.conflicts);
      j.kv("decisions", res.stats.decisions);
      j.kv("propagations", res.stats.propagations);
      j.kv("binary_propagations", res.stats.binary_propagations);
      j.kv("restarts", res.stats.restarts);
      j.kv("db_reductions", res.stats.db_reductions);
      // Solver-level outcome attribution (core/outcome.h taxonomy): how
      // many kUnknown stops each budget kind caused.
      j.kv("conflict_budget_stops", res.stats.conflict_budget_stops);
      j.kv("deadline_stops", res.stats.deadline_stops);
      j.end_object();
    }
    j.end_object();
    j.key("micro");
    j.begin_array();
    for (int cfg = 0; cfg < kConfigs; ++cfg) {
      const MicroResult micro[] = {
          run_pigeonhole("pigeonhole7", 7, cfgs[cfg]),
          run_pigeonhole("pigeonhole8", 8, cfgs[cfg]),
          run_random3cnf("random3cnf_n150", 150, 12345, cfgs[cfg]),
          run_random3cnf("random3cnf_n200", 200, 777, cfgs[cfg]),
      };
      for (const MicroResult& m : micro) {
        j.begin_object();
        j.kv("config", cfg_names[cfg]);
        j.kv("instance", m.name);
        j.kv("wall_s", m.wall_s);
        j.kv("conflicts", m.conflicts);
        j.kv("unsat", m.unsat);
        j.end_object();
      }
    }
    j.end_array();
    j.end_object();
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("# wrote %s\n", sat_json_path.c_str());
    if (sat_ab_mismatches != 0) return 1;
  }
  return 0;
}
