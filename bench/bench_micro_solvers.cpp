// Micro-benchmarks (google-benchmark) for the substrate solvers: SAT
// solving, 2QBF CEGAR, group-MUS, interpolation and AIG manipulation.
// Not part of the paper's tables; tracks the health of the engines that
// power them. The global operator new counts heap allocations so that
// set-up benchmarks can report allocations per iteration.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "aig/simulate.h"
#include "aig/support.h"
#include "benchgen/epfl.h"
#include "benchgen/generators.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "core/decomposer.h"
#include "core/npn.h"
#include "core/qbf_model.h"
#include "core/relaxation.h"
#include "itp/interpolant.h"
#include "mus/group_mus.h"
#include "qbf/qbf2.h"
#include "sat/solver.h"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace step;

/// Solver configurations A/B'd by the `_modern` / `_legacy` variants —
/// shared with the committed BENCH_sat.json comparison (bench_common.h).
sat::SolverOptions modern_cfg() { return bench::modern_sat_config(); }
sat::SolverOptions legacy_cfg() { return bench::legacy_sat_config(); }

void run_random3cnf(benchmark::State& state, const sat::SolverOptions& cfg) {
  const int nv = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s(cfg);
    bench::add_random3cnf(s, nv, 4.1, 12345);
    benchmark::DoNotOptimize(s.solve());
  }
}

void bm_sat_random3cnf(benchmark::State& state) {
  run_random3cnf(state, modern_cfg());
}
BENCHMARK(bm_sat_random3cnf)->Arg(50)->Arg(100)->Arg(200);

void bm_sat_random3cnf_legacy(benchmark::State& state) {
  run_random3cnf(state, legacy_cfg());
}
BENCHMARK(bm_sat_random3cnf_legacy)->Arg(200);

void run_pigeonhole(benchmark::State& state, const sat::SolverOptions& cfg) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s(cfg);
    bench::add_pigeonhole(s, holes);
    benchmark::DoNotOptimize(s.solve());
  }
}

void bm_sat_pigeonhole(benchmark::State& state) {
  run_pigeonhole(state, modern_cfg());
}
BENCHMARK(bm_sat_pigeonhole)->Arg(5)->Arg(6)->Arg(7);

void bm_sat_pigeonhole_legacy(benchmark::State& state) {
  run_pigeonhole(state, legacy_cfg());
}
BENCHMARK(bm_sat_pigeonhole_legacy)->Arg(6)->Arg(7);

/// The incremental pattern of the CEGAR loops: one solver, a growing
/// clause set, many assumption-driven solve() calls.
void run_incremental_assumptions(benchmark::State& state,
                                 const sat::SolverOptions& cfg) {
  const int nv = 60;
  for (auto _ : state) {
    Rng rng(4242);
    sat::Solver s(cfg);
    for (int i = 0; i < nv; ++i) s.new_var();
    for (int round = 0; round < 40; ++round) {
      for (int c = 0; c < 12; ++c) {
        sat::LitVec cl;
        const int w = rng.next_int(2, 4);
        for (int j = 0; j < w; ++j) {
          cl.push_back(sat::mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
        }
        s.add_clause(cl);
      }
      sat::LitVec assumps;
      for (int a = 0; a < 3; ++a) {
        assumps.push_back(
            sat::mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
      }
      benchmark::DoNotOptimize(s.solve(assumps));
      if (!s.is_ok()) break;
    }
  }
}

void bm_sat_incremental_modern(benchmark::State& state) {
  run_incremental_assumptions(state, modern_cfg());
}
BENCHMARK(bm_sat_incremental_modern);

void bm_sat_incremental_legacy(benchmark::State& state) {
  run_incremental_assumptions(state, legacy_cfg());
}
BENCHMARK(bm_sat_incremental_legacy);

void bm_qbf_partition_query(benchmark::State& state) {
  // One QD bound query on a mux-tree cone (the paper's inner loop).
  const int sel = static_cast<int>(state.range(0));
  const aig::Aig circ = benchgen::mux_tree(sel);
  const core::Cone cone = core::extract_po_cone(circ, 0);
  const core::RelaxationMatrix m =
      core::build_relaxation_matrix(cone, core::GateOp::kOr);
  for (auto _ : state) {
    core::QbfPartitionFinder finder(m);
    benchmark::DoNotOptimize(
        finder.find_with_bound(core::QbfModel::kQD, sel));
  }
}
BENCHMARK(bm_qbf_partition_query)->Arg(2)->Arg(3);

/// MG's SAT seed scan and group MUS, which run only on cones above
/// aig::kTtMaxSupport inputs (18 and 19 here; smaller OR cones run on
/// the truth table, see bm_fresh_cone_solvers).
void bm_mus_equivalence_groups(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const aig::Aig circ = benchgen::random_sop(n, n, 2, 1, 16, 777);
  const core::Cone cone = core::extract_po_cone(circ, 0);
  if (cone.n() <= aig::kTtMaxSupport) {
    state.SkipWithError("cone fits the truth-table tier");
    return;
  }
  const core::RelaxationMatrix m =
      core::build_relaxation_matrix(cone, core::GateOp::kOr);
  for (auto _ : state) {
    core::RelaxationSolver rs(m);
    core::MgDecomposer mg(rs);
    benchmark::DoNotOptimize(mg.find_partition());
  }
}
BENCHMARK(bm_mus_equivalence_groups)->Arg(9)->Arg(12);

/// MG on a 20-input cone, above aig::kTtMaxSupport, so on SAT: the
/// comparator(10) cone under OR (arg 0) has no bi-decomposition, under
/// AND (arg 1) it has one. Arg 0 is the seed scan alone: its simulation
/// filter refutes the pairs, with one SAT call whose model refutes the
/// rest; arg 1 adds the group MUS.
void bm_wide_cone_mg(benchmark::State& state) {
  const core::GateOp op =
      state.range(0) == 0 ? core::GateOp::kOr : core::GateOp::kAnd;
  const core::Cone cone =
      core::extract_po_cone(benchgen::comparator(10), 0);
  const core::RelaxationMatrix m = core::build_relaxation_matrix(cone, op);
  bool found = false;
  for (auto _ : state) {
    core::RelaxationSolver rs(m);
    const core::PartitionSearchResult r = core::MgDecomposer(rs).find_partition();
    found = r.found;
    benchmark::DoNotOptimize(r);
  }
  state.counters["inputs"] = cone.n();
  state.counters["found"] = found ? 1 : 0;
}
BENCHMARK(bm_wide_cone_mg)->Arg(0)->Arg(1);

/// One STEP-MG decomposition whose fA/fB come from interpolation: the
/// cone has 18 inputs, above aig::kTtMaxSupport, where extraction stays
/// on SAT.
void bm_interpolation_extract(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const aig::Aig circ = benchgen::random_sop(n, n, 1, 1, 16, 4242);
  const core::Cone cone = core::extract_po_cone(circ, 0);
  if (cone.n() <= aig::kTtMaxSupport) {
    state.SkipWithError("cone fits the truth-table tier");
    return;
  }
  core::DecomposeOptions o;
  o.engine = core::Engine::kMg;
  const core::BiDecomposer dec(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decompose(cone));
  }
}
BENCHMARK(bm_interpolation_extract)->Arg(12);

void bm_aig_strash(benchmark::State& state) {
  const int gates = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchgen::random_dag(16, gates, 8, 99));
  }
}
BENCHMARK(bm_aig_strash)->Arg(1000)->Arg(10000);

void bm_tseitin_encode(benchmark::State& state) {
  const aig::Aig mult =
      benchgen::array_multiplier(static_cast<int>(state.range(0)));
  const core::Cone cone =
      core::extract_po_cone(mult, mult.num_outputs() - 2);
  for (auto _ : state) {
    sat::Solver s;
    std::vector<sat::Lit> in(cone.aig.num_inputs());
    for (auto& l : in) l = sat::mk_lit(s.new_var());
    cnf::SolverSink sink(s);
    benchmark::DoNotOptimize(cnf::encode_cone(cone.aig, cone.root, in, sink));
  }
}
BENCHMARK(bm_tseitin_encode)->Arg(4)->Arg(8);

/// The fixed per-cone cost of decoder-cones: one 15-input
/// epfl_decoder(14) AND cone on the truth-table path. Arg 0 builds the
/// cone's RelaxationTable, arg 1 runs MG on it, arg 2 extracts fA/fB from
/// it, arg 3 verifies it (tables of f and of the recombination). Arg 4 builds the RelaxationSolver
/// (Tseitin-encoded Φ) that cones above aig::kTtMaxSupport inputs and QBF
/// searches still need. `allocs` is heap allocations per iteration.
void bm_fresh_cone_solvers(benchmark::State& state) {
  const int stage = static_cast<int>(state.range(0));
  const aig::Aig dec = benchgen::epfl_decoder(14);
  const core::Cone cone = core::extract_po_cone(dec, 0);
  const core::RelaxationMatrix m =
      core::build_relaxation_matrix(cone, core::GateOp::kAnd);
  const core::RelaxationTable table(cone, core::GateOp::kAnd, nullptr);
  // {x0 | x1..x14}: MG's partition of an AND of literals.
  const core::Partition p = core::mg_on_table(table).partition;
  const core::ExtractedFunctions fns =
      core::extract_functions(cone, core::GateOp::kAnd, p, nullptr, &table);
  const long before = g_allocations.load();
  for (auto _ : state) {
    switch (stage) {
      case 0: {
        const core::RelaxationTable t(cone, core::GateOp::kAnd, nullptr);
        benchmark::DoNotOptimize(t.words());
        break;
      }
      case 1:
        benchmark::DoNotOptimize(core::mg_on_table(table));
        break;
      case 2:
        benchmark::DoNotOptimize(core::extract_functions(
            cone, core::GateOp::kAnd, p, nullptr, &table));
        break;
      case 3:
        benchmark::DoNotOptimize(
            core::verify_decomposition(cone, fns));
        break;
      default: {
        core::RelaxationSolver rs(m);
        benchmark::DoNotOptimize(rs.solver().num_vars());
        break;
      }
    }
  }
  state.counters["allocs"] =
      benchmark::Counter(static_cast<double>(g_allocations.load() - before),
                         benchmark::Counter::kAvgIterations);
  static const char* const kLabels[] = {"table", "mg", "extract", "verify",
                                        "relaxation_solver"};
  state.SetLabel(kLabels[stage]);
}
BENCHMARK(bm_fresh_cone_solvers)->DenseRange(0, 4);

/// The truth-table tier for small cones. Arg 0 NPN-canonicalizes one
/// 6-input table (the DecCache key), arg 1 runs aig::functional_support on
/// the 16-input parity_tree(16) cone (support reduction), arg 2 runs OR MG
/// on the same cone: its RelaxationTable plus mg_on_table, whose seed-pair
/// scan finds no valid pair and so reads every pair; arg 3 runs XOR MG on
/// the same cone: its RelaxationTable (the interaction masks) plus
/// mg_on_table; arg 4 is one check of the CEGAR search's table ∀-side on
/// the OR table: the candidate XA = x0..x7, XB = x8..x15 is refuted and
/// its refinement clause built; arg 5 NPN-canonicalizes 6-input parity,
/// where every transform reaches the minimum.
void bm_small_cone_kernels(benchmark::State& state) {
  const int kernel = static_cast<int>(state.range(0));
  const aig::Aig par = benchgen::parity_tree(16);
  const core::Cone cone = core::extract_po_cone(par, 0);
  const core::RelaxationMatrix m =
      core::build_relaxation_matrix(cone, core::GateOp::kOr);
  const core::TruthTable tt6{0x6996e81717e86996ULL};
  const core::TruthTable parity6{0x6996966996696996ULL};
  const core::RelaxationTable or_table(m);
  qbf::ForallSide forall = core::table_forall_side(or_table);
  std::vector<sat::Lbool> cand(32, sat::Lbool::kFalse);
  for (int i = 0; i < 8; ++i) {
    cand[i] = sat::Lbool::kTrue;           // α: x0..x7 in XA
    cand[16 + 8 + i] = sat::Lbool::kTrue;  // β: x8..x15 in XB
  }
  sat::LitVec refinement;
  for (auto _ : state) {
    switch (kernel) {
      case 0:
        benchmark::DoNotOptimize(core::npn_canonicalize(tt6, 6));
        break;
      case 1:
        benchmark::DoNotOptimize(aig::functional_support(cone.aig, cone.root));
        break;
      case 2:
        benchmark::DoNotOptimize(core::mg_on_table(core::RelaxationTable(m)));
        break;
      case 3:
        benchmark::DoNotOptimize(core::mg_on_table(
            core::RelaxationTable(cone, core::GateOp::kXor, nullptr)));
        break;
      case 4:
        refinement.clear();
        benchmark::DoNotOptimize(forall(cand, refinement, nullptr));
        break;
      default:
        benchmark::DoNotOptimize(core::npn_canonicalize(parity6, 6));
        break;
    }
  }
  static const char* const kLabels[] = {
      "npn_canonicalize n=6", "functional_support n=16",
      "or_mg_on_table parity16", "xor_mg_on_table parity16",
      "table_forall_check parity16 OR", "npn_canonicalize parity6"};
  state.SetLabel(kLabels[kernel]);
}
BENCHMARK(bm_small_cone_kernels)->DenseRange(0, 5);

}  // namespace

BENCHMARK_MAIN();
