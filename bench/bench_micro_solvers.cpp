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
#include "aig/support.h"
#include "benchgen/epfl.h"
#include "benchgen/generators.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "core/decomposer.h"
#include "core/npn.h"
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

void bm_mus_equivalence_groups(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const aig::Aig circ = benchgen::random_sop(n, n, 2, 1, 5, 777);
  const core::Cone cone = core::extract_po_cone(circ, 0);
  const core::RelaxationMatrix m =
      core::build_relaxation_matrix(cone, core::GateOp::kOr);
  for (auto _ : state) {
    core::RelaxationSolver rs(m);
    core::MgDecomposer mg(rs);
    benchmark::DoNotOptimize(mg.find_partition());
  }
}
BENCHMARK(bm_mus_equivalence_groups)->Arg(4)->Arg(6);

void bm_interpolation_extract(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const aig::Aig circ = benchgen::random_sop(n, n, 1, 1, 4, 4242);
  const core::Cone cone = core::extract_po_cone(circ, 0);
  core::DecomposeOptions o;
  o.engine = core::Engine::kMg;
  const core::BiDecomposer dec(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decompose(cone));
  }
}
BENCHMARK(bm_interpolation_extract)->Arg(3)->Arg(5);

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

/// The fixed per-cone cost of decoder-cones: the fresh one-shot solvers of
/// one 15-input epfl_decoder(14) AND cone. Arg 0 builds the relaxation
/// solver (Tseitin-encoded Φ), arg 1 extracts fA/fB (two interpolation
/// solvers), arg 2 runs the verification miter. `allocs` is heap
/// allocations per iteration.
void bm_fresh_cone_solvers(benchmark::State& state) {
  const int stage = static_cast<int>(state.range(0));
  const aig::Aig dec = benchgen::epfl_decoder(14);
  const core::Cone cone = core::extract_po_cone(dec, 0);
  const core::RelaxationMatrix m =
      core::build_relaxation_matrix(cone, core::GateOp::kAnd);
  core::Partition p;  // {x0 | x1..x14}: valid for an AND of literals
  p.cls.assign(static_cast<std::size_t>(cone.n()), core::VarClass::kB);
  p.cls[0] = core::VarClass::kA;
  const core::ExtractedFunctions fns =
      core::extract_functions(cone, core::GateOp::kAnd, p);
  const long before = g_allocations.load();
  for (auto _ : state) {
    switch (stage) {
      case 0: {
        core::RelaxationSolver rs(m);
        benchmark::DoNotOptimize(rs.solver().num_vars());
        break;
      }
      case 1:
        benchmark::DoNotOptimize(
            core::extract_functions(cone, core::GateOp::kAnd, p));
        break;
      default:
        benchmark::DoNotOptimize(core::verify_decomposition(cone, fns));
        break;
    }
  }
  state.counters["allocs"] =
      benchmark::Counter(static_cast<double>(g_allocations.load() - before),
                         benchmark::Counter::kAvgIterations);
  state.SetLabel(stage == 0 ? "relaxation" : stage == 1 ? "extract" : "verify");
}
BENCHMARK(bm_fresh_cone_solvers)->Arg(0)->Arg(1)->Arg(2);

/// The truth-table tier for small cones. Arg 0 NPN-canonicalizes one
/// 6-input table (the DecCache key), arg 1 runs aig::functional_support on
/// the 16-input parity_tree(16) cone (support reduction), arg 2 decides
/// MG's seed-pair exhaustion on the same cone under OR, where no pair is
/// valid, so every pair is scanned.
void bm_small_cone_kernels(benchmark::State& state) {
  const int kernel = static_cast<int>(state.range(0));
  const aig::Aig par = benchgen::parity_tree(16);
  const core::Cone cone = core::extract_po_cone(par, 0);
  const core::RelaxationMatrix m =
      core::build_relaxation_matrix(cone, core::GateOp::kOr);
  const core::TruthTable tt6{0x6996e81717e86996ULL};
  for (auto _ : state) {
    switch (kernel) {
      case 0:
        benchmark::DoNotOptimize(core::npn_canonicalize(tt6, 6));
        break;
      case 1:
        benchmark::DoNotOptimize(aig::functional_support(cone.aig, cone.root));
        break;
      default:
        benchmark::DoNotOptimize(core::SeedPairTable(m).any_valid());
        break;
    }
  }
  state.SetLabel(kernel == 0   ? "npn_canonicalize n=6"
                 : kernel == 1 ? "functional_support n=16"
                               : "seed_pair_exhaustion parity16 OR");
}
BENCHMARK(bm_small_cone_kernels)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
