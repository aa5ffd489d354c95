// Ablation study for the design choices the paper (and DESIGN.md) call
// out. Not a paper table; quantifies each claim:
//   1. symmetry breaking |XA| >= |XB| "reduces substantially the search
//      space" (Section IV.A.2),
//   2. the single-clause refinement fast path vs generic Tseitin,
//   3. MG bootstrapping of the upper bound (Section IV.A.6),
//   4. search strategy schedules (MI vs MD vs Bin vs the composite),
//   5. the persistent incremental solver pair vs scratch rebuild per bound.
// CEGAR countermodels are always carried across bound queries.
// Metrics: total QBF solver calls, total CEGAR iterations (via pool size),
// and wall time over a fixed set of decomposable cones.

#include <cstdio>

#include "bench_common.h"
#include "core/mg.h"
#include "core/optimum.h"

namespace {

using namespace step;

struct Workload {
  std::vector<core::RelaxationMatrix> matrices;
};

Workload make_workload(benchgen::SuiteScale scale) {
  Workload w;
  const auto suite = benchgen::standard_suite(scale);
  for (const benchgen::BenchCircuit& c : suite) {
    for (std::uint32_t po = 0; po < c.aig.num_outputs(); ++po) {
      const core::Cone cone = core::extract_po_cone(c.aig, po);
      if (cone.n() < 6 || cone.n() > 14) continue;  // interesting sizes only
      w.matrices.push_back(
          core::build_relaxation_matrix(cone, core::GateOp::kOr));
      if (w.matrices.size() >= 40) return w;
    }
  }
  return w;
}

struct Totals {
  int qbf_calls = 0;
  long cegar_refinements = 0;
  double seconds = 0.0;
  int found = 0;
};

Totals run_config(const Workload& w, const core::QbfFinderOptions& fopts,
                  const core::OptimumOptions& oopts, bool bootstrap) {
  Totals t;
  Timer timer;
  for (const core::RelaxationMatrix& m : w.matrices) {
    std::optional<core::Partition> boot;
    if (bootstrap) {
      core::RelaxationSolver rs(m);
      core::MgDecomposer mg(rs);
      const core::PartitionSearchResult r = mg.find_partition();
      if (r.found) boot = r.partition;
    }
    core::QbfPartitionFinder finder(m, fopts);
    core::OptimumSearch search(finder, core::QbfModel::kQD, oopts);
    const core::OptimumResult r = search.run(boot);
    t.qbf_calls += r.qbf_calls;
    t.cegar_refinements += static_cast<long>(finder.pool_size());
    if (r.outcome == core::OptimumResult::Outcome::kFound) ++t.found;
  }
  t.seconds = timer.elapsed_s();
  return t;
}

void report(const char* label, const Totals& t) {
  std::printf("%-28s %6d found %8d qbf-calls %10ld refinements %9.3f s\n",
              label, t.found, t.qbf_calls, t.cegar_refinements, t.seconds);
}

}  // namespace

int main() {
  const auto scale = benchgen::scale_from_env();
  bench::print_preamble("Ablations: QBF model engineering choices", scale);
  const Workload w = make_workload(scale);
  std::printf("# workload: %zu OR cones, supports 6..14\n\n", w.matrices.size());

  core::QbfFinderOptions base_f;
  core::OptimumOptions base_o;
  base_o.call_timeout_s = 10.0;

  report("baseline (all on)", run_config(w, base_f, base_o, true));

  {
    core::QbfFinderOptions f = base_f;
    f.symmetry_breaking = false;
    report("- symmetry breaking", run_config(w, f, base_o, true));
  }
  {
    core::QbfFinderOptions f = base_f;
    f.incremental = false;
    report("- incremental (scratch)", run_config(w, f, base_o, true));
  }
  {
    core::QbfFinderOptions f = base_f;
    f.cegar.clause_fast_path = false;
    report("- clause fast path", run_config(w, f, base_o, true));
  }
  report("- MG bootstrap", run_config(w, base_f, base_o, false));

  std::printf("\n# strategy schedules (bootstrap on):\n");
  {
    core::OptimumOptions o = base_o;
    o.schedule = {{core::SearchStrategy::kMonotoneIncreasing, -1}};
    report("schedule MI", run_config(w, base_f, o, true));
    o.schedule = {{core::SearchStrategy::kMonotoneDecreasing, -1}};
    report("schedule MD", run_config(w, base_f, o, true));
    o.schedule = {{core::SearchStrategy::kBinary, -1}};
    report("schedule Bin", run_config(w, base_f, o, true));
    o.schedule = {{core::SearchStrategy::kMonotoneDecreasing, 2},
                  {core::SearchStrategy::kBinary, 8},
                  {core::SearchStrategy::kMonotoneIncreasing, -1}};
    report("schedule MD>Bin>MI (paper)", run_config(w, base_f, o, true));
  }

  std::printf(
      "\n# expectations: removing any of 1-3 increases refinements and/or"
      " time;\n# every configuration finds the same number of optima"
      " (soundness is unaffected)\n");
  return 0;
}
