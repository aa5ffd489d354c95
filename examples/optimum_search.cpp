// Demonstrates the paper's Section IV.A.6: the iterative search for the
// *optimum* bound k with the three strategies MI, MD and Bin, and the
// composite schedule MD -> Bin -> MI used for disjointness.
//
// The subject is a 16:1 mux tree whose OR bi-decomposition requires the
// four select inputs to be shared but nothing else: the optimum
// disjointness is |XC| = 4 out of 20 inputs, and the search has to prove
// both that 4 works and that 3 does not.
//
//   $ ./optimum_search

#include <cstdio>

#include "benchgen/generators.h"
#include "core/optimum.h"
#include "core/relaxation.h"

namespace {

void run_schedule(const step::core::RelaxationMatrix& matrix,
                  const char* label,
                  std::vector<step::core::SearchStage> schedule) {
  using namespace step::core;
  QbfPartitionFinder finder(matrix);
  OptimumOptions opts;
  opts.call_timeout_s = 10.0;
  opts.schedule = std::move(schedule);
  OptimumSearch search(finder, QbfModel::kQD, opts);
  const OptimumResult r = search.run(std::nullopt);
  if (r.outcome != OptimumResult::Outcome::kFound) {
    std::printf("%-12s -> no decomposition found\n", label);
    return;
  }
  std::printf("%-12s -> optimum |XC| = %d, proven %s, %d QBF calls,"
              " %d CEGAR iterations\n",
              label, r.best_cost, r.proven_optimal ? "yes" : "no",
              r.qbf_calls, finder.total_iterations());
}

}  // namespace

int main() {
  using namespace step;
  using core::SearchStage;
  using core::SearchStrategy;

  const aig::Aig circ = benchgen::mux_tree(4);  // 16 data + 4 select inputs
  const core::Cone cone = core::extract_po_cone(circ, 0);
  std::printf("subject: 16:1 mux tree, support %d\n", cone.n());

  const core::RelaxationMatrix matrix =
      core::build_relaxation_matrix(cone, core::GateOp::kOr);

  run_schedule(matrix, "MI", {{SearchStrategy::kMonotoneIncreasing, -1}});
  run_schedule(matrix, "MD", {{SearchStrategy::kMonotoneDecreasing, -1}});
  run_schedule(matrix, "Bin", {{SearchStrategy::kBinary, -1}});
  run_schedule(matrix, "MD>Bin>MI",
               {{SearchStrategy::kMonotoneDecreasing, 2},
                {SearchStrategy::kBinary, 8},
                {SearchStrategy::kMonotoneIncreasing, -1}});

  std::printf(
      "\nAll strategies must report the same optimum; they differ only in"
      " how many QBF calls they spend (the paper picks MD>Bin>MI for"
      " disjointness and MI for balancedness).\n");
  return 0;
}
