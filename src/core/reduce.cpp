#include "core/reduce.h"

#include "aig/ops.h"
#include "aig/simulate.h"
#include "aig/support.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"
#include "sat/solver.h"

namespace step::core {

bool depends_on(const Cone& cone, std::uint32_t i) {
  STEP_CHECK(i < cone.aig.num_inputs());
  // Build both cofactors in a scratch AIG over shared fresh inputs; if
  // strashing already identifies them, skip the SAT call.
  aig::Aig scratch;
  std::vector<aig::Lit> free_map(cone.aig.num_inputs(), aig::kLitInvalid);
  for (std::uint32_t j = 0; j < cone.aig.num_inputs(); ++j) {
    if (j != i) free_map[j] = scratch.add_input();
  }
  std::vector<int> assignment(cone.aig.num_inputs(), -1);
  assignment[i] = 0;
  const aig::Lit f0 = aig::cofactor(cone.aig, cone.root, scratch, assignment, free_map);
  assignment[i] = 1;
  const aig::Lit f1 = aig::cofactor(cone.aig, cone.root, scratch, assignment, free_map);
  if (f0 == f1) return false;
  if (f0 == aig::lnot(f1)) return true;  // differ everywhere

  sat::Solver solver;
  std::vector<sat::Lit> in_sat(scratch.num_inputs());
  for (auto& l : in_sat) l = sat::mk_lit(solver.new_var());
  cnf::SolverSink sink(solver);
  const sat::Lit l0 = cnf::encode_cone(scratch, f0, in_sat, sink);
  const sat::Lit l1 = cnf::encode_cone(scratch, f1, in_sat, sink);
  // Satisfiable difference <=> dependence.
  const sat::Lit d = sat::mk_lit(solver.new_var());
  sink.add_ternary(~d, l0, l1);
  sink.add_ternary(~d, ~l0, ~l1);
  solver.add_clause({d});
  return solver.solve() == sat::Result::kSat;
}

Cone reduce_cone(const Cone& cone, std::vector<std::uint32_t>* kept) {
  std::vector<std::uint32_t> keep;
  if (cone.n() <= aig::kTtMaxSupport) {
    keep = aig::functional_support(cone.aig, cone.root);
  } else {
    for (std::uint32_t i = 0; i < cone.aig.num_inputs(); ++i) {
      if (depends_on(cone, i)) keep.push_back(i);
    }
  }
  if (kept != nullptr) *kept = keep;
  if (keep.size() == cone.aig.num_inputs()) return cone;  // already tight

  // Rebuild over the surviving inputs; dropped inputs are cofactored to 0
  // (any constant is correct — the function ignores them).
  Cone out;
  std::vector<aig::Lit> free_map(cone.aig.num_inputs(), aig::kLitInvalid);
  std::vector<int> assignment(cone.aig.num_inputs(), 0);
  for (std::uint32_t i : keep) {
    free_map[i] = out.aig.add_input(cone.aig.input_name(i));
    assignment[i] = -1;
  }
  out.root = aig::cofactor(cone.aig, cone.root, out.aig, assignment, free_map);
  return out;
}

}  // namespace step::core
