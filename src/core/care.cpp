#include "core/care.h"

#include "aig/ops.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"
#include "sat/solver.h"

namespace step::core {

CareSet care_of_window(const aig::Window& win) {
  CareSet care;
  std::vector<aig::Lit> inputs(win.n());
  for (int i = 0; i < win.n(); ++i) {
    inputs[i] = care.aig.add_input(win.aig.input_name(i));
  }
  care.root = aig::copy_cone(win.aig, win.care, care.aig, inputs);
  return care;
}

CareSet care_and_cone(const CareSet* base, const aig::Aig& cond_aig,
                      aig::Lit cond, bool negate_cond, int n) {
  CareSet out;
  std::vector<aig::Lit> inputs(n);
  for (int i = 0; i < n; ++i) out.aig.add_input();
  for (int i = 0; i < n; ++i) inputs[i] = out.aig.input_lit(i);
  aig::Lit b = aig::kLitTrue;
  if (!care_is_trivial(base)) {
    b = aig::copy_cone(base->aig, base->root, out.aig, inputs);
  }
  aig::Lit c = aig::copy_cone(cond_aig, cond, out.aig, inputs);
  if (negate_cond) c = aig::lnot(c);
  out.root = out.aig.land(b, c);
  return out;
}

CareSet child_care(const CareSet* base, const aig::Aig& fns_aig, aig::Lit fa,
                   aig::Lit fb, GateOp op, int child, int n) {
  CareSet out;
  std::vector<aig::Lit> inputs(n);
  for (int i = 0; i < n; ++i) inputs[i] = out.aig.add_input();
  aig::Lit b = aig::kLitTrue;
  if (!care_is_trivial(base)) {
    b = aig::copy_cone(base->aig, base->root, out.aig, inputs);
  }
  if (op == GateOp::kXor) {
    out.root = b;
    return out;
  }
  const aig::Lit la = aig::copy_cone(fns_aig, fa, out.aig, inputs);
  const aig::Lit lb = aig::copy_cone(fns_aig, fb, out.aig, inputs);
  aig::Lit cond;
  if (op == GateOp::kOr) {
    cond = child == 0 ? aig::lnot(lb) : out.aig.lor(aig::lnot(la), lb);
  } else {  // kAnd: the dual (output forced wherever the sibling is 0)
    cond = child == 0 ? lb : out.aig.lor(la, aig::lnot(lb));
  }
  out.root = out.aig.land(b, cond);
  return out;
}

std::optional<CareSet> care_project(const CareSet& care,
                                    const std::vector<std::uint32_t>& kept,
                                    int max_quantified) {
  const int n = static_cast<int>(care.aig.num_inputs());
  std::vector<char> keep(n, 0);
  for (std::uint32_t k : kept) keep[k] = 1;
  std::vector<std::uint32_t> dropped;
  for (int i = 0; i < n; ++i) {
    if (!keep[i]) dropped.push_back(static_cast<std::uint32_t>(i));
  }
  if (static_cast<int>(dropped.size()) > max_quantified) return std::nullopt;

  // Quantify one variable per round: root := root|v=0 ∨ root|v=1, rebuilt
  // into a fresh AIG each round (cofactoring never reads its own output).
  aig::Aig cur;
  std::vector<aig::Lit> cur_inputs(n);
  for (int i = 0; i < n; ++i) cur_inputs[i] = cur.add_input();
  aig::Lit root = aig::copy_cone(care.aig, care.root, cur, cur_inputs);
  constexpr std::uint32_t kNodeCap = 20000;
  for (const std::uint32_t v : dropped) {
    aig::Aig next;
    std::vector<aig::Lit> next_inputs(n);
    for (int i = 0; i < n; ++i) next_inputs[i] = next.add_input();
    std::vector<int> assignment(n, -1);
    assignment[v] = 0;
    const aig::Lit c0 = aig::cofactor(cur, root, next, assignment, next_inputs);
    assignment[v] = 1;
    const aig::Lit c1 = aig::cofactor(cur, root, next, assignment, next_inputs);
    root = next.lor(c0, c1);
    cur = std::move(next);
    if (cur.num_nodes() > kNodeCap) return std::nullopt;
  }

  CareSet out;
  std::vector<aig::Lit> final_map(n, aig::kLitFalse);  // quantified: unused
  for (std::size_t j = 0; j < kept.size(); ++j) {
    final_map[kept[j]] = out.aig.add_input();
  }
  out.root = aig::copy_cone(cur, root, out.aig, final_map);
  return out;
}

std::optional<bool> constant_on_care(const Cone& cone, const CareSet& care) {
  sat::Solver solver;
  std::vector<sat::Lit> svars(cone.n());
  for (auto& l : svars) l = sat::mk_lit(solver.new_var());
  cnf::SolverSink sink(solver);
  const sat::Lit f = cnf::encode_cone(cone.aig, cone.root, svars, sink);
  const sat::Lit c = cnf::encode_cone(care.aig, care.root, svars, sink);
  solver.add_clause({c});
  const bool on = solver.solve(sat::LitVec{f}) == sat::Result::kSat;
  const bool off = solver.solve(sat::LitVec{~f}) == sat::Result::kSat;
  if (on && off) return std::nullopt;
  return on;  // empty care reports constant false
}

bool cones_equivalent_on_care(const Cone& a, const Cone& b,
                              const CareSet* care) {
  return roots_equivalent_on_care(a.aig, a.root, b.aig, b.root, care);
}

bool roots_equivalent_on_care(const aig::Aig& a, aig::Lit root_a,
                              const aig::Aig& b, aig::Lit root_b,
                              const CareSet* care) {
  sat::Solver solver;
  // Callers pass cone-sized AIGs, so their sizes bound the encoding.
  solver.reserve_vars(static_cast<int>(
      a.num_inputs() + a.num_ands() + b.num_ands() +
      (care_is_trivial(care) ? 0 : care->aig.num_ands()) + 3));
  std::vector<sat::Lit> svars(a.num_inputs());
  for (auto& l : svars) l = sat::mk_lit(solver.new_var());
  cnf::SolverSink sink(solver);
  const sat::Lit la = cnf::encode_cone(a, root_a, svars, sink);
  const sat::Lit lb = cnf::encode_cone(b, root_b, svars, sink);
  if (!care_is_trivial(care)) {
    const sat::Lit lc = cnf::encode_cone(care->aig, care->root, svars, sink);
    solver.add_clause({lc});
  }
  sink.add_binary(la, lb);
  sink.add_binary(~la, ~lb);
  return solver.solve() == sat::Result::kUnsat;
}

}  // namespace step::core
