#include "qbf/qbf2.h"

#include <algorithm>

#include "aig/ops.h"
#include "aig/support.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"

namespace step::qbf {

namespace {

/// Tries to view `root` (in `a`) as a disjunction of input literals.
/// Succeeds for the cofactored matrices of the bi-decomposition models,
/// where each refinement is a single clause over the partition variables.
bool collect_or_of_inputs(const aig::Aig& a, aig::Lit root,
                          std::vector<aig::Lit>& leaves) {
  std::vector<aig::Lit> stack{root};
  while (!stack.empty()) {
    const aig::Lit l = stack.back();
    stack.pop_back();
    const std::uint32_t n = aig::node_of(l);
    if (a.is_input(n)) {
      leaves.push_back(l);
      continue;
    }
    if (a.is_and(n) && aig::is_complemented(l)) {
      stack.push_back(aig::lnot(a.fanin0(n)));
      stack.push_back(aig::lnot(a.fanin1(n)));
      continue;
    }
    return false;  // constant or un-complemented AND: not a plain clause
  }
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  return true;
}

}  // namespace

/// The AIG form's ∀-side: ¬matrix over fresh variables for every input in
/// the cone; a candidate arrives as assumptions on the outer ones.
struct ExistsForallSolver::SatForall {
  SatForall(const aig::Aig& m, aig::Lit r, std::vector<std::uint32_t> outer,
            std::vector<std::uint32_t> inner, const CegarOptions& opts,
            sat::Solver& abs);

  ForallVerdict check(std::span<const sat::Lbool> cand,
                      sat::LitVec& refinement, const Deadline* deadline);
  /// The refinement of one inner countermodel: the matrix cofactored on it.
  void refine(const std::vector<sat::Lbool>& inner_assignment,
              sat::LitVec& refinement);

  const aig::Aig& matrix;
  aig::Lit root;
  std::vector<std::uint32_t> outer_inputs;
  std::vector<std::uint32_t> inner_inputs;
  sat::Solver verification;
  std::vector<sat::Var> ver_input_vars;  ///< verification var per matrix input
  /// Tseitin encodings of general (non-clause) refinements go straight
  /// into the abstraction; check() returns their root as a unit clause.
  sat::Solver& abstraction;
};

ExistsForallSolver::SatForall::SatForall(const aig::Aig& m, aig::Lit r,
                                         std::vector<std::uint32_t> outer,
                                         std::vector<std::uint32_t> inner,
                                         const CegarOptions& opts,
                                         sat::Solver& abs)
    : matrix(m),
      root(r),
      outer_inputs(std::move(outer)),
      inner_inputs(std::move(inner)),
      verification(opts.sat),
      abstraction(abs) {
  // Every matrix input the cone reaches must be quantified.
  std::vector<bool> quantified(matrix.num_inputs(), false);
  for (std::uint32_t i : outer_inputs) quantified[i] = true;
  for (std::uint32_t i : inner_inputs) quantified[i] = true;
  const std::vector<std::uint32_t> support =
      aig::structural_support(matrix, root);
  for (std::uint32_t i : support) STEP_CHECK(quantified[i]);

  // Assert ¬matrix over fresh vars for all inputs in the cone.
  ver_input_vars.assign(matrix.num_inputs(), sat::kVarUndef);
  std::vector<sat::Lit> input_sat(matrix.num_inputs(), sat::kLitUndef);
  for (std::uint32_t i : support) {
    ver_input_vars[i] = verification.new_var();
    input_sat[i] = sat::mk_lit(ver_input_vars[i]);
  }
  cnf::SolverSink sink(verification);
  cnf::encode_cone_assert(matrix, root, input_sat, sink, /*value=*/false);
}

ForallVerdict ExistsForallSolver::SatForall::check(
    std::span<const sat::Lbool> cand, sat::LitVec& refinement,
    const Deadline* deadline) {
  sat::LitVec assumps;
  for (std::size_t i = 0; i < outer_inputs.size(); ++i) {
    const sat::Var vv = ver_input_vars[outer_inputs[i]];
    if (vv != sat::kVarUndef && cand[i] != sat::Lbool::kUndef) {
      assumps.push_back(sat::mk_lit(vv, cand[i] == sat::Lbool::kFalse));
    }
  }
  const sat::Result rv = verification.solve_limited(assumps, -1, deadline);
  if (rv == sat::Result::kUnknown) return ForallVerdict::kUnknown;
  if (rv == sat::Result::kUnsat) return ForallVerdict::kHolds;

  // Countermodel: inner assignment falsifying the matrix.
  std::vector<sat::Lbool> inner(inner_inputs.size(), sat::Lbool::kFalse);
  for (std::size_t j = 0; j < inner_inputs.size(); ++j) {
    const sat::Var vv = ver_input_vars[inner_inputs[j]];
    if (vv != sat::kVarUndef) inner[j] = verification.model_value(vv);
  }
  refine(inner, refinement);
  return ForallVerdict::kRefuted;
}

void ExistsForallSolver::SatForall::refine(
    const std::vector<sat::Lbool>& inner_assignment,
    sat::LitVec& refinement) {
  STEP_CHECK(inner_assignment.size() == inner_inputs.size());
  // Every refinement is new: the candidate is a total model of an
  // abstraction that already holds all earlier refinements, and this
  // countermodel's cofactor is false under it. So neither the countermodel
  // nor its clause can have been seen before.
  //
  // Cofactor the matrix on the inner countermodel: the result is a
  // constraint purely over the outer inputs.
  aig::Aig dst;
  std::vector<aig::Lit> free_map(matrix.num_inputs(), aig::kLitInvalid);
  std::vector<sat::Var> dst_input_to_outer;  // dst input pos -> outer pos
  for (std::size_t i = 0; i < outer_inputs.size(); ++i) {
    free_map[outer_inputs[i]] = dst.add_input();
    dst_input_to_outer.push_back(static_cast<sat::Var>(i));
  }
  std::vector<int> assignment(matrix.num_inputs(), -1);
  for (std::size_t j = 0; j < inner_inputs.size(); ++j) {
    assignment[inner_inputs[j]] =
        inner_assignment[j] == sat::Lbool::kTrue ? 1 : 0;
  }
  const aig::Lit cof = aig::cofactor(matrix, root, dst, assignment, free_map);

  // The candidate falsifies the cofactor, so it is never constant true;
  // constant false leaves the empty clause: no outer assignment survives.
  STEP_CHECK(cof != aig::kLitTrue);
  if (cof == aig::kLitFalse) return;

  // A cofactor that is a plain clause over outer inputs (always, for the
  // relaxation matrices of Section IV) goes in as that clause.
  std::vector<aig::Lit> leaves;
  if (collect_or_of_inputs(dst, cof, leaves)) {
    for (aig::Lit l : leaves) {
      const int dst_idx = dst.input_index(aig::node_of(l));
      refinement.push_back(
          sat::mk_lit(dst_input_to_outer[dst_idx], aig::is_complemented(l)));
    }
    return;
  }

  // Any other cofactor: Tseitin-encode it into the abstraction and assert
  // its root.
  std::vector<sat::Lit> input_sat(dst.num_inputs(), sat::kLitUndef);
  for (std::uint32_t i = 0; i < dst.num_inputs(); ++i) {
    input_sat[i] = sat::mk_lit(dst_input_to_outer[i]);
  }
  cnf::SolverSink sink(abstraction);
  refinement.push_back(cnf::encode_cone(dst, cof, input_sat, sink));
}

ExistsForallSolver::ExistsForallSolver(const aig::Aig& matrix, aig::Lit root,
                                       std::vector<std::uint32_t> outer_inputs,
                                       std::vector<std::uint32_t> inner_inputs,
                                       CegarOptions opts)
    : ExistsForallSolver(outer_inputs.size(), nullptr, opts) {
  sat_forall_ = std::make_unique<SatForall>(
      matrix, root, std::move(outer_inputs), std::move(inner_inputs), opts,
      abstraction_);
  forall_ = [f = sat_forall_.get()](std::span<const sat::Lbool> cand,
                                    sat::LitVec& refinement,
                                    const Deadline* deadline) {
    return f->check(cand, refinement, deadline);
  };
}

ExistsForallSolver::ExistsForallSolver(std::size_t num_outer,
                                       ForallSide forall, CegarOptions opts)
    : num_outer_(num_outer),
      abstraction_(opts.sat),
      forall_(std::move(forall)) {
  for (std::size_t i = 0; i < num_outer_; ++i) {
    STEP_CHECK(abstraction_.new_var() == static_cast<sat::Var>(i));
  }
}

ExistsForallSolver::~ExistsForallSolver() = default;

const sat::Solver::Stats& ExistsForallSolver::verification_stats() const {
  static const sat::Solver::Stats kNone;
  return sat_forall_ != nullptr ? sat_forall_->verification.stats() : kNone;
}

Qbf2Result ExistsForallSolver::solve(const Deadline* deadline) {
  return solve(std::span<const sat::Lit>{}, deadline);
}

Qbf2Result ExistsForallSolver::solve(std::span<const sat::Lit> assumptions,
                                     const Deadline* deadline) {
  Qbf2Result res;
  std::vector<sat::Lbool> cand(num_outer_);
  sat::LitVec refinement;
  for (;;) {
    if (deadline != nullptr && deadline->expired()) {
      res.status = Qbf2Status::kUnknown;
      res.stopped_by = deadline->trip();
      return res;
    }
    const sat::Result ra =
        abstraction_.solve_limited(assumptions, -1, deadline);
    if (ra == sat::Result::kUnknown) {
      res.status = Qbf2Status::kUnknown;
      if (deadline != nullptr) res.stopped_by = deadline->trip();
      return res;
    }
    if (ra == sat::Result::kUnsat) {
      res.status = Qbf2Status::kFalse;
      return res;
    }

    // Candidate: outer assignment proposed by the abstraction.
    for (std::size_t i = 0; i < num_outer_; ++i) {
      cand[i] = abstraction_.model_value(static_cast<sat::Var>(i));
    }
    refinement.clear();
    switch (forall_(cand, refinement, deadline)) {
      case ForallVerdict::kUnknown:
        res.status = Qbf2Status::kUnknown;
        if (deadline != nullptr) res.stopped_by = deadline->trip();
        return res;
      case ForallVerdict::kHolds:
        res.status = Qbf2Status::kTrue;
        res.outer_model = std::move(cand);
        return res;
      case ForallVerdict::kRefuted:
        abstraction_.add_clause(refinement);  // sorts it, drops a tautology
        ++res.iterations;
        break;
    }
  }
}

}  // namespace step::qbf
