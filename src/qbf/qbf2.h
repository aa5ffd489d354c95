#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.h"
#include "common/timer.h"
#include "sat/solver.h"

namespace step::qbf {

/// Result status of a 2QBF query.
enum class Qbf2Status : std::uint8_t {
  kTrue,     ///< the quantified formula holds
  kFalse,    ///< it does not
  kUnknown,  ///< budget/deadline exhausted
};

struct Qbf2Result {
  Qbf2Status status = Qbf2Status::kUnknown;
  /// When kUnknown: why the deadline stopped the CEGAR loop (wall budget,
  /// memory trip, injected fault, cancellation — see Deadline::Trip);
  /// kNone when the solve concluded, or when a SAT-internal budget (not
  /// the deadline) stopped it.
  Deadline::Trip stopped_by = Deadline::Trip::kNone;
  /// When kTrue: a witness assignment to the outer (existential) inputs,
  /// indexed like `outer_inputs`. kUndef entries are don't-cares.
  std::vector<sat::Lbool> outer_model;
  int iterations = 0;  ///< CEGAR refinement rounds
};

/// Counterexample-guided solver for  ∃ outer ∀ inner . side(outer) ∧ matrix.
///
/// This is the abstraction-refinement algorithm of AReQS (Janota &
/// Marques-Silva, SAT'11), the solver the paper uses for its 2QBF models:
///  - an *abstraction* SAT solver over the outer variables proposes
///    candidates consistent with all counterexamples seen so far;
///  - a *verification* SAT solver checks a candidate against ¬matrix;
///    an inner countermodel refines the abstraction with the matrix
///    cofactored on that countermodel.
///
/// The matrix is an AIG cone; `outer_inputs` / `inner_inputs` partition
/// (a subset of) its input indices. Side constraints purely over outer
/// variables (the paper's fN and fT) are added through `abstraction()` /
/// `outer_var()` before solve().
///
/// For the paper's formulation (9), validity of  ∀α,β ∃X. Φ ∨ ¬fN ∨ ¬fT
/// is decided by giving this solver the *negation*:
/// ∃α,β ∀X. ¬Φ ∧ fN ∧ fT; a kTrue answer hands back the counterexample
/// (α,β) — which *is* the computed variable partition.
struct CegarOptions {
  /// Emit a refinement as a single clause when the cofactored matrix is a
  /// disjunction of outer literals (always true for the Section IV
  /// matrices). Off = always Tseitin-encode; ablation knob.
  bool clause_fast_path = true;
  /// SAT configuration applied to both CEGAR-side solvers (LBD tiers,
  /// conflict budget — see sat::SolverOptions / docs/SOLVER.md).
  sat::SolverOptions sat;
};

class ExistsForallSolver {
 public:
  ExistsForallSolver(const aig::Aig& matrix, aig::Lit root,
                     std::vector<std::uint32_t> outer_inputs,
                     std::vector<std::uint32_t> inner_inputs,
                     CegarOptions opts = {});

  /// Abstraction solver handle for adding outer-only side constraints.
  sat::Solver& abstraction() { return abstraction_; }
  /// SAT variable (in the abstraction) of outer input position i.
  sat::Var outer_var(std::size_t i) const { return outer_vars_[i]; }

  Qbf2Result solve(const Deadline* deadline = nullptr);

  /// Assumption-carrying solve: `assumptions` (over abstraction variables,
  /// e.g. cardinality-counter outputs) are threaded through every
  /// abstraction call of the CEGAR loop, so one persistent solver pair can
  /// answer a whole family of queries — different bounds are just
  /// different assumption sets, and refinements plus learned clauses
  /// accumulate in place across calls.
  Qbf2Result solve(std::span<const sat::Lit> assumptions,
                   const Deadline* deadline = nullptr);

  /// After a kFalse answer from an assumption-carrying solve: the subset
  /// of the assumptions the abstraction's final conflict depended on
  /// (empty when the refutation is assumption-independent).
  const sat::LitVec& abstraction_core() const {
    return abstraction_.conflict_core();
  }

  /// Cumulative SAT statistics of the two sides of the CEGAR loop.
  const sat::Solver::Stats& abstraction_stats() const {
    return abstraction_.stats();
  }
  const sat::Solver::Stats& verification_stats() const {
    return verification_.stats();
  }

 private:
  void refine(const std::vector<sat::Lbool>& inner_assignment);

  const aig::Aig& matrix_;
  aig::Lit root_;
  std::vector<std::uint32_t> outer_inputs_;
  std::vector<std::uint32_t> inner_inputs_;
  CegarOptions opts_;

  sat::Solver abstraction_;
  std::vector<sat::Var> outer_vars_;  ///< abstraction var per outer input

  sat::Solver verification_;
  std::vector<sat::Var> ver_input_vars_;  ///< verification var per matrix input
  std::vector<int> input_role_;  ///< -1 free, 0 outer, 1 inner, per input index
};

}  // namespace step::qbf
