#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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

/// What the ∀-side of the CEGAR loop says about one candidate.
enum class ForallVerdict : std::uint8_t {
  kHolds,    ///< the matrix holds under every inner assignment
  kRefuted,  ///< a countermodel exists; the refinement excludes it
  kUnknown,  ///< the deadline (or a SAT budget) stopped the check
};

/// The ∀-side of the CEGAR loop. It gets a candidate (one value per outer
/// input, indexed like the outer inputs) and returns kHolds, or kRefuted
/// after appending to `refinement` a clause over abstraction literals
/// (outer input i is abstraction variable i) that the candidate falsifies
/// and every outer assignment the countermodel does not refute satisfies.
using ForallSide = std::function<ForallVerdict(
    std::span<const sat::Lbool> candidate, sat::LitVec& refinement,
    const Deadline* deadline)>;

/// Counterexample-guided solver for  ∃ outer ∀ inner . side(outer) ∧ matrix.
///
/// This is the abstraction-refinement algorithm of AReQS (Janota &
/// Marques-Silva, SAT'11), the solver the paper uses for its 2QBF models:
///  - an *abstraction* SAT solver over the outer variables proposes
///    candidates consistent with all counterexamples seen so far;
///  - a *∀-side* checks a candidate; a countermodel refines the
///    abstraction with a constraint that excludes it.
///
/// The loop is one for every ∀-side. The AIG constructor builds the
/// classic one: a *verification* SAT solver over ¬matrix takes the
/// candidate as assumptions, and a countermodel's refinement is the matrix
/// cofactored on it: that cofactor as one clause when it is a disjunction
/// of outer literals (always, for the Section IV matrices), else its
/// Tseitin encoding. The ForallSide constructor takes any other check;
/// the relaxation matrices of ≤ aig::kTtMaxSupport inputs (OR/AND) use a
/// truth-table one (core::table_forall_side) that builds no verification
/// solver and Tseitin-encodes nothing.
///
/// In the AIG form the matrix is an AIG cone; `outer_inputs` /
/// `inner_inputs` partition (a subset of) its input indices. Side
/// constraints purely over outer variables (the paper's fN and fT) are
/// added through `abstraction()` / `outer_var()` before solve().
///
/// For the paper's formulation (9), validity of  ∀α,β ∃X. Φ ∨ ¬fN ∨ ¬fT
/// is decided by giving this solver the *negation*:
/// ∃α,β ∀X. ¬Φ ∧ fN ∧ fT; a kTrue answer hands back the counterexample
/// (α,β) — which *is* the computed variable partition.
struct CegarOptions {
  /// SAT configuration applied to the CEGAR-side solvers (LBD tiers,
  /// conflict budget — see sat::SolverOptions / docs/SOLVER.md).
  sat::SolverOptions sat;
};

class ExistsForallSolver {
 public:
  /// SAT ∀-side over an AIG matrix.
  ExistsForallSolver(const aig::Aig& matrix, aig::Lit root,
                     std::vector<std::uint32_t> outer_inputs,
                     std::vector<std::uint32_t> inner_inputs,
                     CegarOptions opts = {});
  /// A given ∀-side over `num_outer` outer variables.
  ExistsForallSolver(std::size_t num_outer, ForallSide forall,
                     CegarOptions opts = {});
  ~ExistsForallSolver();

  /// Abstraction solver handle for adding outer-only side constraints.
  sat::Solver& abstraction() { return abstraction_; }
  /// SAT variable (in the abstraction) of outer input position i: the
  /// abstraction allocates the outer variables first, so it is i.
  sat::Var outer_var(std::size_t i) const {
    STEP_CHECK(i < num_outer_);
    return static_cast<sat::Var>(i);
  }

  Qbf2Result solve(const Deadline* deadline = nullptr);

  /// Assumption-carrying solve: `assumptions` (over abstraction variables,
  /// e.g. cardinality-counter outputs) are threaded through every
  /// abstraction call of the CEGAR loop, so one persistent solver can
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

  /// Cumulative SAT statistics of the two sides of the CEGAR loop; the
  /// verification side's are all zero unless it is the AIG form's solver.
  const sat::Solver::Stats& abstraction_stats() const {
    return abstraction_.stats();
  }
  const sat::Solver::Stats& verification_stats() const;

 private:
  struct SatForall;  ///< the AIG form's verification solver and matrix

  std::size_t num_outer_;
  sat::Solver abstraction_;
  std::unique_ptr<SatForall> sat_forall_;  ///< null unless the AIG form
  ForallSide forall_;
};

}  // namespace step::qbf
