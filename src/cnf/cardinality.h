#pragma once

#include <span>
#include <vector>

#include "cnf/cnf.h"
#include "sat/types.h"

namespace step::cnf {

/// Cardinality constraints over SAT literals.
///
/// The QBF models constrain the universal partition variables:
///   fN: AtLeast1(alpha) ∧ AtLeast1(beta) ∧ per-pair AtMostOne
///   fT(QD), eq. (5):  #{x : x ∈ XC} <= k
///   fT(QB), eq. (6):  0 <= #XA − #XB <= k
///   fT(QDB), eq. (8): 0 <= #XC + #XA − #XB <= k
/// All reduce to AtMost-k over mixed-polarity literal lists; the encoder is
/// the Sinz sequential counter (O(n·k) clauses, arc-consistent).

/// At least one literal true (a single clause).
void at_least_one(ClauseSink& sink, std::span<const sat::Lit> lits);

/// At most one literal true (pairwise encoding; fine for per-pair use).
void at_most_one_pairwise(ClauseSink& sink, std::span<const sat::Lit> lits);

/// Sequential-counter AtMost-k: at most k of `lits` are true.
/// k >= lits.size() emits nothing; k == 0 emits unit clauses.
void at_most_k(ClauseSink& sink, std::span<const sat::Lit> lits, int k);

/// At least k of `lits` are true (dual of at_most_k on negations).
void at_least_k(ClauseSink& sink, std::span<const sat::Lit> lits, int k);

/// Difference bound: sum(a in pos) − sum(b in neg) <= k
/// (k may be negative). Encoded as AtMost(k + |neg|) over pos ∪ ¬neg.
void diff_at_most_k(ClauseSink& sink, std::span<const sat::Lit> pos,
                    std::span<const sat::Lit> neg, int k);

/// Difference lower bound: sum(pos) − sum(neg) >= 0.
void diff_non_negative(ClauseSink& sink, std::span<const sat::Lit> pos,
                       std::span<const sat::Lit> neg);

/// Incremental cardinality encoder: a full-width sequential counter
/// (Sinz-style, register width n) emitted once, exposing sorted unary
/// outputs o_1..o_n with
///   clauses ⊨ (at least j inputs true → o_j).
/// AtMost-k is then *assumed* rather than re-encoded: pass the literals
/// from assume_at_most(k) to the SAT call. Tightening or loosening k
/// between calls reuses the same clause set and everything the solver
/// learned from it — the enabler of the incremental optimum-bound sweep.
/// (Assuming ¬o_{k+1} back-propagates down the carry chain, giving the
/// same arc-consistent pruning as the width-k scratch encoding.)
///
/// assume_at_most assumes the whole output suffix ¬o_{k+1}..¬o_n (not just
/// ¬o_{k+1}), and no monotone-chain clauses link the outputs. This keeps
/// the outputs semantically independent, so an UNSAT core naming ¬o_m with
/// m > k+1 certifies that every bound below m−1 is refuted too — callers
/// can raise their lower bound past k+1 for free (see QbfFindResult::
/// refuted_below). The outputs can always be extended canonically
/// (o_j ⇔ prefix sum ≥ j), so the assumptions never exclude an assignment
/// whose true-count is within the bound.
class IncrementalCounter {
 public:
  IncrementalCounter(ClauseSink& sink, std::span<const sat::Lit> lits);

  int size() const { return static_cast<int>(outputs_.size()); }

  /// Output literal o_j for j in [0, size()]: forced true whenever at
  /// least j inputs are true; assuming ~o_j enforces "at most j−1". o_0 is
  /// the unit-true literal ("at least 0"), so ~o_0 is the assumption that
  /// backs k < 0 and an UNSAT core names it like any other output.
  sat::Lit output(int j) const { return j == 0 ? ~never_ : outputs_[j - 1]; }

  /// Appends assumption literals enforcing "at most k inputs true".
  /// k >= size() appends nothing; k < 0 appends ~o_0, a permanently-false
  /// literal (the constraint is unsatisfiable).
  void assume_at_most(int k, sat::LitVec& out) const;

 private:
  sat::LitVec outputs_;
  sat::Lit never_;  ///< unit-falsified literal backing k < 0
};

}  // namespace step::cnf
