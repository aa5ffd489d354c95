#pragma once

#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/relaxation.h"

namespace step::core {

/// Reimplementation of STEP-MG: group-oriented MUS-based bi-decomposition
/// (Chen & Marques-Silva, VLSI-SoC'11 [7]) — the paper's fast heuristic
/// baseline and the bootstrap for the QBF models.
///
/// Each relaxable equivalence constraint of eq. (2) forms a clause group
/// controlled by its α/β variable. With all groups enforced the formula is
/// trivially UNSAT (X = X' = X''); a group-MUS over the equivalences is a
/// minimal set that must stay enforced — every group dropped from the MUS
/// frees the corresponding copy variable and moves x into XA (α-group
/// dropped) or XB (β-group dropped). Seeding forces one variable into each
/// of XA and XB so the partition is non-trivial; the first valid seed is
/// used (MG is the paper's "fastest mode").
///
/// A cone of at most aig::kTtMaxSupport inputs whose every seed pair fits
/// max_seed_attempts runs the same algorithm on its RelaxationTable with
/// no SAT call (mg_on_table): the seed scan in the SAT path's (j, l)
/// order, then one deletion pass over the groups β0..βn−1, α0..αn−1. On
/// an XOR table both are mask tests (RelaxationTable::xor_interacting).
/// Other cones run the seed scan and the group MUS on SAT.
///
/// The SAT seed scan is filtered by simulation: before a pair costs a SAT
/// call, the matrix's first copy f(X) (with its care set) is simulated on
/// a fixed number of words of fixed-seed random patterns, each also with
/// the pair's inputs flipped. A pattern that names a model of Φ under the
/// pair refutes it — OR: an on-row x with x ⊕ e_j and x ⊕ e_l off (AND:
/// the same on ¬f); XOR: f(x) ⊕ f(x^j) ⊕ f(x^l) ⊕ f(x^jl) = 1. When SAT
/// proves an OR/AND pair invalid, its model's on-row x refutes every pair
/// inside x's sensitive set {i : x ⊕ e_i off}. Each skip rests on such a
/// witness, so the seed pair and every verdict are those of the plain
/// per-pair scan; attempts still count pairs. A cone none of whose pairs
/// survives is proven undecomposable with no SAT call. The group MUS then
/// runs on a solver that has seen fewer calls, so above
/// aig::kTtMaxSupport it may return a different minimal partition.
///
/// MG's SAT calls are capped only by sat::SolverOptions::conflict_budget.
/// MgOptions stays a struct with its one field because
/// DecomposeOptions::mg carries it to every MgDecomposer, stepbench's
/// re-drive included.
struct MgOptions {
  /// Seed pairs tested before giving up (covers all pairs by default).
  int max_seed_attempts = 4096;
};

/// True iff MG runs on the truth table for this support and budget.
bool mg_on_table_eligible(int n, const MgOptions& opts);

/// A group state of the table MG: bit i of alpha_dropped / beta_dropped
/// is set when input i's α- / β-group is dropped. Only tests read it: the
/// returned partition cannot show an input whose α- and β-groups were
/// both dropped, so group minimality is checked on this state.
struct MgGroupState {
  std::uint32_t alpha_dropped = 0;
  std::uint32_t beta_dropped = 0;
};

/// STEP-MG on a RelaxationTable (see above). The deadline is polled once
/// per seed row j and once per MUS group; an expiry during the MUS pass
/// returns the (valid, possibly non-minimal) partition reached so far.
/// `state`, when given (a test seam), receives the final group state of a
/// found partition (before inputs with both groups dropped are balanced).
PartitionSearchResult mg_on_table(const RelaxationTable& t,
                                  const Deadline* deadline = nullptr,
                                  MgGroupState* state = nullptr);

/// The outcome of the SAT path's seed scan: the first pair (j, l), j < l,
/// whose partition ({j},{l}) is valid, or j = l = -1.
struct MgSeed {
  int j = -1, l = -1;
  /// No seed, and every pair was tried: the cone has no bi-decomposition.
  bool exhausted = false;
  /// A deadline or conflict cap stopped the scan.
  bool timed_out = false;
};

class MgDecomposer {
 public:
  MgDecomposer(RelaxationSolver& rs, MgOptions opts = {})
      : rs_(rs), opts_(opts) {}

  /// Runs mg_on_table on the matrix's table when eligible, SAT otherwise.
  PartitionSearchResult find_partition(const Deadline* deadline = nullptr);

  /// The SAT path's filtered seed scan (see above), on the solver.
  /// `refuted`, when given (a test seam), receives the pairs the filter
  /// refuted without a SAT call, in scan order.
  MgSeed seed_scan(const Deadline* deadline = nullptr,
                   std::vector<std::pair<int, int>>* refuted = nullptr);

 private:
  RelaxationSolver& rs_;
  MgOptions opts_;
};

}  // namespace step::core
