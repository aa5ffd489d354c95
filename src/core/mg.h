#pragma once

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
struct MgOptions {
  /// Seed pairs tested before giving up (covers all pairs by default).
  int max_seed_attempts = 4096;
  /// Conflict budget per MUS SAT call; -1 = unlimited.
  std::int64_t conflict_budget = -1;
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

class MgDecomposer {
 public:
  MgDecomposer(RelaxationSolver& rs, MgOptions opts = {})
      : rs_(rs), opts_(opts) {}

  /// Runs mg_on_table on the matrix's table when eligible, SAT otherwise.
  PartitionSearchResult find_partition(const Deadline* deadline = nullptr);

 private:
  RelaxationSolver& rs_;
  MgOptions opts_;
};

}  // namespace step::core
