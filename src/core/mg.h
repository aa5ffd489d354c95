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
/// used (MG is the paper's "fastest mode"). When the first seed is invalid
/// and the cone has at most aig::kTtMaxSupport inputs, a truth table
/// (SeedPairTable) decides whether any pair is valid; if none is, the cone
/// is reported undecomposable after that single SAT call.
struct MgOptions {
  /// Seed pairs tested before giving up (covers all pairs by default).
  int max_seed_attempts = 4096;
  /// Conflict budget per MUS SAT call; -1 = unlimited.
  std::int64_t conflict_budget = -1;
};

class MgDecomposer {
 public:
  MgDecomposer(RelaxationSolver& rs, MgOptions opts = {})
      : rs_(rs), opts_(opts) {}

  PartitionSearchResult find_partition(const Deadline* deadline = nullptr);

 private:
  RelaxationSolver& rs_;
  MgOptions opts_;
};

}  // namespace step::core
