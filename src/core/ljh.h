#pragma once

#include "common/timer.h"
#include "core/relaxation.h"

namespace step::core {

/// Reimplementation of the LJH bi-decomposition partition search
/// (Lee, Jiang, Hung, DAC'08 — the paper's baseline tool "Bi-dec",
/// best-quality mode `bi_dec <circuit> or 0 1`).
///
/// The algorithm seeds a partition with a variable pair (xj ∈ XA,
/// xl ∈ XB, rest in XC), checks validity with one SAT call (Proposition 1),
/// and greedily grows XA/XB by pulling variables out of the shared set
/// while validity is preserved. Several seeds are grown and the best
/// result by (disjointness, balancedness) is kept — heuristic, with no
/// optimality guarantee, which is exactly the gap the paper's QBF models
/// close.
struct LjhOptions {
  /// Seed pairs tested for validity (covers all pairs when n is small).
  int max_seed_attempts = 4096;
  /// Valid seeds that are fully grown (each growth costs up to 2(n−2) SAT
  /// calls). The default mirrors Bi-dec's best-quality mode (`or 0 1`),
  /// which explores many seeds — and pays for it in CPU time, visibly so
  /// in the paper's Table III.
  int max_grown_seeds = 24;
};

class LjhDecomposer {
 public:
  explicit LjhDecomposer(const RelaxationMatrix& m, LjhOptions opts = {},
                         sat::SolverOptions sat_opts = {})
      : m_(m), opts_(opts), sat_opts_(sat_opts) {}

  PartitionSearchResult find_partition(const Deadline* deadline = nullptr);

  int sat_calls() const { return sat_calls_; }

  /// Low-level SAT statistics summed over every per-query solver.
  const sat::Solver::Stats& solver_stats() const { return stats_; }

 private:
  /// One validity check on a fresh CNF encoding, as Bi-dec does: that cost
  /// profile is what Table III and Figure 1 show for LJH.
  bool check(const Partition& p, const Deadline* deadline, sat::Result* status);

  const RelaxationMatrix& m_;  ///< not owned; must outlive the decomposer
  LjhOptions opts_;
  sat::SolverOptions sat_opts_;
  sat::Solver::Stats stats_;
  int sat_calls_ = 0;
};

}  // namespace step::core
