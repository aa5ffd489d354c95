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
/// close. Seed pairs tested and seeds grown are capped by constants in
/// ljh.cpp that mirror Bi-dec's best-quality mode.
class LjhDecomposer {
 public:
  explicit LjhDecomposer(const RelaxationMatrix& m,
                         sat::SolverOptions sat_opts = {})
      : m_(m), sat_opts_(sat_opts) {}

  PartitionSearchResult find_partition(const Deadline* deadline = nullptr);

  int sat_calls() const { return sat_calls_; }

  /// Low-level SAT statistics summed over every per-query solver.
  const sat::Solver::Stats& solver_stats() const { return stats_; }

 private:
  /// One validity check on a fresh CNF encoding, as Bi-dec does: that cost
  /// profile is what Table III and Figure 1 show for LJH.
  bool check(const Partition& p, const Deadline* deadline, sat::Result* status);

  const RelaxationMatrix& m_;  ///< not owned; must outlive the decomposer
  sat::SolverOptions sat_opts_;
  sat::Solver::Stats stats_;
  int sat_calls_ = 0;
};

}  // namespace step::core
