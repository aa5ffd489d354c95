#pragma once

#include <vector>

#include "common/timer.h"
#include "sat/solver.h"

namespace step::mus {

/// Deletion-based group-MUS extraction over selector literals, the
/// algorithmic core of MUSer's group-oriented mode that STEP-MG relies on.
///
/// The client instruments a formula so that each clause *group* g is
/// controlled by an "enable" literal e_g: assuming e_g activates the group,
/// assuming ~e_g deactivates (removes) it. Given that the formula is UNSAT
/// with all groups active, extract() returns a subset that is still UNSAT
/// and minimal: deactivating any single returned group makes it SAT
/// (together with the permanently-active background clauses).
struct GroupMusOptions {
  /// Refine with the solver's final-conflict core after each UNSAT answer
  /// (clause-set refinement); large speedup, never hurts minimality.
  bool core_refinement = true;
  /// Conflict budget per SAT call; -1 = unlimited.
  std::int64_t conflict_budget = -1;
};

struct GroupMusResult {
  /// Indices (into the selector vector) of the extracted MUS.
  std::vector<int> mus;
  /// True when every group was actually tested; false when the deadline
  /// truncated the process (result is then an UNSAT subset, not minimal).
  bool minimal = true;
  int sat_calls = 0;
};

class GroupMusExtractor {
 public:
  /// `enable` holds one enable literal per group. The solver must contain
  /// the instrumented clauses already.
  GroupMusExtractor(sat::Solver& solver, std::vector<sat::Lit> enable,
                    GroupMusOptions opts = {});

  /// Requires: formula UNSAT with all groups enabled — minus the ones
  /// pre-removed through `initially_removed` (indexed per group; non-zero
  /// = removed before the search starts). Checked; STEP_CHECK fires
  /// otherwise. `deadline` truncates gracefully.
  GroupMusResult extract(const Deadline* deadline = nullptr,
                         const std::vector<char>* initially_removed = nullptr);

 private:
  sat::Solver& solver_;
  std::vector<sat::Lit> enable_;
  GroupMusOptions opts_;
  /// Groups by enable literal, built once: group_head_[index(l)] is the
  /// first group whose enable literal is l (-1 if none), group_next_[g]
  /// the next group sharing g's literal. Core refinement maps each core
  /// literal to its groups through this instead of scanning all groups.
  std::vector<int> group_head_;
  std::vector<int> group_next_;
};

}  // namespace step::mus
