#include "mus/group_mus.h"

#include <algorithm>

#include "common/check.h"

namespace step::mus {

GroupMusExtractor::GroupMusExtractor(sat::Solver& solver,
                                     std::vector<sat::Lit> enable,
                                     GroupMusOptions opts)
    : solver_(solver), enable_(std::move(enable)), opts_(opts) {
  const int n = static_cast<int>(enable_.size());
  group_next_.assign(n, -1);
  // Push groups in reverse so each chain lists its groups in index order.
  for (int g = n - 1; g >= 0; --g) {
    const auto li = static_cast<std::size_t>(sat::index(enable_[g]));
    if (li >= group_head_.size()) group_head_.resize(li + 1, -1);
    group_next_[g] = group_head_[li];
    group_head_[li] = g;
  }
}

GroupMusResult GroupMusExtractor::extract(
    const Deadline* deadline, const std::vector<char>* initially_removed) {
  GroupMusResult result;
  const int n = static_cast<int>(enable_.size());

  // State per group: 1 = candidate/active, 0 = removed, 2 = proven necessary.
  std::vector<char> state(n, 1);
  if (initially_removed != nullptr) {
    STEP_CHECK(static_cast<int>(initially_removed->size()) == n);
    for (int g = 0; g < n; ++g) {
      if ((*initially_removed)[g]) state[g] = 0;
    }
  }

  sat::LitVec assumptions;
  assumptions.reserve(n);
  auto solve_with = [&](int excluded) -> sat::Result {
    assumptions.clear();
    for (int g = 0; g < n; ++g) {
      const bool active = state[g] != 0 && g != excluded;
      assumptions.push_back(active ? enable_[g] : ~enable_[g]);
    }
    ++result.sat_calls;
    return solver_.solve_limited(assumptions, opts_.conflict_budget, deadline);
  };

  std::vector<char> in_core(n, 0);
  auto refine_from_core = [&](int excluded) {
    if (!opts_.core_refinement) return;
    // Keep only groups whose enable literal appears in the final conflict.
    std::fill(in_core.begin(), in_core.end(), 0);
    for (sat::Lit l : solver_.conflict_core()) {
      const auto li = static_cast<std::size_t>(sat::index(l));
      if (li >= group_head_.size()) continue;
      for (int g = group_head_[li]; g >= 0; g = group_next_[g]) in_core[g] = 1;
    }
    for (int g = 0; g < n; ++g) {
      if (state[g] == 1 && g != excluded && !in_core[g]) state[g] = 0;
    }
  };

  // Initial check doubles as the first refinement.
  const sat::Result first = solve_with(-1);
  STEP_CHECK(first != sat::Result::kSat);  // client must start from UNSAT
  if (first == sat::Result::kUnknown) {
    // Budget exhausted before the baseline check: return everything.
    result.minimal = false;
    for (int g = 0; g < n; ++g) {
      if (state[g] != 0) result.mus.push_back(g);
    }
    return result;
  }
  refine_from_core(-1);

  for (int g = 0; g < n; ++g) {
    if (state[g] != 1) continue;  // removed by refinement or already decided
    if (deadline != nullptr && deadline->expired()) {
      result.minimal = false;
      break;
    }
    const sat::Result r = solve_with(g);
    if (r == sat::Result::kUnsat) {
      state[g] = 0;  // group g is not needed
      refine_from_core(g);
    } else if (r == sat::Result::kSat) {
      state[g] = 2;  // necessary
    } else {
      // Budget ran out: keep the group conservatively; result not minimal.
      state[g] = 2;
      result.minimal = false;
    }
  }

  for (int g = 0; g < n; ++g) {
    if (state[g] != 0) result.mus.push_back(g);
  }
  return result;
}

}  // namespace step::mus
