#include "core/ljh.h"

#include <utility>

#include "core/partition_check.h"

namespace step::core {

namespace {

/// Seed pairs tested for validity (covers all pairs when n is small).
constexpr int kMaxSeedAttempts = 4096;
/// Valid seeds that are fully grown (each growth costs up to 2(n−2) SAT
/// calls). The value mirrors Bi-dec's best-quality mode (`or 0 1`), which
/// explores many seeds — and pays for it in CPU time, visibly so in the
/// paper's Table III.
constexpr int kMaxGrownSeeds = 24;

}  // namespace

bool LjhDecomposer::check(const Partition& p, const Deadline* deadline,
                          sat::Result* status) {
  ++sat_calls_;
  RelaxationSolver fresh(m_, sat_opts_);
  const bool valid = fresh.is_valid(p, deadline, status);
  stats_ += fresh.solver().stats();
  return valid;
}

PartitionSearchResult LjhDecomposer::find_partition(const Deadline* deadline) {
  PartitionSearchResult result;
  const int n = m_.n;
  if (n < 2) {
    result.exhausted = true;
    return result;
  }
  auto out_of_time = [&] { return deadline != nullptr && deadline->expired(); };

  Partition seed;
  seed.cls.assign(n, VarClass::kC);

  int attempts = 0;
  int grown = 0;
  bool all_pairs_tried = true;
  bool timed_out = false;
  bool best_set = false;
  Partition best;
  std::pair<int, int> best_cost{0, 0};  // (shared, imbalance) lexicographic

  for (int j = 0; j < n && grown < kMaxGrownSeeds && !timed_out; ++j) {
    for (int l = j + 1; l < n && grown < kMaxGrownSeeds; ++l) {
      if (attempts >= kMaxSeedAttempts) {
        all_pairs_tried = false;
        j = n;  // abandon both loops
        break;
      }
      if (out_of_time()) {
        timed_out = true;
        j = n;
        break;
      }
      ++attempts;
      seed.cls.assign(n, VarClass::kC);
      seed.cls[j] = VarClass::kA;
      seed.cls[l] = VarClass::kB;
      sat::Result status;
      if (!check(seed, deadline, &status)) {
        // A deadline-expired check proves nothing: treating it as
        // "invalid" would keep excluding seeds and could end in a bogus
        // exhaustiveness claim. Abort with the timeout status instead.
        if (status == sat::Result::kUnknown) {
          timed_out = true;
          j = n;
          break;
        }
        continue;
      }

      // Greedy growth: move shared variables into XA or XB while the
      // partition stays valid. Every move's validity check threads its
      // status: an unknown (deadline-expired) verdict must not demote the
      // move to "invalid" — the variable would be wrongly excluded and
      // the search would keep burning solver calls past the deadline.
      Partition p = seed;
      bool growth_timed_out = false;
      for (int v = 0; v < n; ++v) {
        if (p.cls[v] != VarClass::kC) continue;
        if (out_of_time()) {
          growth_timed_out = true;
          break;
        }
        sat::Result move_status;
        p.cls[v] = VarClass::kA;
        if (check(p, deadline, &move_status)) continue;
        if (move_status == sat::Result::kUnknown) {
          p.cls[v] = VarClass::kC;
          growth_timed_out = true;
          break;
        }
        p.cls[v] = VarClass::kB;
        if (check(p, deadline, &move_status)) continue;
        p.cls[v] = VarClass::kC;
        if (move_status == sat::Result::kUnknown) {
          growth_timed_out = true;
          break;
        }
      }

      // The partially grown partition is still valid (growth only ever
      // keeps validated moves), so it may compete for best.
      const Metrics m = Metrics::of(p);
      const std::pair<int, int> cost{m.shared, m.imbalance};
      if (!best_set || cost < best_cost) {
        best_set = true;
        best = p;
        best_cost = cost;
      }
      ++grown;
      if (growth_timed_out) {
        timed_out = true;
        j = n;
        break;
      }
    }
  }

  result.found = best_set;
  if (best_set) result.partition = std::move(best);
  result.timed_out = timed_out;
  if (timed_out) result.reason = reason_of_unknown(deadline);
  result.exhausted = all_pairs_tried && !best_set && !timed_out;
  result.sat_calls = sat_calls_;
  return result;
}

}  // namespace step::core
