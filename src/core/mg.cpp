#include "core/mg.h"

#include "aig/simulate.h"
#include "mus/group_mus.h"

namespace step::core {

PartitionSearchResult MgDecomposer::find_partition(const Deadline* deadline) {
  PartitionSearchResult result;
  const int n = rs_.matrix().n;
  if (n < 2) {
    result.exhausted = true;
    return result;
  }
  const int start_calls = rs_.sat_calls();
  auto out_of_time = [&] { return deadline != nullptr && deadline->expired(); };

  // Group layout: group i in [0,n) is the α-equivalence of variable i
  // (enforces xi ≡ xi'), group n+i the β-equivalence (xi ≡ xi'').
  // Enable literal = negated control variable: assuming ¬αi enforces.
  std::vector<sat::Lit> enable;
  enable.reserve(2 * n);
  for (int i = 0; i < n; ++i) enable.push_back(~sat::mk_lit(rs_.alpha_var(i)));
  for (int i = 0; i < n; ++i) enable.push_back(~sat::mk_lit(rs_.beta_var(i)));

  // Small cones whose every pair fits the attempt budget can have the
  // whole scan decided from one truth table (SeedPairTable).
  const bool tt_exhaustion = n <= aig::kTtMaxSupport &&
                             n * (n - 1) / 2 <= opts_.max_seed_attempts;
  Partition seed;
  int attempts = 0;
  bool all_pairs_tried = true;
  int seed_j = -1, seed_l = -1;
  for (int j = 0; j < n && seed_j < 0; ++j) {
    for (int l = j + 1; l < n; ++l) {
      if (attempts >= opts_.max_seed_attempts || out_of_time()) {
        all_pairs_tried = false;
        result.timed_out = out_of_time();
        j = n;
        break;
      }
      ++attempts;
      seed.cls.assign(n, VarClass::kC);
      seed.cls[j] = VarClass::kA;
      seed.cls[l] = VarClass::kB;
      sat::Result status;
      if (rs_.is_valid(seed, deadline, &status)) {
        seed_j = j;
        seed_l = l;
        break;
      }
      // Deadline-expired check: stop scanning instead of burning one
      // no-op SAT call per remaining pair (same contract as LJH).
      if (status == sat::Result::kUnknown) {
        all_pairs_tried = false;
        result.timed_out = true;
        j = n;
        break;
      }
      // The first seed is invalid: when no pair is valid, the table proves
      // the scan exhausted with no further SAT call. When some pair is
      // valid the SAT scan goes on unchanged, since the learnt state it
      // leaves behind steers the group MUS below.
      if (attempts == 1 && tt_exhaustion &&
          !SeedPairTable(rs_.matrix()).any_valid()) {
        j = n;
        break;
      }
    }
  }
  if (seed_j < 0) {
    result.exhausted = all_pairs_tried;
    if (result.timed_out) result.reason = reason_of_unknown(deadline);
    result.sat_calls = rs_.sat_calls() - start_calls;
    return result;
  }

  // MUS over the equivalence groups, with the seed's groups pre-removed
  // (xj pinned towards XA, xl towards XB).
  std::vector<char> removed(2 * n, 0);
  removed[seed_j] = 1;      // α-group of j dropped -> j ∈ XA
  removed[n + seed_l] = 1;  // β-group of l dropped -> l ∈ XB
  mus::GroupMusOptions mopts;
  mopts.conflict_budget = opts_.conflict_budget;
  mus::GroupMusExtractor extractor(rs_.solver(), enable, mopts);
  const mus::GroupMusResult mus = extractor.extract(deadline, &removed);

  // Decode group membership into a partition.
  std::vector<char> alpha_enforced(n, 0), beta_enforced(n, 0);
  for (int g : mus.mus) {
    if (g < n) {
      alpha_enforced[g] = 1;
    } else {
      beta_enforced[g - n] = 1;
    }
  }
  Partition p;
  p.cls.resize(n);
  int na = 0, nb = 0;
  std::vector<int> free_vars;
  for (int i = 0; i < n; ++i) {
    if (alpha_enforced[i] && beta_enforced[i]) {
      p.cls[i] = VarClass::kC;
    } else if (alpha_enforced[i]) {  // only x ≡ x' enforced: x'' free
      p.cls[i] = VarClass::kB;
      ++nb;
    } else if (beta_enforced[i]) {
      p.cls[i] = VarClass::kA;
      ++na;
    } else {
      free_vars.push_back(i);  // both dropped: either side is valid
    }
  }
  // Balance the unconstrained variables.
  for (int i : free_vars) {
    if (na <= nb) {
      p.cls[i] = VarClass::kA;
      ++na;
    } else {
      p.cls[i] = VarClass::kB;
      ++nb;
    }
  }

  result.found = true;
  result.partition = std::move(p);
  result.sat_calls = rs_.sat_calls() - start_calls + mus.sat_calls;
  return result;
}

}  // namespace step::core
