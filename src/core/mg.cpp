#include "core/mg.h"

#include "aig/simulate.h"
#include "mus/group_mus.h"

namespace step::core {

namespace {

/// Decodes a final group state into a partition: α-group dropped only →
/// XA, β-group dropped only → XB, both kept → XC. Inputs with both groups
/// dropped may go to either side; they balance the two.
Partition partition_of_groups(const std::vector<char>& alpha_enforced,
                              const std::vector<char>& beta_enforced) {
  const int n = static_cast<int>(alpha_enforced.size());
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
  for (int i : free_vars) {
    if (na <= nb) {
      p.cls[i] = VarClass::kA;
      ++na;
    } else {
      p.cls[i] = VarClass::kB;
      ++nb;
    }
  }
  return p;
}

}  // namespace

bool mg_on_table_eligible(GateOp op, int n, const MgOptions& opts) {
  return op != GateOp::kXor && n <= aig::kTtMaxSupport &&
         n * (n - 1) / 2 <= opts.max_seed_attempts;
}

PartitionSearchResult mg_on_table(const RelaxationTable& t,
                                  const Deadline* deadline,
                                  MgGroupState* state) {
  STEP_CHECK(t.op() != GateOp::kXor);
  PartitionSearchResult result;
  const int n = t.n();
  if (n < 2) {
    result.exhausted = true;
    return result;
  }
  auto out_of_time = [&] { return deadline != nullptr && deadline->expired(); };
  const std::size_t words = t.words();
  // Eα, Eβ, q and q's nonzero word list (at most one table's worth).
  const std::size_t scratch_bytes = 4 * words * sizeof(std::uint64_t);
  if (t.mem() != nullptr) t.mem()->charge(scratch_bytes);
  struct Refund {
    MemTracker* mem;
    std::size_t bytes;
    ~Refund() {
      if (mem != nullptr) mem->release(bytes);
    }
  } refund{t.mem(), scratch_bytes};

  // Seed scan in the SAT path's (j, l) order.
  std::vector<std::uint64_t> ea, eb, q;
  int seed_j = -1, seed_l = -1;
  for (int j = 0; j < n - 1 && seed_j < 0; ++j) {
    if (out_of_time()) {
      result.timed_out = true;
      result.reason = reason_of_unknown(deadline);
      return result;
    }
    const int l = t.first_valid_partner(j, ea);
    if (l >= 0) {
      seed_j = j;
      seed_l = l;
    }
  }
  if (seed_j < 0) {
    result.exhausted = true;
    return result;
  }

  // One deletion pass from the seed state (α_j and β_l dropped), β-groups
  // first. While one side's groups are tried the other side's E is fixed,
  // and so is q = on ∧ E_other. The state is valid (q ∧ E = 0), so
  // dropping group i keeps it valid iff q ∧ flip_i(E) = 0, which reads
  // only q's nonzero words; an accepted drop updates E := ∃xi·E.
  std::vector<char> alpha_enforced(n, 1), beta_enforced(n, 1);
  alpha_enforced[seed_j] = 0;
  beta_enforced[seed_l] = 0;
  const std::vector<std::uint64_t>& on = t.on();
  ea.resize(words);
  eb.resize(words);
  q.resize(words);
  aig::tt_exists(t.off().data(), ea.data(), words, seed_j);
  aig::tt_exists(t.off().data(), eb.data(), words, seed_l);
  std::vector<std::size_t> nz;
  nz.reserve(words);
  bool stopped = false;
  for (const bool beta : {true, false}) {
    std::vector<std::uint64_t>& e = beta ? eb : ea;
    const std::vector<std::uint64_t>& other = beta ? ea : eb;
    std::vector<char>& enforced = beta ? beta_enforced : alpha_enforced;
    nz.clear();
    for (std::size_t w = 0; w < words; ++w) {
      q[w] = on[w] & other[w];
      if (q[w] != 0) nz.push_back(w);
    }
    for (int i = 0; i < n && !stopped; ++i) {
      if (!enforced[i]) continue;
      if (out_of_time()) {
        stopped = true;  // the state reached so far is valid
        break;
      }
      bool hit = false;
      for (const std::size_t w : nz) {
        if ((q[w] & aig::tt_flip_word(e.data(), w, i)) != 0) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        aig::tt_exists(e.data(), e.data(), words, i);
        enforced[i] = 0;
      }
    }
  }

  if (state != nullptr) {
    *state = MgGroupState{};
    for (int i = 0; i < n; ++i) {
      if (!alpha_enforced[i]) state->alpha_dropped |= 1U << i;
      if (!beta_enforced[i]) state->beta_dropped |= 1U << i;
    }
  }
  result.found = true;
  result.partition = partition_of_groups(alpha_enforced, beta_enforced);
  return result;
}

PartitionSearchResult MgDecomposer::find_partition(const Deadline* deadline) {
  const int n = rs_.matrix().n;
  if (mg_on_table_eligible(rs_.matrix().op, n, opts_)) {
    return mg_on_table(RelaxationTable(rs_.matrix()), deadline);
  }
  PartitionSearchResult result;
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

  // Small cones whose every pair fits the attempt budget (XOR here: such
  // OR/AND cones ran on mg_on_table) can have the whole scan decided from
  // one truth table (RelaxationTable::any_pair_valid).
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
          !RelaxationTable(rs_.matrix()).any_pair_valid()) {
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
  result.found = true;
  result.partition = partition_of_groups(alpha_enforced, beta_enforced);
  result.sat_calls = rs_.sat_calls() - start_calls + mus.sat_calls;
  return result;
}

}  // namespace step::core
