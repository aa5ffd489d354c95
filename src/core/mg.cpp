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

/// mg_on_table's deletion pass on an OR/AND table, from the seed state
/// (α_j and β_l dropped). While one side's groups are tried the other
/// side's E = ∃S·off is fixed, and so is q = on ∧ E_other. The state is
/// valid (q ∧ E = 0), so dropping group i keeps it valid iff
/// q ∧ flip_i(E) = 0, which reads only q's nonzero words; an accepted
/// drop updates E := ∃xi·E. A deadline expiry stops the pass.
void drop_groups_or(const RelaxationTable& t, const Deadline* deadline,
                    int seed_j, int seed_l, std::vector<char>& alpha_enforced,
                    std::vector<char>& beta_enforced) {
  const int n = t.n();
  const std::size_t words = t.words();
  const std::vector<std::uint64_t>& on = t.on();
  std::vector<std::uint64_t> ea(words), eb(words), q(words);
  aig::tt_exists(t.off().data(), ea.data(), words, seed_j);
  aig::tt_exists(t.off().data(), eb.data(), words, seed_l);
  std::vector<std::size_t> nz;
  nz.reserve(words);
  for (const bool beta : {true, false}) {
    std::vector<std::uint64_t>& e = beta ? eb : ea;
    const std::vector<std::uint64_t>& other = beta ? ea : eb;
    std::vector<char>& enforced = beta ? beta_enforced : alpha_enforced;
    nz.clear();
    for (std::size_t w = 0; w < words; ++w) {
      q[w] = on[w] & other[w];
      if (q[w] != 0) nz.push_back(w);
    }
    for (int i = 0; i < n; ++i) {
      if (!enforced[i]) continue;
      if (deadline != nullptr && deadline->expired()) return;
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
}

/// The same pass on an XOR table. With the other side's dropped set
/// fixed, dropping group i keeps the state valid iff i is not dependent
/// while its other group is dropped and i interacts with no input whose
/// other-side group is dropped: two mask tests per group.
void drop_groups_xor(const RelaxationTable& t, const Deadline* deadline,
                     int seed_j, int seed_l, std::vector<char>& alpha_enforced,
                     std::vector<char>& beta_enforced) {
  const int n = t.n();
  std::uint32_t alpha_dropped = 1U << seed_j, beta_dropped = 1U << seed_l;
  for (const bool beta : {true, false}) {
    std::uint32_t& dropped = beta ? beta_dropped : alpha_dropped;
    const std::uint32_t other = beta ? alpha_dropped : beta_dropped;
    std::vector<char>& enforced = beta ? beta_enforced : alpha_enforced;
    for (int i = 0; i < n; ++i) {
      if (!enforced[i]) continue;
      if (deadline != nullptr && deadline->expired()) return;
      const std::uint32_t bit = 1U << i;
      if ((other & bit & t.xor_dependent()) == 0 &&
          (t.xor_interacting(i) & other) == 0) {
        dropped |= bit;
        enforced[i] = 0;
      }
    }
  }
}

}  // namespace

bool mg_on_table_eligible(int n, const MgOptions& opts) {
  return n <= aig::kTtMaxSupport && n * (n - 1) / 2 <= opts.max_seed_attempts;
}

PartitionSearchResult mg_on_table(const RelaxationTable& t,
                                  const Deadline* deadline,
                                  MgGroupState* state) {
  PartitionSearchResult result;
  const int n = t.n();
  if (n < 2) {
    result.exhausted = true;
    return result;
  }
  const bool is_xor = t.op() == GateOp::kXor;
  // OR/AND scratch: the seed scan's row, then Eα, Eβ, q and q's nonzero
  // word list (at most one table's worth). XOR reads only its masks.
  const std::size_t scratch_bytes =
      is_xor ? 0 : 4 * t.words() * sizeof(std::uint64_t);
  if (t.mem() != nullptr) t.mem()->charge(scratch_bytes);
  struct Refund {
    MemTracker* mem;
    std::size_t bytes;
    ~Refund() {
      if (mem != nullptr) mem->release(bytes);
    }
  } refund{t.mem(), scratch_bytes};

  // Seed scan in the SAT path's (j, l) order.
  int seed_j = -1, seed_l = -1;
  {
    std::vector<std::uint64_t> row;
    for (int j = 0; j < n - 1 && seed_j < 0; ++j) {
      if (deadline != nullptr && deadline->expired()) {
        result.timed_out = true;
        result.reason = reason_of_unknown(deadline);
        return result;
      }
      const int l = t.first_valid_partner(j, row);
      if (l >= 0) {
        seed_j = j;
        seed_l = l;
      }
    }
  }
  if (seed_j < 0) {
    result.exhausted = true;
    return result;
  }

  // One deletion pass from the seed state (α_j and β_l dropped), β-groups
  // first. A deadline stop keeps the state reached so far: it is valid.
  std::vector<char> alpha_enforced(n, 1), beta_enforced(n, 1);
  alpha_enforced[seed_j] = 0;
  beta_enforced[seed_l] = 0;
  if (is_xor) {
    drop_groups_xor(t, deadline, seed_j, seed_l, alpha_enforced,
                    beta_enforced);
  } else {
    drop_groups_or(t, deadline, seed_j, seed_l, alpha_enforced,
                   beta_enforced);
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
  if (mg_on_table_eligible(n, opts_)) {
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
