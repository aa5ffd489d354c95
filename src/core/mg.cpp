#include "core/mg.h"

#include <algorithm>
#include <optional>

#include "aig/simulate.h"
#include "common/rng.h"
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

/// Words of fixed-seed random X patterns the seed-pair filter simulates
/// (64 patterns each).
constexpr std::size_t kFilterWords = 4;
constexpr std::uint64_t kFilterSeed = 0x5eedf11e75eedULL;

/// One function over the matrix's first copy X (f(X) or care(X)),
/// simulated on patterns laid out by X position: word w of input i is
/// in[i * words + w].
class XSimulator {
 public:
  XSimulator(const RelaxationMatrix& m, aig::Lit root, MemTracker* mem,
             std::size_t block_words)
      : sim_(m.aig, root, mem, block_words) {
    std::vector<int> pos_of(m.aig.num_inputs(), -1);
    for (int i = 0; i < m.n; ++i) pos_of[m.x[i]] = i;
    for (const std::uint32_t in : sim_.support()) {
      STEP_CHECK(pos_of[in] >= 0);
      pos_.push_back(static_cast<std::size_t>(pos_of[in]));
    }
  }

  void run(const std::uint64_t* in, std::size_t words, std::uint64_t* out) {
    for (std::size_t p = 0; p < pos_.size(); ++p) {
      std::copy_n(in + pos_[p] * words, words, sim_.block_input(p, words));
    }
    sim_.run_block(words, out);
  }

 private:
  aig::ConeSimulator sim_;
  std::vector<std::size_t> pos_;
};

bool test_bit(const std::vector<std::uint64_t>& bits, int i) {
  return ((bits[static_cast<std::size_t>(i) >> 6] >> (i & 63)) & 1U) != 0;
}

/// Refutes seed pairs of MG's SAT scan without a SAT call. The pair
/// ({j},{l}) is invalid iff Φ has a model under it, and each rule names
/// the rows of one, so a refuted pair is one the SAT check calls invalid:
///   OR : some on-row x has x ⊕ e_j and x ⊕ e_l in the off-set
///        (on = f ∧ care, off = ¬f ∧ care: every row is a care row);
///   AND: the same on ¬f;
///   XOR: f(x) ⊕ f(x^j) ⊕ f(x^l) ⊕ f(x^jl) = 1 (XOR matrices carry no
///        care set).
/// The rows tried are kFilterWords words of fixed-seed random patterns,
/// simulated with one or two inputs flipped as the scan reaches them, and
/// (OR/AND) the on-rows of the models that proved earlier pairs invalid:
/// every pair inside such a row's sensitive set {i : x ⊕ e_i is off} is
/// refuted. All buffers are charged to `mem`.
class SeedPairFilter {
 public:
  SeedPairFilter(const RelaxationMatrix& m, MemTracker* mem)
      : n_(m.n),
        op_(m.op),
        mem_(mem),
        block_(std::max(kFilterWords,
                        (static_cast<std::size_t>(m.n) + 64) / 64)),
        f_(m, m.fx, mem, block_) {
    if (m.care_x != aig::kLitTrue) care_.emplace(m, m.care_x, mem, block_);
    const std::size_t n = static_cast<std::size_t>(n_);
    Rng rng(kFilterSeed);
    pat_.resize(n * kFilterWords);
    for (std::uint64_t& w : pat_) w = rng.next();
    on0_.resize(kFilterWords);
    flip_.resize(n * kFilterWords);
    have_flip_.assign(n, 0);
    row_mask_.resize(kFilterWords);
    row_refuted_.resize((n + 63) / 64);
    scratch_.resize(block_);
    off_.resize(block_);
    care_buf_.resize(care_ ? block_ : 0);
    charge((pat_.size() + on0_.size() + flip_.size() + row_mask_.size() +
            row_refuted_.size() + scratch_.size() + off_.size() +
            care_buf_.size()) *
               sizeof(std::uint64_t) +
           have_flip_.size());
    eval(pat_.data(), kFilterWords, on0_.data(), off_.data());
  }
  ~SeedPairFilter() {
    if (mem_ != nullptr) mem_->release(charged_);
  }
  SeedPairFilter(const SeedPairFilter&) = delete;
  SeedPairFilter& operator=(const SeedPairFilter&) = delete;

  /// Moves the scan to row j: the pairs (j, l), l > j.
  void start_row(int j) {
    row_ = j;
    std::fill(row_refuted_.begin(), row_refuted_.end(), 0);
    for (const std::vector<std::uint64_t>& s : witnesses_) {
      if (!test_bit(s, j)) continue;
      for (std::size_t w = 0; w < s.size(); ++w) row_refuted_[w] |= s[w];
    }
    // OR/AND: the on-rows whose j-neighbour is off; XOR: f ⊕ f^j.
    const std::uint64_t* fj = flipped(j);
    for (std::size_t w = 0; w < kFilterWords; ++w) {
      row_mask_[w] = op_ == GateOp::kXor ? on0_[w] ^ fj[w] : on0_[w] & fj[w];
    }
  }

  /// True iff the pair (j, l) of the current row j is refuted.
  bool refuted(int l) {
    if (test_bit(row_refuted_, l)) return true;
    const std::uint64_t* fl = flipped(l);
    if (op_ != GateOp::kXor) {
      for (std::size_t w = 0; w < kFilterWords; ++w) {
        if ((row_mask_[w] & fl[w]) != 0) return true;
      }
      return false;
    }
    complement(row_);
    complement(l);
    eval(pat_.data(), kFilterWords, scratch_.data(), off_.data());
    complement(row_);
    complement(l);
    for (std::size_t w = 0; w < kFilterWords; ++w) {
      if ((row_mask_[w] ^ fl[w] ^ scratch_[w]) != 0) return true;
    }
    return false;
  }

  /// OR/AND: refutes every pair inside the sensitive set of x, the X row
  /// of a model that proved a pair invalid. Simulates x (pattern 0) and
  /// x ⊕ e_i (pattern i + 1) in one block; x must be an on-row.
  void add_witness(const std::vector<char>& x) {
    if (op_ == GateOp::kXor) return;
    const std::size_t n = static_cast<std::size_t>(n_);
    const std::size_t words = (n + 64) / 64;
    if (witness_in_.empty()) {
      witness_in_.resize(n * words);
      charge(witness_in_.size() * sizeof(std::uint64_t));
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t* row = witness_in_.data() + i * words;
      std::fill(row, row + words, x[i] != 0 ? ~0ULL : 0ULL);
      row[(i + 1) >> 6] ^= 1ULL << ((i + 1) & 63);
    }
    eval(witness_in_.data(), words, scratch_.data(), off_.data());
    if ((scratch_[0] & 1U) == 0) return;
    std::vector<std::uint64_t> s((n + 63) / 64, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (((off_[(i + 1) >> 6] >> ((i + 1) & 63)) & 1U) != 0) {
        s[i >> 6] |= 1ULL << (i & 63);
      }
    }
    if (test_bit(s, row_)) {
      for (std::size_t w = 0; w < s.size(); ++w) row_refuted_[w] |= s[w];
    }
    charge(s.size() * sizeof(std::uint64_t));
    witnesses_.push_back(std::move(s));
  }

 private:
  /// OR/AND: on and off (OR form) at the patterns; XOR: on = f, and `off`
  /// is left as it is.
  void eval(const std::uint64_t* in, std::size_t words, std::uint64_t* on,
            std::uint64_t* off) {
    f_.run(in, words, on);
    if (op_ == GateOp::kXor) return;
    if (care_) care_->run(in, words, care_buf_.data());
    const std::uint64_t negate = op_ == GateOp::kAnd ? ~0ULL : 0ULL;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t care = care_ ? care_buf_[w] : ~0ULL;
      const std::uint64_t f = on[w] ^ negate;
      on[w] = f & care;
      off[w] = ~f & care;
    }
  }

  void complement(int i) {
    std::uint64_t* row = pat_.data() + static_cast<std::size_t>(i) * kFilterWords;
    for (std::size_t w = 0; w < kFilterWords; ++w) row[w] = ~row[w];
  }

  /// The patterns with input i flipped, cached: OR/AND their off bits,
  /// XOR their f.
  const std::uint64_t* flipped(int i) {
    std::uint64_t* out =
        flip_.data() + static_cast<std::size_t>(i) * kFilterWords;
    if (have_flip_[static_cast<std::size_t>(i)] == 0) {
      have_flip_[static_cast<std::size_t>(i)] = 1;
      complement(i);
      if (op_ == GateOp::kXor) {
        eval(pat_.data(), kFilterWords, out, off_.data());
      } else {
        eval(pat_.data(), kFilterWords, scratch_.data(), out);
      }
      complement(i);
    }
    return out;
  }

  void charge(std::size_t bytes) {
    if (mem_ == nullptr) return;
    mem_->charge(bytes);
    charged_ += bytes;
  }

  int n_;
  GateOp op_;
  MemTracker* mem_;
  std::size_t charged_ = 0;
  /// Words per simulator run: the random patterns, or x and its n flips.
  std::size_t block_;
  XSimulator f_;
  std::optional<XSimulator> care_;
  std::vector<std::uint64_t> pat_;   ///< n × kFilterWords random patterns
  std::vector<std::uint64_t> on0_;   ///< on at the patterns (XOR: f)
  std::vector<std::uint64_t> flip_;  ///< n × kFilterWords, see flipped()
  std::vector<char> have_flip_;
  int row_ = -1;
  std::vector<std::uint64_t> row_mask_;
  /// Bit l: the pair (row_, l) is refuted by a witness.
  std::vector<std::uint64_t> row_refuted_;
  std::vector<std::uint64_t> scratch_, off_, care_buf_;  ///< block_ words
  std::vector<std::uint64_t> witness_in_;
  /// The sensitive sets of the witnesses, one bit per input.
  std::vector<std::vector<std::uint64_t>> witnesses_;
};

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

MgSeed MgDecomposer::seed_scan(const Deadline* deadline,
                               std::vector<std::pair<int, int>>* refuted) {
  const int n = rs_.matrix().n;
  auto out_of_time = [&] { return deadline != nullptr && deadline->expired(); };
  // Pairs in (j, l) order, each one attempt. A pair the filter refutes
  // costs no SAT call; the model of a pair SAT proves invalid witnesses
  // the refutation of further pairs.
  SeedPairFilter filter(rs_.matrix(), rs_.mem());
  MgSeed seed;
  Partition p;
  std::vector<char> witness(n);
  int attempts = 0;
  bool all_pairs_tried = true;
  for (int j = 0; j < n && seed.j < 0; ++j) {
    filter.start_row(j);
    for (int l = j + 1; l < n; ++l) {
      if (attempts >= opts_.max_seed_attempts || out_of_time()) {
        all_pairs_tried = false;
        seed.timed_out = out_of_time();
        j = n;
        break;
      }
      ++attempts;
      if (filter.refuted(l)) {
        if (refuted != nullptr) refuted->emplace_back(j, l);
        continue;
      }
      p.cls.assign(n, VarClass::kC);
      p.cls[j] = VarClass::kA;
      p.cls[l] = VarClass::kB;
      sat::Result status;
      if (rs_.is_valid(p, deadline, &status)) {
        seed.j = j;
        seed.l = l;
        break;
      }
      // Deadline-expired check: stop scanning instead of burning one
      // no-op SAT call per remaining pair (same contract as LJH).
      if (status == sat::Result::kUnknown) {
        all_pairs_tried = false;
        seed.timed_out = true;
        j = n;
        break;
      }
      for (int i = 0; i < n; ++i) {
        witness[i] =
            rs_.solver().model_value(rs_.x_var(i)) == sat::Lbool::kTrue;
      }
      filter.add_witness(witness);
    }
  }
  seed.exhausted = seed.j < 0 && all_pairs_tried;
  return seed;
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
  const MgSeed seed = seed_scan(deadline);
  if (seed.j < 0) {
    result.exhausted = seed.exhausted;
    result.timed_out = seed.timed_out;
    if (result.timed_out) result.reason = reason_of_unknown(deadline);
    result.sat_calls = rs_.sat_calls() - start_calls;
    return result;
  }

  // Group layout: group i in [0,n) is the α-equivalence of variable i
  // (enforces xi ≡ xi'), group n+i the β-equivalence (xi ≡ xi'').
  // Enable literal = negated control variable: assuming ¬αi enforces.
  std::vector<sat::Lit> enable;
  enable.reserve(2 * n);
  for (int i = 0; i < n; ++i) enable.push_back(~sat::mk_lit(rs_.alpha_var(i)));
  for (int i = 0; i < n; ++i) enable.push_back(~sat::mk_lit(rs_.beta_var(i)));

  // MUS over the equivalence groups, with the seed's groups pre-removed
  // (xj pinned towards XA, xl towards XB).
  std::vector<char> removed(2 * n, 0);
  removed[seed.j] = 1;      // α-group of j dropped -> j ∈ XA
  removed[n + seed.l] = 1;  // β-group of l dropped -> l ∈ XB
  mus::GroupMusExtractor extractor(rs_.solver(), enable);
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
