#include "core/relaxation.h"

#include <algorithm>
#include <bit>

#include "aig/ops.h"
#include "aig/simulate.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"

namespace step::core {

Cone extract_po_cone(const aig::Aig& circuit, std::uint32_t po,
                     std::vector<std::uint32_t>* orig_inputs) {
  Cone cone;
  std::vector<std::uint32_t> used;
  std::vector<aig::Lit> created;
  cone.root =
      aig::extract_cone(circuit, circuit.output(po), cone.aig, used, created);
  if (orig_inputs != nullptr) *orig_inputs = used;
  return cone;
}

RelaxationMatrix build_relaxation_matrix(const Cone& cone, GateOp op,
                                         const CareSet* care) {
  RelaxationMatrix m;
  m.op = op;
  m.n = cone.n();
  if (op == GateOp::kXor) care = nullptr;  // XOR keeps exact semantics
  if (care_is_trivial(care)) care = nullptr;
  if (care != nullptr) {
    STEP_CHECK(static_cast<int>(care->aig.num_inputs()) == m.n);
    m.care_constrained = true;
  }
  aig::Aig& a = m.aig;

  auto make_inputs = [&](const char* prefix, std::vector<std::uint32_t>& idx,
                         std::vector<aig::Lit>& lits) {
    for (int i = 0; i < m.n; ++i) {
      const aig::Lit l = a.add_input(std::string(prefix) + std::to_string(i));
      idx.push_back(a.num_inputs() - 1);
      lits.push_back(l);
    }
  };

  std::vector<aig::Lit> lx, lxp, lxpp, lxppp, lalpha, lbeta;
  make_inputs("x", m.x, lx);
  make_inputs("xp", m.xp, lxp);
  make_inputs("xpp", m.xpp, lxpp);
  if (op == GateOp::kXor) make_inputs("xppp", m.xppp, lxppp);
  make_inputs("alpha", m.alpha, lalpha);
  make_inputs("beta", m.beta, lbeta);

  // Instantiated copies of the cone.
  const aig::Lit f0 = aig::copy_cone(cone.aig, cone.root, a, lx);
  m.fx = f0;
  const aig::Lit f1 = aig::copy_cone(cone.aig, cone.root, a, lxp);
  const aig::Lit f2 = aig::copy_cone(cone.aig, cone.root, a, lxpp);

  std::vector<aig::Lit> conj;
  switch (op) {
    case GateOp::kOr:
      conj = {f0, aig::lnot(f1), aig::lnot(f2)};
      break;
    case GateOp::kAnd:
      // AND bi-decomposition is the OR bi-decomposition of ¬f.
      conj = {aig::lnot(f0), f1, f2};
      break;
    case GateOp::kXor: {
      const aig::Lit f3 = aig::copy_cone(cone.aig, cone.root, a, lxppp);
      conj = {a.lxor(a.lxor(f0, f1), a.lxor(f2, f3))};
      break;
    }
  }

  // Don't-care windows: every copy must be a care minterm, so invalidity
  // witnesses (and CEGAR countermodels) are confined to the care set.
  if (care != nullptr) {
    m.care_x = aig::copy_cone(care->aig, care->root, a, lx);
    conj.push_back(m.care_x);
    conj.push_back(aig::copy_cone(care->aig, care->root, a, lxp));
    conj.push_back(aig::copy_cone(care->aig, care->root, a, lxpp));
  }

  // Relaxable equivalence constraints.
  for (int i = 0; i < m.n; ++i) {
    conj.push_back(a.lor(a.lxnor(lx[i], lxp[i]), lalpha[i]));
    conj.push_back(a.lor(a.lxnor(lx[i], lxpp[i]), lbeta[i]));
    if (op == GateOp::kXor) {
      conj.push_back(a.lor(a.lxnor(lxppp[i], lxp[i]), lbeta[i]));
      conj.push_back(a.lor(a.lxnor(lxppp[i], lxpp[i]), lalpha[i]));
    }
  }
  m.phi = a.land_many(conj);
  a.add_output(m.phi, "phi");
  return m;
}

namespace {

/// Identity support 0..n-1: table variable i is input position i.
std::vector<std::uint32_t> positions(int n) {
  std::vector<std::uint32_t> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

}  // namespace

RelaxationTable::RelaxationTable(const Cone& cone, GateOp op,
                                 const CareSet* care, MemTracker* mem)
    : op_(op), n_(cone.n()), mem_(mem) {
  STEP_CHECK(n_ <= aig::kTtMaxSupport);
  if (op_ == GateOp::kXor || care_is_trivial(care)) care = nullptr;
  const std::vector<std::uint32_t> sup = positions(n_);
  const std::vector<std::uint64_t> f =
      aig::truth_table(cone.aig, cone.root, sup, mem_);
  if (care == nullptr) {
    init(f, nullptr);
    return;
  }
  const std::vector<std::uint64_t> c =
      aig::truth_table(care->aig, care->root, sup, mem_);
  init(f, &c);
}

RelaxationTable::RelaxationTable(const RelaxationMatrix& m, MemTracker* mem)
    : op_(m.op), n_(m.n), mem_(mem) {
  STEP_CHECK(n_ <= aig::kTtMaxSupport);
  const std::vector<std::uint64_t> f =
      aig::truth_table(m.aig, m.fx, m.x, mem_);
  if (op_ == GateOp::kXor || m.care_x == aig::kLitTrue) {
    init(f, nullptr);
    return;
  }
  const std::vector<std::uint64_t> c =
      aig::truth_table(m.aig, m.care_x, m.x, mem_);
  init(f, &c);
}

RelaxationTable::~RelaxationTable() {
  if (mem_ != nullptr) mem_->release(charged_);
}

void RelaxationTable::init(const std::vector<std::uint64_t>& f,
                           const std::vector<std::uint64_t>* care) {
  if (op_ == GateOp::kXor) {
    on_ = f;
    // An input f does not depend on interacts with nothing.
    interacting_.assign(static_cast<std::size_t>(n_), 0);
    std::vector<std::uint64_t> base(f.size());
    for (int j = 0; j < n_; ++j) {
      // base = f ⊕ f^j is nonzero iff f depends on input j; j interacts
      // with l iff base ⊕ flip_l(base) is nonzero.
      bool dependent = false;
      for (std::size_t w = 0; w < base.size(); ++w) {
        base[w] = f[w] ^ aig::tt_flip_word(f.data(), w, j);
        dependent = dependent || base[w] != 0;
      }
      if (!dependent) continue;
      dependent_ |= 1U << j;
      for (int l = j + 1; l < n_; ++l) {
        for (std::size_t w = 0; w < base.size(); ++w) {
          if ((base[w] ^ aig::tt_flip_word(base.data(), w, l)) != 0) {
            interacting_[j] |= 1U << l;
            interacting_[l] |= 1U << j;
            break;
          }
        }
      }
    }
  } else {
    const std::size_t rows = std::size_t{1} << n_;
    const std::uint64_t mask = rows >= 64 ? ~0ULL : (1ULL << rows) - 1;
    // AND bi-decomposition is the OR bi-decomposition of ¬f.
    const std::uint64_t flip = op_ == GateOp::kAnd ? mask : 0;
    on_.resize(f.size());
    off_.resize(f.size());
    for (std::size_t w = 0; w < f.size(); ++w) {
      const std::uint64_t c = care != nullptr ? (*care)[w] : mask;
      on_[w] = (f[w] ^ flip) & c;
      off_[w] = (f[w] ^ flip ^ mask) & c;
    }
  }
  charged_ = (on_.capacity() + off_.capacity()) * sizeof(std::uint64_t) +
             interacting_.capacity() * sizeof(std::uint32_t);
  if (mem_ != nullptr) mem_->charge(charged_);
}

int RelaxationTable::first_valid_partner(
    int j, std::vector<std::uint64_t>& scratch) const {
  if (op_ == GateOp::kXor) {
    const std::uint32_t later = ~((2U << j) - 1) & ((1U << n_) - 1);
    const std::uint32_t free = later & ~interacting_[j];
    return free == 0 ? -1 : std::countr_zero(free);
  }
  // OR/AND: base = on ∧ flip_j(off), and base ∧ flip_l(off) reads only
  // base's nonzero words, listed while base is built.
  const std::size_t words = on_.size();
  scratch.resize(words);
  std::vector<std::uint32_t> nz;
  nz.reserve(words);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t v = on_[w] & aig::tt_flip_word(off_.data(), w, j);
    scratch[w] = v;
    if (v != 0) nz.push_back(static_cast<std::uint32_t>(w));
  }
  for (int l = j + 1; l < n_; ++l) {
    bool hit = false;
    for (const std::uint32_t w : nz) {
      if ((scratch[w] & aig::tt_flip_word(off_.data(), w, l)) != 0) {
        hit = true;
        break;
      }
    }
    if (!hit) return l;
  }
  return -1;
}

std::vector<std::uint64_t> RelaxationTable::exists_off(
    std::uint32_t vars) const {
  std::vector<std::uint64_t> e(off_.size());
  exists_off_into(vars, e.data());
  return e;
}

void RelaxationTable::exists_off_into(std::uint32_t vars,
                                      std::uint64_t* dst) const {
  STEP_CHECK(op_ != GateOp::kXor);
  std::copy(off_.begin(), off_.end(), dst);
  for (int i = 0; i < n_; ++i) {
    if ((vars >> i) & 1U) aig::tt_exists(dst, dst, off_.size(), i);
  }
}

bool RelaxationTable::forall_holds(std::uint32_t a, std::uint32_t b,
                                   TableCountermodel& cm,
                                   std::vector<std::uint64_t>& scratch) const {
  const std::size_t words = on_.size();
  scratch.resize(2 * words);
  std::uint64_t* ea = scratch.data();
  std::uint64_t* eb = ea + words;
  // on ∧ ∃a·off first: when it is empty, ∃b·off is never built.
  exists_off_into(a, ea);
  bool any = false;
  for (std::size_t w = 0; w < words; ++w) {
    ea[w] &= on_[w];
    any = any || ea[w] != 0;
  }
  if (!any) return true;
  exists_off_into(b, eb);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t hit = ea[w] & eb[w];
    if (hit == 0) continue;
    cm.x = static_cast<std::uint32_t>(64 * w) +
           static_cast<std::uint32_t>(std::countr_zero(hit));
    cm.xa = nearest_off(cm.x, a);
    cm.xb = nearest_off(cm.x, b);
    return false;
  }
  return true;
}

std::uint32_t RelaxationTable::nearest_off(std::uint32_t x,
                                           std::uint32_t vars) const {
  auto is_off = [&](std::uint32_t r) {
    return ((off_[r >> 6] >> (r & 63)) & 1ULL) != 0;
  };
  // x is an on-row, so s = ∅ never qualifies. Non-empty subsets of `vars`
  // by increasing size, each size in increasing order:
  // `s` walks the k-bit index masks of one size (Gosper's hack) and is
  // deposited onto the bits of `vars`.
  int pos[32];
  int k = 0;
  for (int i = 0; i < n_; ++i) {
    if ((vars >> i) & 1U) pos[k++] = i;
  }
  const std::uint64_t limit = std::uint64_t{1} << k;
  for (int c = 1; c <= k; ++c) {
    for (std::uint64_t s = (std::uint64_t{1} << c) - 1; s < limit;) {
      std::uint32_t flip = 0;
      for (std::uint64_t t = s; t != 0; t &= t - 1) {
        flip |= 1U << pos[std::countr_zero(t)];
      }
      if (is_off(x ^ flip)) return x ^ flip;
      const std::uint64_t low = s & (~s + 1);
      const std::uint64_t ripple = s + low;
      s = ripple | (((ripple ^ s) >> 2) / low);
    }
  }
  STEP_CHECK(false);  // x ∈ ∃vars·off
  return x;
}

RelaxationSolver::RelaxationSolver(const RelaxationMatrix& m,
                                   const sat::SolverOptions& sat_opts)
    : m_(m), solver_(sat_opts), mem_(sat_opts.mem) {
  // One variable per input and per AND of Φ (plus a constant).
  solver_.reserve_vars(
      static_cast<int>(m_.aig.num_inputs() + m_.aig.num_ands()) + 1);
  std::vector<sat::Lit> input_sat(m_.aig.num_inputs(), sat::kLitUndef);
  auto mk = [&](const std::vector<std::uint32_t>& idx,
                std::vector<sat::Var>* save) {
    for (std::uint32_t i : idx) {
      const sat::Var v = solver_.new_var();
      input_sat[i] = sat::mk_lit(v);
      if (save != nullptr) save->push_back(v);
    }
  };
  mk(m_.x, &x_vars_);
  mk(m_.xp, nullptr);
  mk(m_.xpp, nullptr);
  mk(m_.xppp, nullptr);
  mk(m_.alpha, &alpha_vars_);
  mk(m_.beta, &beta_vars_);

  cnf::SolverSink sink(solver_);
  cnf::encode_cone_assert(m_.aig, m_.phi, input_sat, sink, /*value=*/true);
}

sat::LitVec RelaxationSolver::assumptions_for(const Partition& p) const {
  STEP_CHECK(p.size() == m_.n);
  sat::LitVec assumptions;
  assumptions.reserve(2 * m_.n);
  for (int i = 0; i < m_.n; ++i) {
    assumptions.push_back(
        sat::mk_lit(alpha_vars_[i], /*sign=*/p.cls[i] != VarClass::kA));
    assumptions.push_back(
        sat::mk_lit(beta_vars_[i], /*sign=*/p.cls[i] != VarClass::kB));
  }
  return assumptions;
}

bool RelaxationSolver::is_valid(const Partition& p, const Deadline* deadline,
                                sat::Result* status) {
  const sat::LitVec assumptions = assumptions_for(p);
  ++sat_calls_;
  const sat::Result r = solver_.solve_limited(assumptions, -1, deadline);
  if (status != nullptr) *status = r;
  return r == sat::Result::kUnsat;
}

}  // namespace step::core
