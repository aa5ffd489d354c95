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
    std::vector<std::uint64_t> base;
    for (int j = 0; j < n_; ++j) {
      build_base(j, base);
      if (std::all_of(base.begin(), base.end(),
                      [](std::uint64_t w) { return w == 0; })) {
        continue;
      }
      dependent_ |= 1U << j;
      for (int l = j + 1; l < n_; ++l) {
        if (hits(base, l)) {
          interacting_[j] |= 1U << l;
          interacting_[l] |= 1U << j;
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

void RelaxationTable::build_base(int j,
                                 std::vector<std::uint64_t>& base) const {
  base.resize(on_.size());
  const std::uint64_t* f = on_.data();
  if (op_ == GateOp::kXor) {
    for (std::size_t w = 0; w < base.size(); ++w) {
      base[w] = f[w] ^ aig::tt_flip_word(f, w, j);
    }
    return;
  }
  const std::uint64_t* off = off_.data();
  for (std::size_t w = 0; w < base.size(); ++w) {
    base[w] = f[w] & aig::tt_flip_word(off, w, j);
  }
}

bool RelaxationTable::hits(const std::vector<std::uint64_t>& base,
                           int l) const {
  // The other flipped operand: base itself (XOR) or off (OR/AND).
  const std::uint64_t* g = op_ == GateOp::kXor ? base.data() : off_.data();
  const bool is_xor = op_ == GateOp::kXor;
  for (std::size_t w = 0; w < base.size(); ++w) {
    const std::uint64_t fl = aig::tt_flip_word(g, w, l);
    if ((is_xor ? base[w] ^ fl : base[w] & fl) != 0) return true;
  }
  return false;
}

bool RelaxationTable::pair_valid(int j, int l) const {
  STEP_CHECK(j != l && j >= 0 && l >= 0 && j < n_ && l < n_);
  if (op_ == GateOp::kXor) return ((interacting_[j] >> l) & 1U) == 0;
  std::vector<std::uint64_t> base;
  build_base(j, base);
  return !hits(base, l);
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

bool RelaxationTable::any_pair_valid() const {
  std::vector<std::uint64_t> base;
  for (int j = 0; j < n_; ++j) {
    if (first_valid_partner(j, base) >= 0) return true;
  }
  return false;
}

std::vector<std::uint64_t> RelaxationTable::exists_off(
    std::uint32_t vars) const {
  STEP_CHECK(op_ != GateOp::kXor);
  std::vector<std::uint64_t> e = off_;
  for (int i = 0; i < n_; ++i) {
    if ((vars >> i) & 1U) aig::tt_exists(e.data(), e.data(), e.size(), i);
  }
  return e;
}

RelaxationSolver::RelaxationSolver(const RelaxationMatrix& m,
                                   const sat::SolverOptions& sat_opts)
    : m_(m), solver_(sat_opts) {
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
  mk(m_.x, nullptr);
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
