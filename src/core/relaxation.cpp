#include "core/relaxation.h"

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

SeedPairTable::SeedPairTable(const RelaxationMatrix& m)
    : op_(m.op), n_(m.n) {
  STEP_CHECK(n_ <= aig::kTtMaxSupport);
  const std::vector<std::uint64_t> f = aig::truth_table(m.aig, m.fx, m.x);
  if (op_ == GateOp::kXor) {
    on_ = f;
    return;
  }
  const std::size_t rows = std::size_t{1} << n_;
  const std::uint64_t mask = rows >= 64 ? ~0ULL : (1ULL << rows) - 1;
  const std::vector<std::uint64_t> care =
      m.care_x == aig::kLitTrue
          ? std::vector<std::uint64_t>(f.size(), mask)
          : aig::truth_table(m.aig, m.care_x, m.x);
  // AND bi-decomposition is the OR bi-decomposition of ¬f.
  const std::uint64_t flip = op_ == GateOp::kAnd ? mask : 0;
  on_.resize(f.size());
  off_.resize(f.size());
  for (std::size_t w = 0; w < f.size(); ++w) {
    on_[w] = (f[w] ^ flip) & care[w];
    off_[w] = (f[w] ^ flip ^ mask) & care[w];
  }
}

void SeedPairTable::build_base(int j, std::vector<std::uint64_t>& base) const {
  base.resize(on_.size());
  for (std::size_t w = 0; w < on_.size(); ++w) {
    base[w] = op_ == GateOp::kXor
                  ? on_[w] ^ aig::tt_flip_word(on_.data(), w, j)
                  : on_[w] & aig::tt_flip_word(off_.data(), w, j);
  }
}

bool SeedPairTable::hits(const std::vector<std::uint64_t>& base, int l) const {
  for (std::size_t w = 0; w < base.size(); ++w) {
    const std::uint64_t v =
        op_ == GateOp::kXor ? base[w] ^ aig::tt_flip_word(base.data(), w, l)
                            : base[w] & aig::tt_flip_word(off_.data(), w, l);
    if (v != 0) return true;
  }
  return false;
}

bool SeedPairTable::valid(int j, int l) const {
  STEP_CHECK(j != l && j >= 0 && l >= 0 && j < n_ && l < n_);
  std::vector<std::uint64_t> base;
  build_base(j, base);
  return !hits(base, l);
}

bool SeedPairTable::any_valid() const {
  std::vector<std::uint64_t> base;
  for (int j = 0; j < n_; ++j) {
    build_base(j, base);
    for (int l = j + 1; l < n_; ++l) {
      if (!hits(base, l)) return true;
    }
  }
  return false;
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
