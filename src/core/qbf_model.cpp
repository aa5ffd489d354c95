#include "core/qbf_model.h"

#include <algorithm>

#include "aig/simulate.h"
#include "cnf/cnf.h"

namespace step::core {

qbf::ForallSide table_forall_side(const RelaxationTable& table) {
  return [&table, scratch = std::vector<std::uint64_t>{}](
             std::span<const sat::Lbool> cand, sat::LitVec& refinement,
             const Deadline*) mutable {
    const int n = table.n();
    std::uint32_t a = 0, b = 0;
    for (int i = 0; i < n; ++i) {
      if (cand[i] != sat::Lbool::kFalse) a |= 1U << i;
      if (cand[n + i] != sat::Lbool::kFalse) b |= 1U << i;
    }
    TableCountermodel cm;
    if (table.forall_holds(a, b, cm, scratch)) {
      return qbf::ForallVerdict::kHolds;
    }
    for (int i = 0; i < n; ++i) {
      if (((cm.x ^ cm.xa) >> i) & 1U) {
        refinement.push_back(~sat::mk_lit(static_cast<sat::Var>(i)));
      }
      if (((cm.x ^ cm.xb) >> i) & 1U) {
        refinement.push_back(~sat::mk_lit(static_cast<sat::Var>(n + i)));
      }
    }
    return qbf::ForallVerdict::kRefuted;
  };
}

QbfPartitionFinder::QbfPartitionFinder(const RelaxationMatrix& m,
                                       QbfFinderOptions opts)
    : m_(m), opts_(opts) {
  const int n = m_.n;

  // Quantifier structure of the negated formulation (9), shared by every
  // query on this matrix:
  // outer (∃) = alpha ++ beta;  inner (∀) = all cone-copy inputs.
  outer_ = m_.alpha;
  outer_.insert(outer_.end(), m_.beta.begin(), m_.beta.end());
  inner_ = m_.x;
  inner_.insert(inner_.end(), m_.xp.begin(), m_.xp.end());
  inner_.insert(inner_.end(), m_.xpp.begin(), m_.xpp.end());
  inner_.insert(inner_.end(), m_.xppp.begin(), m_.xppp.end());

  // The abstraction allocates one variable per outer input, in order, into
  // a fresh solver: α occupies [0, n) and β occupies [n, 2n) in every
  // instance, so the side-constraint clauses can be cached as templates.
  alpha_.resize(n);
  beta_.resize(n);
  for (int i = 0; i < n; ++i) {
    alpha_[i] = sat::mk_lit(static_cast<sat::Var>(i));
    beta_[i] = sat::mk_lit(static_cast<sat::Var>(n + i));
  }

  // fN: non-trivial partition, one class per variable.
  cnf::VecSink fn_sink(static_cast<sat::Var>(2 * n));
  cnf::at_least_one(fn_sink, alpha_);
  cnf::at_least_one(fn_sink, beta_);
  for (int i = 0; i < n; ++i) fn_sink.add_binary(~alpha_[i], ~beta_[i]);
  STEP_CHECK(fn_sink.num_vars() == 2 * n);  // fN allocates no aux vars
  fn_clauses_ = fn_sink.clauses();

  // Shared-variable indicators t_i ⇔ (¬α_i ∧ ¬β_i), used by QD and by the
  // scratch path's eq. (8) QDB; the t vars land at [2n, 3n) when replayed
  // right after fN.
  cnf::VecSink t_sink(static_cast<sat::Var>(2 * n));
  shared_lits_.resize(n);
  for (int i = 0; i < n; ++i) {
    const sat::Lit t = sat::mk_lit(t_sink.new_var());
    shared_lits_[i] = t;
    t_sink.add_ternary(t, alpha_[i], beta_[i]);
    t_sink.add_binary(~t, ~alpha_[i]);
    t_sink.add_binary(~t, ~beta_[i]);
  }
  shared_clauses_ = t_sink.clauses();
}

sat::LitVec QbfPartitionFinder::install_side_constraints(
    qbf::ExistsForallSolver& solver, bool want_shared) const {
  const int n = m_.n;
  for (int i = 0; i < n; ++i) {
    STEP_CHECK(solver.outer_var(i) == sat::var(alpha_[i]));
    STEP_CHECK(solver.outer_var(n + i) == sat::var(beta_[i]));
  }
  cnf::SolverSink sink(solver.abstraction());
  for (const sat::LitVec& c : fn_clauses_) sink.add_clause(c);
  if (!want_shared) return {};
  for (const sat::Lit l : shared_lits_) {
    const sat::Var v = sink.new_var();
    STEP_CHECK(v == sat::var(l));
  }
  for (const sat::LitVec& c : shared_clauses_) sink.add_clause(c);
  return shared_lits_;
}

Partition QbfPartitionFinder::decode_partition(
    const std::vector<sat::Lbool>& outer_model) const {
  const int n = m_.n;
  Partition p;
  p.cls.resize(n);
  for (int i = 0; i < n; ++i) {
    const bool in_a = outer_model[i] == sat::Lbool::kTrue;
    const bool in_b = outer_model[n + i] == sat::Lbool::kTrue;
    STEP_CHECK(!(in_a && in_b));
    p.cls[i] = in_a ? VarClass::kA : in_b ? VarClass::kB : VarClass::kC;
  }
  return p;
}

std::unique_ptr<qbf::ExistsForallSolver> QbfPartitionFinder::make_solver() {
  if (m_.n > aig::kTtMaxSupport || m_.op == GateOp::kXor) {
    return std::make_unique<qbf::ExistsForallSolver>(
        m_.aig, aig::lnot(m_.phi), outer_, inner_, opts_.cegar);
  }
  if (table_ == nullptr) {
    table_ = std::make_unique<RelaxationTable>(m_, opts_.cegar.sat.mem);
  }
  return std::make_unique<qbf::ExistsForallSolver>(
      outer_.size(), table_forall_side(*table_), opts_.cegar);
}

QbfPartitionFinder::IncState& QbfPartitionFinder::state_for(QbfModel model) {
  auto& slot = inc_[static_cast<std::size_t>(model)];
  if (slot) return *slot;

  slot = std::make_unique<IncState>();
  IncState& st = *slot;
  st.solver = make_solver();

  const bool sym = opts_.symmetry_breaking;
  const sat::LitVec t =
      install_side_constraints(*st.solver, model == QbfModel::kQD);
  cnf::SolverSink sink(st.solver->abstraction());

  // fT is *not* encoded per bound. Each inequality of the target becomes
  // one counter over its mixed-polarity literal list; a concrete bound k
  // is later enforced by assuming the counter's output suffix above
  // BoundCounter::counter_bound(k) (offset = the |neg| shift of the
  // difference form). The bound-independent |XA| >= |XB| symmetry break
  // goes in as hard clauses, in the same position of the scratch path's
  // clause order.
  auto add_bound = [&](const sat::LitVec& pos, const sat::LitVec& neg,
                       bool halved = false) {
    sat::LitVec lits(pos);
    for (const sat::Lit l : neg) lits.push_back(~l);
    st.bounds.push_back(
        {std::make_unique<cnf::IncrementalCounter>(sink, lits),
         static_cast<int>(neg.size()), halved});
  };
  switch (model) {
    case QbfModel::kQD:
      add_bound(t, {});
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      break;
    case QbfModel::kQB:
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      add_bound(alpha_, beta_);
      if (!sym) add_bound(beta_, alpha_);
      break;
    case QbfModel::kQDB:
      // Under |XA| >= |XB| the classes sum to n, so the eq. (8) cost is
      // ||XC|| + ||XA|| − ||XB|| = n − 2·||XB|| and cost <= k ⇔
      // #¬β <= ⌊(n + k)/2⌋: one counter over n literals instead of 3n, and
      // the cost's parity is built into the bound. Unbroken, the cost is
      // n − 2·min(||XA||, ||XB||), so both blocks are bounded.
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      add_bound({}, beta_, /*halved=*/true);
      if (!sym) add_bound({}, alpha_, /*halved=*/true);
      break;
  }
  return st;
}

QbfFindResult QbfPartitionFinder::find_incremental(QbfModel model, int k,
                                                   const Deadline* deadline) {
  IncState& st = state_for(model);
  qbf::ExistsForallSolver& solver = *st.solver;
  const std::uint64_t abs0 = solver.abstraction_stats().conflicts;
  const std::uint64_t ver0 = solver.verification_stats().conflicts;

  sat::LitVec assumps;
  for (const BoundCounter& bt : st.bounds) {
    bt.counter->assume_at_most(bt.counter_bound(k), assumps);
  }
  // Candidate steering, re-applied per query because phase saving and
  // VSIDS decay drift the persistent solver away from the fresh-solver
  // behaviour the scratch path gets for free: prefer false phases on α/β
  // (maximally-shared candidates survive verification most often), and
  // for the balancedness-driven models put the partition variables ahead
  // of the encoder auxiliaries in the decision order. Measured on the
  // table-III suite this collapses the QB bound sweeps (~4x fewer CEGAR
  // rounds than scratch) and trims QDB, while QD does best with plain
  // VSIDS order (see BENCH_table3.json).
  for (int i = 0; i < 2 * m_.n; ++i) {
    solver.abstraction().set_polarity_hint(solver.outer_var(i), false);
  }
  if (model != QbfModel::kQD) {
    for (int i = 0; i < 2 * m_.n; ++i) {
      solver.abstraction().boost_var_activity(solver.outer_var(i));
    }
  }
  const qbf::Qbf2Result r = solver.solve(assumps, deadline);

  abs_conflicts_ += solver.abstraction_stats().conflicts - abs0;
  ver_conflicts_ += solver.verification_stats().conflicts - ver0;

  QbfFindResult result;
  result.status = r.status;
  result.iterations = r.iterations;
  if (r.status == qbf::Qbf2Status::kTrue) {
    result.partition = decode_partition(r.outer_model);
  } else if (r.status == qbf::Qbf2Status::kFalse) {
    // The final conflict's assumption core certifies how much of the bound
    // was actually needed. A core whose smallest counter output is o_m
    // proves the tracked sum is forced to at least m in *every* candidate,
    // refuting every bound below refuted_below(m) (for QDB 2m − n: the
    // smaller block has at most n − m variables); an assumption-free core
    // means fN plus the refinements alone are inconsistent — no bound
    // helps.
    const sat::LitVec& core = solver.abstraction_core();
    auto in_core = [&](sat::Lit l) {
      return std::find(core.begin(), core.end(), l) != core.end();
    };
    int refuted = m_.n;  // no core hit: refuted at every feasible bound
    for (const BoundCounter& bt : st.bounds) {
      const int first = std::max(bt.counter_bound(k) + 1, 0);
      for (int j = first; j <= bt.counter->size(); ++j) {
        if (in_core(~bt.counter->output(j))) {
          refuted = std::min(refuted, bt.refuted_below(j));
          break;
        }
      }
    }
    result.refuted_below = std::max(k + 1, refuted);
  }
  return result;
}

QbfFindResult QbfPartitionFinder::find_scratch(QbfModel model, int k,
                                               const Deadline* deadline) {
  const std::unique_ptr<qbf::ExistsForallSolver> owned = make_solver();
  qbf::ExistsForallSolver& solver = *owned;
  const bool sym = opts_.symmetry_breaking;
  const sat::LitVec t =
      install_side_constraints(solver, model != QbfModel::kQB);
  cnf::SolverSink sink(solver.abstraction());

  // fT: the target constraint for the requested model and bound.
  switch (model) {
    case QbfModel::kQD: {
      cnf::at_most_k(sink, t, k);
      // Symmetry breaking |XA| >= |XB| (Section IV.A.2).
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      break;
    }
    case QbfModel::kQB: {
      // 0 <= #XA − #XB <= k (eq. (6); symmetry removed by construction).
      // Without the symmetry break, bound |#XA − #XB| <= k instead.
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      cnf::diff_at_most_k(sink, alpha_, beta_, k);
      if (!sym) cnf::diff_at_most_k(sink, beta_, alpha_, k);
      break;
    }
    case QbfModel::kQDB: {
      // 0 <= #XC + #XA − #XB <= k with |XA| >= |XB| (eq. (8)); the
      // unbroken variant bounds #XC + |#XA − #XB| <= k. Kept literal, over
      // the t indicators, as the reference for the incremental path's
      // smaller-block counter.
      if (sym) cnf::diff_non_negative(sink, alpha_, beta_);
      sat::LitVec pos_a(t);
      pos_a.insert(pos_a.end(), alpha_.begin(), alpha_.end());
      cnf::diff_at_most_k(sink, pos_a, beta_, k);
      if (!sym) {
        sat::LitVec pos_b(t);
        pos_b.insert(pos_b.end(), beta_.begin(), beta_.end());
        cnf::diff_at_most_k(sink, pos_b, alpha_, k);
      }
      break;
    }
  }

  const qbf::Qbf2Result r = solver.solve(deadline);
  abs_conflicts_ += solver.abstraction_stats().conflicts;
  ver_conflicts_ += solver.verification_stats().conflicts;
  scratch_stats_ += solver.abstraction_stats();
  scratch_stats_ += solver.verification_stats();

  QbfFindResult result;
  result.status = r.status;
  result.iterations = r.iterations;
  if (r.status == qbf::Qbf2Status::kTrue) {
    result.partition = decode_partition(r.outer_model);
  } else if (r.status == qbf::Qbf2Status::kFalse) {
    result.refuted_below = k + 1;
  }
  return result;
}

sat::Solver::Stats QbfPartitionFinder::solver_stats() const {
  sat::Solver::Stats s = scratch_stats_;
  for (const auto& slot : inc_) {
    if (slot != nullptr && slot->solver != nullptr) {
      s += slot->solver->abstraction_stats();
      s += slot->solver->verification_stats();
    }
  }
  return s;
}

QbfFindResult QbfPartitionFinder::find_with_bound(QbfModel model, int k,
                                                  const Deadline* deadline) {
  ++qbf_calls_;
  QbfFindResult r = opts_.incremental ? find_incremental(model, k, deadline)
                                      : find_scratch(model, k, deadline);
  total_iterations_ += r.iterations;
  return r;
}

}  // namespace step::core
