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
  // a fresh solver: α occupies [0, n) and β occupies [n, 2n).
  alpha_.resize(n);
  beta_.resize(n);
  for (int i = 0; i < n; ++i) {
    alpha_[i] = sat::mk_lit(static_cast<sat::Var>(i));
    beta_[i] = sat::mk_lit(static_cast<sat::Var>(n + i));
  }
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

QbfPartitionFinder::ModelState& QbfPartitionFinder::state_for(QbfModel model) {
  auto& slot = states_[static_cast<std::size_t>(model)];
  if (slot) return *slot;

  slot = std::make_unique<ModelState>();
  ModelState& st = *slot;
  st.solver = make_solver();
  const int n = m_.n;
  const bool sym = opts_.symmetry_breaking;
  cnf::SolverSink sink(st.solver->abstraction());

  // fN: non-trivial partition, one class per variable.
  cnf::at_least_one(sink, alpha_);
  cnf::at_least_one(sink, beta_);
  for (int i = 0; i < n; ++i) sink.add_binary(~alpha_[i], ~beta_[i]);

  // QD's shared-variable indicators t_i ⇔ (¬α_i ∧ ¬β_i), at [2n, 3n).
  sat::LitVec t;
  if (model == QbfModel::kQD) {
    for (int i = 0; i < n; ++i) t.push_back(sat::mk_lit(sink.new_var()));
    for (int i = 0; i < n; ++i) {
      sink.add_ternary(t[i], alpha_[i], beta_[i]);
      sink.add_binary(~t[i], ~alpha_[i]);
      sink.add_binary(~t[i], ~beta_[i]);
    }
  }

  // fT is *not* encoded per bound. Each inequality of the target becomes
  // one counter over its mixed-polarity literal list; a concrete bound k
  // is later enforced by assuming the counter's output suffix above
  // BoundCounter::counter_bound(k) (offset = the |neg| shift of the
  // difference form). The bound-independent |XA| >= |XB| symmetry break
  // goes in as hard clauses.
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

QbfFindResult QbfPartitionFinder::find_with_bound(QbfModel model, int k,
                                                  const Deadline* deadline) {
  ++qbf_calls_;
  ModelState& st = state_for(model);
  qbf::ExistsForallSolver& solver = *st.solver;
  const std::uint64_t abs0 = solver.abstraction_stats().conflicts;
  const std::uint64_t ver0 = solver.verification_stats().conflicts;

  sat::LitVec assumps;
  for (const BoundCounter& bt : st.bounds) {
    bt.counter->assume_at_most(bt.counter_bound(k), assumps);
  }
  // Candidate steering, re-applied per query because phase saving and
  // VSIDS decay carry the previous query's phases and activities into this
  // one: prefer false phases on α/β (maximally-shared candidates survive
  // verification most often), and for the balancedness-driven models put
  // the partition variables ahead of the counter auxiliaries in the
  // decision order. QD does best with plain VSIDS order.
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
  total_iterations_ += result.iterations;
  return result;
}

sat::Solver::Stats QbfPartitionFinder::solver_stats() const {
  sat::Solver::Stats s;
  for (const auto& slot : states_) {
    if (slot != nullptr && slot->solver != nullptr) {
      s += slot->solver->abstraction_stats();
      s += slot->solver->verification_stats();
    }
  }
  return s;
}

}  // namespace step::core
