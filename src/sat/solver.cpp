#include "sat/solver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace step::sat {

namespace {

/// Luby restart sequence: 1 1 2 1 1 2 4 ... scaled by the restart base.
double luby(double y, int x) {
  int size, seq;
  for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    seq--;
    x = x % size;
  }
  return std::pow(y, seq);
}

// EMA smoothing constants (per conflict). The knobs that matter for tuning
// are the margins in SolverOptions; the horizons follow Glucose/CaDiCaL
// practice: the fast average tracks the last ~32 conflicts, the slow one
// the last ~16k, and the trail average the last ~4k.
constexpr double kEmaFastAlpha = 1.0 / 32.0;
constexpr double kEmaSlowAlpha = 1.0 / 16384.0;
constexpr double kTrailEmaAlpha = 1.0 / 4096.0;

}  // namespace

Solver::Stats& Solver::Stats::operator+=(const Stats& o) {
  conflicts += o.conflicts;
  decisions += o.decisions;
  propagations += o.propagations;
  binary_propagations += o.binary_propagations;
  restarts += o.restarts;
  blocked_restarts += o.blocked_restarts;
  rephases += o.rephases;
  learnt += o.learnt;
  db_reductions += o.db_reductions;
  core_learnts += o.core_learnts;
  tier2_learnts += o.tier2_learnts;
  local_learnts += o.local_learnts;
  inprocess_rounds += o.inprocess_rounds;
  subsumed_clauses += o.subsumed_clauses;
  strengthened_clauses += o.strengthened_clauses;
  vivified_clauses += o.vivified_clauses;
  removed_lits += o.removed_lits;
  conflict_budget_stops += o.conflict_budget_stops;
  deadline_stops += o.deadline_stops;
  return *this;
}

Solver::Solver(SolverOptions opts) : opts_(opts) {
  debug_models_ = std::getenv("STEP_DEBUG_MODELS") != nullptr;
  if (opts_.mem != nullptr) arena_.set_mem_tracker(opts_.mem);
}

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(Lbool::kUndef);
  level_.push_back(0);
  reason_.push_back(kCRefUndef);
  activity_.push_back(0.0);
  polarity_.push_back(0);
  target_phase_.push_back(0);
  seen_.push_back(0);
  present_.push_back(0);
  seen2_.push_back(0);
  level0_unit_id_.push_back(kProofIdUndef);
  watches_.emplace_back();
  watches_.emplace_back();
  bin_watches_.emplace_back();
  bin_watches_.emplace_back();
  order_heap_.insert(v);
  if (debug_models_) debug_trace_.push_back("v");
  return v;
}

void Solver::attach_clause(CRef cr) {
  const Clause& c = arena_[cr];
  STEP_CHECK(c.size() >= 2);
  if (c.size() == 2) {
    bin_watches_[index(~c[0])].push_back({c[1], cr});
    bin_watches_[index(~c[1])].push_back({c[0], cr});
    return;
  }
  watches_[index(~c[0])].push_back({cr, c[1]});
  watches_[index(~c[1])].push_back({cr, c[0]});
}

void Solver::detach_clause(CRef cr) {
  const Clause& c = arena_[cr];
  if (c.size() == 2) {
    auto remove_bin = [&](Lit w) {
      auto& ws = bin_watches_[index(~w)];
      for (std::size_t i = 0; i < ws.size(); ++i) {
        if (ws[i].cref == cr) {
          ws[i] = ws.back();
          ws.pop_back();
          return;
        }
      }
      STEP_CHECK(false && "binary watcher not found");
    };
    remove_bin(c[0]);
    remove_bin(c[1]);
    return;
  }
  auto remove_from = [&](Lit w) {
    auto& ws = watches_[index(~w)];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == cr) {
        ws[i] = ws.back();
        ws.pop_back();
        return;
      }
    }
    STEP_CHECK(false && "watcher not found");
  };
  remove_from(c[0]);
  remove_from(c[1]);
}

void Solver::enqueue(Lit p, CRef from) {
  const Var v = var(p);
  STEP_CHECK(value(p) == Lbool::kUndef);
  assigns_[v] = mk_lbool(!sign(p));
  level_[v] = decision_level();
  reason_[v] = from;
  trail_.push_back(p);
}

ProofId Solver::level0_justification(Var v) const {
  STEP_CHECK(level_[v] == 0 && value(v) != Lbool::kUndef);
  if (reason_[v] != kCRefUndef) return arena_[reason_[v]].proof_id();
  STEP_CHECK(level0_unit_id_[v] != kProofIdUndef);
  return level0_unit_id_[v];
}

void Solver::resolve_level0(LitVec& pending, std::vector<ProofStep>& steps) {
  if (pending.empty()) return;
  int n_marked = 0;
  for (Lit l : pending) {
    const Var v = var(l);
    STEP_CHECK(level_[v] == 0 && value(l) == Lbool::kFalse);
    if (!seen2_[v]) {
      seen2_[v] = 1;
      ++n_marked;
    }
  }
  const int end = decision_level() > 0 ? trail_lim_[0]
                                       : static_cast<int>(trail_.size());
  for (int i = end - 1; i >= 0 && n_marked > 0; --i) {
    const Var v = var(trail_[i]);
    if (!seen2_[v]) continue;
    seen2_[v] = 0;
    --n_marked;
    steps.push_back({level0_justification(v), v});
    if (reason_[v] != kCRefUndef) {
      const Clause& c = arena_[reason_[v]];
      for (std::uint32_t k = 1; k < c.size(); ++k) {
        const Var vq = var(c[k]);
        if (!seen2_[vq]) {
          seen2_[vq] = 1;
          ++n_marked;
        }
      }
    }
  }
  STEP_CHECK(n_marked == 0);
  pending.clear();
}

bool Solver::add_clause(std::span<const Lit> lits_in, int proof_tag) {
  STEP_CHECK(decision_level() == 0);
  if (!ok_) return false;

  if (debug_models_) {
    debug_clauses_.emplace_back(lits_in.begin(), lits_in.end());
    std::string line = "c";
    for (Lit l : lits_in) {
      line += ' ';
      line += std::to_string(sign(l) ? -(var(l) + 1) : var(l) + 1);
    }
    debug_trace_.push_back(std::move(line));
  }
  LitVec lits(lits_in.begin(), lits_in.end());
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    STEP_CHECK(var(lits[i]) < num_vars() && var(lits[i]) >= 0);
    if (var(lits[i]) == var(lits[i + 1])) return true;  // tautology
  }
  if (!lits.empty()) {
    STEP_CHECK(var(lits.back()) < num_vars() && var(lits.back()) >= 0);
  }
  for (Lit l : lits) {
    if (value(l) == Lbool::kTrue) return true;  // already satisfied forever
  }

  const bool proof_on = opts_.proof_logging;
  ProofId pid = kProofIdUndef;
  if (proof_on) pid = proof_.add_leaf(lits, proof_tag);

  // Strip literals that are false at level 0, logging the resolutions.
  LitVec falses, kept;
  for (Lit l : lits) {
    (value(l) == Lbool::kFalse ? falses : kept).push_back(l);
  }
  if (proof_on && !falses.empty()) {
    std::vector<ProofStep> steps;
    resolve_level0(falses, steps);
    pid = proof_.add_derived(pid, std::move(steps));
  }
  // The stored clause is a strict strengthening of the input clause; the
  // DRAT trace must introduce it (it is RUP from the level-0 units).
  if (opts_.drat_logging && kept.size() != lits.size()) drat_.add(kept);

  if (kept.empty()) {
    ok_ = false;
    if (proof_on) proof_.set_empty_clause(pid);
    return false;
  }
  if (kept.size() == 1) {
    enqueue(kept[0], kCRefUndef);
    if (proof_on) level0_unit_id_[var(kept[0])] = pid;
    const CRef confl = propagate();
    if (confl != kCRefUndef) {
      if (proof_on) {
        const Clause& c = arena_[confl];
        LitVec cl(c.lits().begin(), c.lits().end());
        std::vector<ProofStep> steps;
        resolve_level0(cl, steps);
        proof_.set_empty_clause(
            proof_.add_derived(c.proof_id(), std::move(steps)));
      }
      if (opts_.drat_logging) drat_.add({});
      ok_ = false;
      return false;
    }
    return true;
  }

  const CRef cr = arena_.alloc(kept, /*learnt=*/false);
  if (proof_on) arena_[cr].set_proof_id(pid);
  clauses_.push_back(cr);
  attach_clause(cr);
  return true;
}

CRef Solver::propagate() {
  CRef confl = kCRefUndef;
  while (qhead_ < static_cast<int>(trail_.size())) {
    const Lit p = trail_[qhead_++];  // p is now true

    // Binary implication list first: each entry is a clause (~p ∨ other),
    // so `other` is forced outright — no watch surgery, no arena touch
    // unless the clause actually propagates or conflicts.
    for (const BinWatcher& bw : bin_watches_[index(p)]) {
      const Lbool v = value(bw.other);
      if (v == Lbool::kTrue) continue;
      if (v == Lbool::kFalse) {
        // Keep the "c[0] is the falsified/propagated literal's clause
        // head" invariant for conflict analysis.
        Clause& c = arena_[bw.cref];
        if (c[0] != bw.other) std::swap(c[0], c[1]);
        qhead_ = static_cast<int>(trail_.size());
        return bw.cref;
      }
      Clause& c = arena_[bw.cref];
      if (c[0] != bw.other) std::swap(c[0], c[1]);
      enqueue(bw.other, bw.cref);
      ++stats_.propagations;
      ++stats_.binary_propagations;
    }

    auto& ws = watches_[index(p)];
    std::size_t i = 0, j = 0;
    const std::size_t n = ws.size();
    while (i < n) {
      const Watcher w = ws[i];
      // Blocker short-circuit: clause already satisfied.
      if (value(w.blocker) == Lbool::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      const CRef cr = w.cref;
      Clause& c = arena_[cr];
      const Lit false_lit = ~p;
      if (c[0] == false_lit) {
        c[0] = c[1];
        c[1] = false_lit;
      }
      ++i;
      const Lit first = c[0];
      if (first != w.blocker && value(first) == Lbool::kTrue) {
        ws[j++] = {cr, first};
        continue;
      }
      // Look for a new literal to watch.
      bool found = false;
      for (std::uint32_t k = 2; k < c.size(); ++k) {
        if (value(c[k]) != Lbool::kFalse) {
          c[1] = c[k];
          c[k] = false_lit;
          watches_[index(~c[1])].push_back({cr, first});
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting under the current assignment.
      ws[j++] = {cr, first};
      if (value(first) == Lbool::kFalse) {
        confl = cr;
        qhead_ = static_cast<int>(trail_.size());
        while (i < n) ws[j++] = ws[i++];
      } else {
        enqueue(first, cr);
        ++stats_.propagations;
      }
    }
    ws.resize(j);
    if (confl != kCRefUndef) break;
  }
  return confl;
}

void Solver::cancel_until(int lvl) {
  if (decision_level() <= lvl) return;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trail_lim_[lvl]; --i) {
    const Var v = var(trail_[i]);
    if (opts_.phase_saving) {
      polarity_[v] = (assigns_[v] == Lbool::kTrue) ? 1 : 0;
    }
    assigns_[v] = Lbool::kUndef;
    reason_[v] = kCRefUndef;
    order_heap_.insert(v);
  }
  trail_.resize(trail_lim_[lvl]);
  trail_lim_.resize(lvl);
  qhead_ = static_cast<int>(trail_.size());
}

Lit Solver::pick_branch_lit() {
  while (!order_heap_.empty()) {
    const Var v = order_heap_.remove_max();
    if (value(v) == Lbool::kUndef) {
      return mk_lit(v, polarity_[v] == 0);
    }
  }
  return kLitUndef;
}

void Solver::bump_var(Var v, double factor) {
  activity_[v] += var_inc_ * factor;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_heap_.increased(v);
}

void Solver::bump_clause(Clause& c) {
  c.set_activity(c.activity() + static_cast<float>(cla_inc_));
  if (c.activity() > 1e20f) {
    for (CRef cr : learnts_) {
      Clause& lc = arena_[cr];
      lc.set_activity(lc.activity() * 1e-20f);
    }
    cla_inc_ *= 1e-20;
  }
}

// ------------------------------------------------------------ LBD tiers ----

int Solver::compute_lbd(std::span<const Lit> lits) {
  // Levels run up to the current decision level, which can exceed
  // num_vars(): every already-satisfied assumption adds a dummy level,
  // and assumption lists may repeat literals.
  const std::size_t need = static_cast<std::size_t>(decision_level()) + 1;
  if (need > level_stamp_.size()) level_stamp_.resize(need, -1);
  const int stamp = ++stamp_counter_;
  int lbd = 0;
  for (Lit l : lits) {
    const int lvl = level_[var(l)];
    if (lvl == 0) continue;
    if (level_stamp_[lvl] != stamp) {
      level_stamp_[lvl] = stamp;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::note_tier(ClauseTier t, int delta) {
  std::uint64_t* counter = t == ClauseTier::kCore    ? &stats_.core_learnts
                           : t == ClauseTier::kTier2 ? &stats_.tier2_learnts
                                                     : &stats_.local_learnts;
  *counter += static_cast<std::uint64_t>(delta);
}

/// A learnt clause participated in conflict analysis: bump it, mark it
/// used (tier2 protection), and re-evaluate its glue — clauses whose LBD
/// improves get promoted, which is the "glue-based protection" replacing
/// the old pure-activity retention.
void Solver::on_learnt_antecedent(Clause& c) {
  bump_clause(c);
  c.set_used(true);
  if (c.lbd() > static_cast<std::uint32_t>(opts_.core_lbd_cut)) {
    const int lbd = compute_lbd(c.lits());
    if (lbd < static_cast<int>(c.lbd())) {
      c.set_lbd(lbd);
      const ClauseTier old_tier = c.tier();
      ClauseTier new_tier = old_tier;
      if (lbd <= opts_.core_lbd_cut) {
        new_tier = ClauseTier::kCore;
      } else if (lbd <= opts_.tier2_lbd_cut && old_tier == ClauseTier::kLocal) {
        new_tier = ClauseTier::kTier2;
      }
      if (new_tier != old_tier) {
        note_tier(old_tier, -1);
        note_tier(new_tier, +1);
        c.set_tier(new_tier);
      }
    }
  }
}

void Solver::remove_learnt(CRef cr) {
  Clause& c = arena_[cr];
  detach_clause(cr);
  note_tier(c.tier(), -1);
  if (opts_.drat_logging) drat_.del(c.lits());
  c.set_removed();
}

/// Tier2 protection round: clauses that took part in a conflict since the
/// last reduction stay (flag cleared for the next round); untouched ones
/// drop to the local tier and start competing on activity. Runs on every
/// scheduled reduction tick — including the ones whose local halving is
/// skipped — so tier2 can never hoard stale clauses behind the
/// reduce_min_local guard.
void Solver::demote_unused_tier2() {
  for (CRef cr : learnts_) {
    Clause& c = arena_[cr];
    if (c.tier() != ClauseTier::kTier2) continue;
    if (c.used()) {
      c.set_used(false);
    } else {
      note_tier(ClauseTier::kTier2, -1);
      note_tier(ClauseTier::kLocal, +1);
      c.set_tier(ClauseTier::kLocal);
    }
  }
}

void Solver::reduce_db() {
  STEP_CHECK(!opts_.proof_logging);
  ++stats_.db_reductions;
  auto locked = [&](CRef cr) {
    const Clause& c = arena_[cr];
    return reason_[var(c[0])] == cr && value(c[0]) == Lbool::kTrue;
  };

  demote_unused_tier2();

  // Local tier: keep the most active half; never remove locked reasons.
  std::vector<CRef> local;
  local.reserve(learnts_.size());
  for (CRef cr : learnts_) {
    if (arena_[cr].tier() == ClauseTier::kLocal) local.push_back(cr);
  }
  std::sort(local.begin(), local.end(), [&](CRef a, CRef b) {
    return arena_[a].activity() < arena_[b].activity();
  });
  const std::size_t half = local.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    if (!locked(local[i])) remove_learnt(local[i]);
  }
  learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                [&](CRef cr) { return arena_[cr].removed(); }),
                 learnts_.end());
  next_reduce_ = stats_.conflicts + static_cast<std::uint64_t>(
                                        std::max(1, opts_.reduce_interval));
}

// ------------------------------------------------- restarts / rephasing ----

void Solver::update_search_emas(int lbd) {
  const double trail_size = static_cast<double>(trail_.size());
  if (!emas_primed_) {
    lbd_ema_fast_ = lbd_ema_slow_ = static_cast<double>(lbd);
    trail_ema_ = trail_size;
    emas_primed_ = true;
    return;
  }
  lbd_ema_fast_ += kEmaFastAlpha * (lbd - lbd_ema_fast_);
  lbd_ema_slow_ += kEmaSlowAlpha * (lbd - lbd_ema_slow_);
  trail_ema_ += kTrailEmaAlpha * (trail_size - trail_ema_);
  // Blocking: a conflict with an unusually deep trail suggests the solver
  // is closing in on a model — postpone a pending restart.
  if (opts_.restart_block_margin > 0.0 &&
      opts_.restart_mode == RestartMode::kEma &&
      lbd_ema_fast_ > opts_.restart_margin * lbd_ema_slow_ &&
      trail_size > opts_.restart_block_margin * trail_ema_ &&
      stats_.conflicts >= restart_hold_until_) {
    restart_hold_until_ =
        stats_.conflicts + static_cast<std::uint64_t>(
                               std::max(1, opts_.restart_min_interval));
    ++stats_.blocked_restarts;
  }
}

bool Solver::ema_restart_due(int conflicts_since_restart) {
  return emas_primed_ &&
         conflicts_since_restart >= opts_.restart_min_interval &&
         stats_.conflicts >= restart_hold_until_ &&
         lbd_ema_fast_ > opts_.restart_margin * lbd_ema_slow_;
}

void Solver::maybe_update_target_phase() {
  if (opts_.rephase_interval <= 0) return;
  if (trail_.size() <= best_trail_size_) return;
  best_trail_size_ = trail_.size();
  for (Lit p : trail_) {
    target_phase_[var(p)] = (assigns_[var(p)] == Lbool::kTrue) ? 1 : 0;
  }
}

void Solver::rephase() {
  polarity_ = target_phase_;
  best_trail_size_ = 0;
  next_rephase_ = stats_.conflicts +
                  static_cast<std::uint64_t>(opts_.rephase_interval);
  ++stats_.rephases;
}

// ---------------------------------------------------- conflict analysis ----

bool Solver::lit_redundant(Lit l, std::vector<ProofStep>& steps,
                           LitVec& dropped0, LitVec& to_clear) {
  const Var v = var(l);
  const CRef r = reason_[v];
  if (r == kCRefUndef) return false;
  const Clause& c = arena_[r];
  // c[0] is the literal the clause propagated, i.e. ~l.
  for (std::uint32_t k = 1; k < c.size(); ++k) {
    const Var vq = var(c[k]);
    if (level_[vq] == 0) continue;
    if (!present_[vq]) return false;
  }
  if (opts_.proof_logging) {
    steps.push_back({c.proof_id(), v});
    for (std::uint32_t k = 1; k < c.size(); ++k) {
      const Lit q = c[k];
      const Var vq = var(q);
      if (level_[vq] == 0 && !seen_[vq]) {
        seen_[vq] = 1;
        to_clear.push_back(q);
        dropped0.push_back(q);
      }
    }
  }
  return true;
}

void Solver::analyze(CRef confl, LitVec& out_learnt, int& out_btlevel,
                     ProofId& out_start, std::vector<ProofStep>& out_steps,
                     LitVec& dropped0) {
  const bool proof_on = opts_.proof_logging;
  out_learnt.clear();
  out_learnt.push_back(kLitUndef);  // slot for the asserting (UIP) literal
  out_steps.clear();
  dropped0.clear();
  LitVec to_clear;  // literals whose seen_ flag must be reset at the end

  int path_c = 0;
  Lit p = kLitUndef;
  int idx = static_cast<int>(trail_.size()) - 1;

  do {
    STEP_CHECK(confl != kCRefUndef);
    Clause& c = arena_[confl];
    if (proof_on) {
      if (p == kLitUndef) {
        out_start = c.proof_id();
      } else {
        out_steps.push_back({c.proof_id(), var(p)});
      }
    }
    if (c.learnt()) on_learnt_antecedent(c);
    for (std::uint32_t jj = (p == kLitUndef) ? 0 : 1; jj < c.size(); ++jj) {
      const Lit q = c[jj];
      const Var v = var(q);
      if (seen_[v]) continue;
      if (level_[v] == 0) {
        if (proof_on) {
          seen_[v] = 1;
          to_clear.push_back(q);
          dropped0.push_back(q);
        }
        continue;
      }
      seen_[v] = 1;
      to_clear.push_back(q);
      bump_var(v);
      if (level_[v] >= decision_level()) {
        ++path_c;
      } else {
        out_learnt.push_back(q);
      }
    }
    // Select the next literal of the current level to resolve on.
    while (!seen_[var(trail_[idx--])]) {
    }
    p = trail_[idx + 1];
    confl = reason_[var(p)];
    seen_[var(p)] = 0;
    --path_c;
  } while (path_c > 0);
  out_learnt[0] = ~p;

  // Basic (non-recursive) learnt clause minimization. `present_` tracks the
  // literals still syntactically in the clause so the logged resolution
  // chain reproduces the final clause exactly.
  if (opts_.minimize_learnt) {
    for (Lit l : out_learnt) present_[var(l)] = 1;
    std::size_t i, j;
    for (i = j = 1; i < out_learnt.size(); ++i) {
      const Lit l = out_learnt[i];
      if (lit_redundant(l, out_steps, dropped0, to_clear)) {
        present_[var(l)] = 0;
      } else {
        out_learnt[j++] = l;
      }
    }
    out_learnt.resize(j);
    for (Lit l : out_learnt) present_[var(l)] = 0;
  }

  // Find the backtrack level and place its literal at index 1.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < out_learnt.size(); ++k) {
      if (level_[var(out_learnt[k])] > level_[var(out_learnt[max_i])]) {
        max_i = k;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[var(out_learnt[1])];
  }

  for (Lit l : to_clear) seen_[var(l)] = 0;
  seen_[var(out_learnt[0])] = 0;
}

void Solver::analyze_final(Lit p, LitVec& out_core) {
  // p is the failing assumption (currently false). The core is a subset of
  // assumptions, in assumed polarity, inconsistent with the clauses.
  out_core.clear();
  out_core.push_back(p);
  if (decision_level() == 0) return;

  seen_[var(p)] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trail_lim_[0]; --i) {
    const Var x = var(trail_[i]);
    if (!seen_[x]) continue;
    if (reason_[x] == kCRefUndef) {
      STEP_CHECK(level_[x] > 0);
      out_core.push_back(trail_[i]);
    } else {
      const Clause& c = arena_[reason_[x]];
      for (std::uint32_t k = 1; k < c.size(); ++k) {
        if (level_[var(c[k])] > 0) seen_[var(c[k])] = 1;
      }
    }
    seen_[x] = 0;
  }
  seen_[var(p)] = 0;
}

// ----------------------------------------------------------- main search ----

Result Solver::search(std::int64_t nof_conflicts, const Deadline* deadline) {
  int conflict_c = 0;
  LitVec learnt, dropped0;
  std::vector<ProofStep> steps;

  for (;;) {
    const CRef confl = propagate();
    if (confl != kCRefUndef) {
      ++stats_.conflicts;
      ++conflict_c;
      if (decision_level() == 0) {
        if (opts_.proof_logging) {
          const Clause& c = arena_[confl];
          LitVec cl(c.lits().begin(), c.lits().end());
          std::vector<ProofStep> fsteps;
          resolve_level0(cl, fsteps);
          proof_.set_empty_clause(
              proof_.add_derived(c.proof_id(), std::move(fsteps)));
        }
        if (opts_.drat_logging) drat_.add({});
        ok_ = false;
        return Result::kUnsat;
      }

      maybe_update_target_phase();

      int btlevel = 0;
      ProofId start = kProofIdUndef;
      analyze(confl, learnt, btlevel, start, steps, dropped0);
      ProofId pid = kProofIdUndef;
      if (opts_.proof_logging) {
        if (!dropped0.empty()) resolve_level0(dropped0, steps);
        pid = proof_.add_derived(start, steps);
      }
      if (opts_.drat_logging) drat_.add(learnt);
      const int lbd = learnt.size() == 1 ? 1 : compute_lbd(learnt);
      update_search_emas(lbd);
      cancel_until(btlevel);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kCRefUndef);
        if (opts_.proof_logging) level0_unit_id_[var(learnt[0])] = pid;
      } else {
        const CRef cr = arena_.alloc(learnt, /*learnt=*/true);
        Clause& c = arena_[cr];
        if (opts_.proof_logging) c.set_proof_id(pid);
        c.set_lbd(lbd);
        const ClauseTier tier = lbd <= opts_.core_lbd_cut ? ClauseTier::kCore
                                : lbd <= opts_.tier2_lbd_cut
                                    ? ClauseTier::kTier2
                                    : ClauseTier::kLocal;
        c.set_tier(tier);
        c.set_used(true);
        note_tier(tier, +1);
        learnts_.push_back(cr);
        attach_clause(cr);
        bump_clause(c);
        enqueue(learnt[0], cr);
      }
      ++stats_.learnt;
      decay_var_activity();
      decay_clause_activity();

      if (opts_.rephase_interval > 0 && stats_.conflicts >= next_rephase_ &&
          next_rephase_ != 0) {
        rephase();
      }

      if ((conflict_c & 0xf) == 0 && deadline && deadline->expired()) {
        cancel_until(0);
        return Result::kUnknown;
      }
    } else {
      bool restart_now = nof_conflicts >= 0 && conflict_c >= nof_conflicts;
      if (!restart_now && opts_.restart_mode == RestartMode::kEma) {
        restart_now = ema_restart_due(conflict_c);
      }
      if (restart_now) {
        ++stats_.restarts;
        cancel_until(0);
        return Result::kUnknown;
      }
      if (!opts_.proof_logging) {
        if (stats_.conflicts >= next_reduce_) {
          if (stats_.local_learnts >=
              static_cast<std::uint64_t>(std::max(0, opts_.reduce_min_local))) {
            reduce_db();
          } else {
            // Tiny local tier: skip the halving (it would just churn), but
            // still demote stale tier2 clauses and reschedule.
            demote_unused_tier2();
            next_reduce_ =
                stats_.conflicts + static_cast<std::uint64_t>(
                                       std::max(1, opts_.reduce_interval));
          }
        } else if (static_cast<double>(stats_.local_learnts) -
                       static_cast<double>(trail_.size()) >=
                   max_learnts_) {
          reduce_db();
        }
      }

      Lit next = kLitUndef;
      while (decision_level() < static_cast<int>(assumptions_.size())) {
        const Lit a = assumptions_[decision_level()];
        if (value(a) == Lbool::kTrue) {
          new_decision_level();  // dummy level keeps the invariant simple
        } else if (value(a) == Lbool::kFalse) {
          analyze_final(a, conflict_core_);
          return Result::kUnsat;
        } else {
          next = a;
          break;
        }
      }
      if (next == kLitUndef) {
        next = pick_branch_lit();
        if (next == kLitUndef) {
          model_.assign(assigns_.begin(), assigns_.end());
          return Result::kSat;
        }
        ++stats_.decisions;
      }
      new_decision_level();
      enqueue(next, kCRefUndef);
    }
  }
}

Result Solver::solve(std::span<const Lit> assumptions) {
  return solve_limited(assumptions, -1, nullptr);
}

Result Solver::solve_limited(std::span<const Lit> assumptions,
                             std::int64_t conflict_budget,
                             const Deadline* deadline) {
  conflict_core_.clear();
  if (!ok_) return Result::kUnsat;
  if (deadline != nullptr && deadline->expired()) {
    ++stats_.deadline_stops;
    return Result::kUnknown;
  }
  // The options-level cap composes with the per-call budget: whichever is
  // tighter stops the search.
  if (opts_.conflict_budget >= 0) {
    conflict_budget = conflict_budget < 0
                          ? opts_.conflict_budget
                          : std::min(conflict_budget, opts_.conflict_budget);
  }

  ++solve_calls_;

  if (debug_models_) {
    std::string line = "s";
    for (Lit a : assumptions) {
      line += ' ';
      line += std::to_string(sign(a) ? -(var(a) + 1) : var(a) + 1);
    }
    debug_trace_.push_back(std::move(line));
  }

  const bool can_simplify = opts_.inprocess && !opts_.proof_logging;
  const bool round_due =
      solve_calls_ - last_inprocess_solve_ >=
          static_cast<std::uint64_t>(std::max(1, opts_.inprocess_interval)) &&
      stats_.conflicts - last_inprocess_conflicts_ >=
          static_cast<std::uint64_t>(
              std::max<std::int64_t>(0, opts_.inprocess_min_conflicts));
  if (can_simplify && round_due) {
    last_inprocess_solve_ = solve_calls_;
    last_inprocess_conflicts_ = stats_.conflicts;
    inprocess();
    if (!ok_) return Result::kUnsat;
  }

  assumptions_.assign(assumptions.begin(), assumptions.end());

  max_learnts_ = std::max(opts_.max_learnts_floor,
                          static_cast<double>(clauses_.size()) * 2.0);
  if (next_reduce_ == 0) {
    next_reduce_ =
        stats_.conflicts +
        static_cast<std::uint64_t>(std::max(1, opts_.reduce_interval));
  }
  if (next_rephase_ == 0 && opts_.rephase_interval > 0) {
    next_rephase_ = stats_.conflicts +
                    static_cast<std::uint64_t>(opts_.rephase_interval);
  }

  const std::uint64_t conflicts_at_start = stats_.conflicts;
  Result status = Result::kUnknown;
  for (int curr_restarts = 0; status == Result::kUnknown; ++curr_restarts) {
    std::int64_t budget = -1;
    if (opts_.restart_mode == RestartMode::kLuby) {
      budget = static_cast<std::int64_t>(luby(2.0, curr_restarts) *
                                         opts_.restart_base);
    }
    if (conflict_budget >= 0) {
      const std::int64_t used =
          static_cast<std::int64_t>(stats_.conflicts - conflicts_at_start);
      if (used >= conflict_budget) {
        ++stats_.conflict_budget_stops;
        break;
      }
      const std::int64_t remaining = conflict_budget - used;
      budget = budget < 0 ? remaining : std::min(budget, remaining);
    }
    status = search(budget, deadline);
    if (deadline && deadline->expired()) {
      if (status == Result::kUnknown) ++stats_.deadline_stops;
      break;
    }
  }
  cancel_until(0);
  if (debug_models_ && status == Result::kSat) {
    for (const LitVec& c : debug_clauses_) {
      bool sat_c = false, taut = false;
      for (Lit l : c) {
        const Lbool v = model_[var(l)];
        if (v == Lbool::kUndef) taut = true;  // var never constrained again
        if ((v ^ sign(l)) == Lbool::kTrue) sat_c = true;
      }
      if (!sat_c && !taut) {
        std::fprintf(stderr, "model audit: clause unsatisfied:");
        for (Lit l : c) {
          std::fprintf(stderr, " %s%d", sign(l) ? "-" : "", var(l));
        }
        std::fprintf(stderr, "\n");
        if (FILE* f = std::fopen("/tmp/solver_trace.txt", "w")) {
          for (const std::string& line : debug_trace_) {
            std::fprintf(f, "%s\n", line.c_str());
          }
          std::fclose(f);
          std::fprintf(stderr, "model audit: trace in /tmp/solver_trace.txt\n");
        }
        STEP_CHECK(false && "model audit failed");
      }
    }
  }
  return status;
}

// --------------------------------------------------------- inprocessing ----

void Solver::compact_clause_lists() {
  clauses_.erase(std::remove_if(clauses_.begin(), clauses_.end(),
                                [&](CRef cr) { return arena_[cr].removed(); }),
                 clauses_.end());
  learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                [&](CRef cr) { return arena_[cr].removed(); }),
                 learnts_.end());
}

void Solver::rebuild_watches() {
  for (auto& ws : watches_) ws.clear();
  for (auto& ws : bin_watches_) ws.clear();
  for (CRef cr : clauses_) attach_clause(cr);
  for (CRef cr : learnts_) attach_clause(cr);
}

void Solver::mark_removed(CRef cr, bool learnt_list) {
  Clause& c = arena_[cr];
  STEP_CHECK(!c.removed());
  if (opts_.drat_logging) drat_.del(c.lits());
  if (learnt_list) note_tier(c.tier(), -1);
  c.set_removed();
}

/// Rewrites `cr` to `new_lits` (a strict subset of its literals), logging
/// the DRAT add/delete pair. Returns false when the clause shrank to a
/// unit: the clause is marked removed and the literal is appended to
/// `pending_units` (the caller enqueues after watches are consistent).
/// Watches are NOT touched — callers either rebuild wholesale or hold the
/// clause detached.
bool Solver::shrink_clause(CRef cr, const LitVec& new_lits,
                           LitVec& pending_units) {
  Clause& c = arena_[cr];
  STEP_CHECK(!new_lits.empty() && new_lits.size() < c.size());
  if (opts_.drat_logging) {
    drat_.add(new_lits);
    drat_.del(c.lits());
  }
  stats_.removed_lits += c.size() - new_lits.size();
  if (new_lits.size() == 1) {
    pending_units.push_back(new_lits[0]);
    if (c.learnt()) note_tier(c.tier(), -1);
    c.set_removed();
    return false;
  }
  for (std::size_t i = 0; i < new_lits.size(); ++i) c[i] = new_lits[i];
  c.shrink(static_cast<std::uint32_t>(new_lits.size()));
  if (c.lbd() > c.size()) c.set_lbd(c.size());
  return true;
}

/// Enqueues inprocessing-derived units at level 0 and propagates.
/// Returns false (and records the refutation) on conflict.
bool Solver::settle_units(const LitVec& pending_units) {
  STEP_CHECK(decision_level() == 0);
  for (Lit l : pending_units) {
    if (value(l) == Lbool::kTrue) continue;
    if (value(l) == Lbool::kFalse) {
      if (opts_.drat_logging) drat_.add({});
      ok_ = false;
      return false;
    }
    enqueue(l, kCRefUndef);
  }
  if (propagate() != kCRefUndef) {
    if (opts_.drat_logging) drat_.add({});
    ok_ = false;
    return false;
  }
  return true;
}

/// One bounded backward-subsumption + self-subsuming-resolution round.
/// Problem clauses act as subsumers; problem and learnt clauses can be
/// subsumed or strengthened. Units created by strengthening are appended
/// to `pending_units` for the caller to settle once watches are rebuilt.
std::size_t Solver::subsume_round(LitVec& pending_units) {
  const std::size_t units_before = pending_units.size();
  // Occurrence lists over all live clauses (they are the subsumees).
  std::vector<std::vector<CRef>> occs(watches_.size());
  auto add_occs = [&](const std::vector<CRef>& list) {
    for (CRef cr : list) {
      const Clause& c = arena_[cr];
      if (c.removed()) continue;
      for (Lit l : c.lits()) occs[index(l)].push_back(cr);
    }
  };
  add_occs(clauses_);
  add_occs(learnts_);

  // Subsumers, smallest first: short clauses kill the most.
  std::vector<CRef> subsumers(clauses_);
  std::sort(subsumers.begin(), subsumers.end(), [&](CRef a, CRef b) {
    return arena_[a].size() < arena_[b].size();
  });

  std::vector<int> lit_stamp(watches_.size(), 0);
  int stamp = 0;
  std::int64_t budget = opts_.subsume_limit;
  LitVec scratch;

  for (CRef sub_cr : subsumers) {
    if (budget <= 0) break;
    Clause& sub = arena_[sub_cr];
    if (sub.removed()) continue;

    // Candidate victims must contain every literal of the subsumer (one
    // possibly negated), in particular (a flip of) its rarest literal.
    Lit min_lit = sub[0];
    std::size_t min_occ = static_cast<std::size_t>(-1);
    for (Lit l : sub.lits()) {
      const std::size_t o = occs[index(l)].size() + occs[index(~l)].size();
      if (o < min_occ) {
        min_occ = o;
        min_lit = l;
      }
    }

    for (const Lit probe : {min_lit, ~min_lit}) {
      for (CRef victim_cr : occs[index(probe)]) {
        if (budget <= 0) break;
        if (victim_cr == sub_cr) continue;
        Clause& victim = arena_[victim_cr];
        if (victim.removed() || victim.size() < sub.size()) continue;
        budget -= static_cast<std::int64_t>(sub.size());

        ++stamp;
        for (Lit l : victim.lits()) lit_stamp[index(l)] = stamp;
        int flipped = 0;
        Lit flipped_in_victim = kLitUndef;
        bool fail = false;
        for (Lit l : sub.lits()) {
          if (lit_stamp[index(l)] == stamp) continue;
          if (lit_stamp[index(~l)] == stamp) {
            ++flipped;
            flipped_in_victim = ~l;
            if (flipped > 1) {
              fail = true;
              break;
            }
            continue;
          }
          fail = true;
          break;
        }
        if (fail) continue;
        if (flipped == 0) {
          // sub ⊆ victim: the victim is redundant.
          mark_removed(victim_cr, victim.learnt());
          ++stats_.subsumed_clauses;
        } else {
          // Self-subsuming resolution: drop the flipped literal.
          scratch.clear();
          for (Lit l : victim.lits()) {
            if (l != flipped_in_victim) scratch.push_back(l);
          }
          shrink_clause(victim_cr, scratch, pending_units);
          ++stats_.strengthened_clauses;
        }
      }
    }
  }

  return pending_units.size() - units_before;
}

/// One bounded vivification round over problem clauses and protected
/// learnts: re-derive each clause under unit propagation and keep the
/// shortest implied prefix. Runs at temporary decision levels; the clause
/// under test is detached so it cannot justify itself.
std::size_t Solver::vivify_round(LitVec& pending_units) {
  std::size_t shortened = 0;
  std::int64_t budget = opts_.vivify_limit;
  LitVec lits, kept;

  auto vivify_list = [&](const std::vector<CRef>& list) {
    for (CRef cr : list) {
      if (budget <= 0) return;
      Clause& c = arena_[cr];
      if (c.removed() || c.size() < 3 ||
          c.size() > static_cast<std::uint32_t>(opts_.vivify_max_size)) {
        continue;
      }
      if (c.learnt() && c.tier() == ClauseTier::kLocal) continue;
      lits.assign(c.lits().begin(), c.lits().end());
      detach_clause(cr);

      kept.clear();
      for (Lit l : lits) {
        const Lbool v = value(l);
        if (v == Lbool::kTrue) {
          // ¬(kept) propagated l: the clause (kept ∪ {l}) is implied.
          kept.push_back(l);
          break;
        }
        if (v == Lbool::kFalse) continue;  // implied-redundant literal
        kept.push_back(l);
        new_decision_level();
        enqueue(~l, kCRefUndef);
        --budget;
        const std::size_t trail_before = trail_.size();
        const CRef confl = propagate();
        budget -= static_cast<std::int64_t>(trail_.size() - trail_before);
        if (confl != kCRefUndef) break;  // ¬(kept) alone is contradictory
      }
      cancel_until(0);

      if (kept.empty()) {
        // Every literal is false at level 0 — the instance is refuted.
        if (opts_.drat_logging) drat_.add({});
        ok_ = false;
        return;
      }
      if (kept.size() == lits.size()) {
        // Either no redundancy found, or the conflict only arrived on the
        // last literal — the implied clause is the clause itself.
        attach_clause(cr);
        continue;
      }
      ++shortened;
      ++stats_.vivified_clauses;
      if (shrink_clause(cr, kept, pending_units)) {
        attach_clause(cr);
      }
    }
  };

  vivify_list(clauses_);
  if (ok_) vivify_list(learnts_);
  return shortened;
}

void Solver::inprocess() {
  STEP_CHECK(decision_level() == 0);
  if (!ok_) return;
  if (propagate() != kCRefUndef) {
    if (opts_.drat_logging) drat_.add({});
    ok_ = false;
    return;
  }
  ++stats_.inprocess_rounds;

  // The sweep below may delete the reason clauses of root-level units;
  // re-introduce the units as explicit addition lines first (RUP while the
  // reasons are still present) so the trace stays checkable.
  if (opts_.drat_logging) {
    for (Lit p : trail_) drat_.add(std::span<const Lit>(&p, 1));
  }
  std::size_t drat_units_emitted = trail_.size();

  // Level-0 reasons are never resolved on once proof logging is off (and
  // it is — inprocessing is disabled under proof_logging); clear them so
  // clause surgery cannot leave dangling reason references.
  for (Lit p : trail_) reason_[var(p)] = kCRefUndef;

  LitVec pending_units;
  LitVec kept;

  // Phase 1 — sweep: drop satisfied clauses, strip false literals. Purely
  // syntactic on the level-0-fixed assignment; watches go stale and are
  // rebuilt below.
  auto sweep_list = [&](std::vector<CRef>& list, bool learnt_list) {
    for (CRef cr : list) {
      Clause& c = arena_[cr];
      if (c.removed()) continue;
      bool satisfied = false;
      kept.clear();
      for (Lit l : c.lits()) {
        const Lbool v = value(l);
        if (v == Lbool::kTrue) {
          satisfied = true;
          break;
        }
        if (v == Lbool::kUndef) kept.push_back(l);
      }
      if (satisfied) {
        mark_removed(cr, learnt_list);
        continue;
      }
      STEP_CHECK(!kept.empty());  // all-false would have conflicted above
      if (kept.size() < c.size()) shrink_clause(cr, kept, pending_units);
    }
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](CRef cr) { return arena_[cr].removed(); }),
               list.end());
  };
  sweep_list(clauses_, false);
  sweep_list(learnts_, true);

  // Phase 2 — backward subsumption + self-subsuming resolution.
  subsume_round(pending_units);
  compact_clause_lists();

  // Phase 3 — make the solver consistent again, to fixpoint: settling
  // units falsifies literals inside surviving clauses, so sweep again
  // until no new unit lands.
  for (;;) {
    // Units settled since the last emission are about to lose their
    // reason clauses to the sweep; re-introduce them as addition lines
    // (RUP while the reasons still exist) to keep the trace checkable.
    if (opts_.drat_logging) {
      for (std::size_t i = drat_units_emitted; i < trail_.size(); ++i) {
        drat_.add(std::span<const Lit>(&trail_[i], 1));
      }
    }
    drat_units_emitted = trail_.size();
    const std::size_t trail_before = trail_.size();
    sweep_list(clauses_, false);
    sweep_list(learnts_, true);
    compact_clause_lists();
    rebuild_watches();
    if (!settle_units(pending_units)) return;
    pending_units.clear();
    if (trail_.size() == trail_before) break;
  }

  // Phase 4 — vivification (keeps watches consistent incrementally).
  // Skipped on a pre-first-search round: with no learnts and no search
  // history yet, re-deriving fresh problem clauses one by one is the most
  // expensive phase and almost never shortens anything.
  if (solve_calls_ > 1) {
    vivify_round(pending_units);
    if (!ok_) return;
    compact_clause_lists();
    if (!settle_units(pending_units)) return;
  }
}

}  // namespace step::sat
