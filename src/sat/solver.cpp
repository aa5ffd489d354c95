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

// Fixed heuristics (MiniSat's defaults): VSIDS and clause-activity decay,
// and the Luby restart unit in conflicts. Phase saving and basic learnt
// minimization are always on.
constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr int kRestartBase = 100;

/// STEP_DEBUG_MODELS, read once per process: a decomposed cone constructs
/// four solvers, and getenv walks the whole environment each time.
bool debug_models_requested() {
  static const bool on = std::getenv("STEP_DEBUG_MODELS") != nullptr;
  return on;
}

}  // namespace

Solver::Stats& Solver::Stats::operator+=(const Stats& o) {
  conflicts += o.conflicts;
  decisions += o.decisions;
  propagations += o.propagations;
  binary_propagations += o.binary_propagations;
  restarts += o.restarts;
  learnt += o.learnt;
  db_reductions += o.db_reductions;
  core_learnts += o.core_learnts;
  tier2_learnts += o.tier2_learnts;
  local_learnts += o.local_learnts;
  conflict_budget_stops += o.conflict_budget_stops;
  deadline_stops += o.deadline_stops;
  return *this;
}

Solver::Solver(SolverOptions opts) : opts_(opts) {
  debug_models_ = debug_models_requested();
  if (opts_.mem != nullptr) arena_.set_mem_tracker(opts_.mem);
}

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(Lbool::kUndef);
  level_.push_back(0);
  reason_.push_back(kCRefUndef);
  activity_.push_back(0.0);
  polarity_.push_back(0);
  seen_.push_back(0);
  present_.push_back(0);
  seen2_.push_back(0);
  level0_unit_id_.push_back(kProofIdUndef);
  for (int k = 0; k < 2; ++k) {
    watches_.emplace_back(WatchAllocator<Watcher>(&watch_pool_));
    bin_watches_.emplace_back(WatchAllocator<BinWatcher>(&watch_pool_));
  }
  order_heap_.insert(v);
  if (debug_models_) debug_trace_.push_back("v");
  return v;
}

void Solver::reserve_vars(int n) {
  const auto nv = static_cast<std::size_t>(std::max(n, 0));
  assigns_.reserve(nv);
  level_.reserve(nv);
  reason_.reserve(nv);
  activity_.reserve(nv);
  polarity_.reserve(nv);
  seen_.reserve(nv);
  present_.reserve(nv);
  seen2_.reserve(nv);
  level0_unit_id_.reserve(nv);
  watches_.reserve(2 * nv);
  bin_watches_.reserve(2 * nv);
  order_heap_.reserve(static_cast<Var>(nv));
}

void Solver::attach_clause(CRef cr) {
  const Clause& c = arena_[cr];
  STEP_CHECK(c.size() >= 2);
  if (c.size() == 2) {
    push_watch(bin_watches_[index(~c[0])], BinWatcher{c[1], cr});
    push_watch(bin_watches_[index(~c[1])], BinWatcher{c[0], cr});
    return;
  }
  push_watch(watches_[index(~c[0])], Watcher{cr, c[1]});
  push_watch(watches_[index(~c[1])], Watcher{cr, c[0]});
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
  // Sort, dedupe and split into member scratch vectors: a fresh solver's
  // set-up is thousands of add_clause calls, which then allocate only to
  // grow the arena and the watch lists.
  LitVec& lits = add_lits_;
  lits.assign(lits_in.begin(), lits_in.end());
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
  LitVec& falses = add_falses_;
  LitVec& kept = add_kept_;
  falses.clear();
  kept.clear();
  for (Lit l : lits) {
    (value(l) == Lbool::kFalse ? falses : kept).push_back(l);
  }
  if (proof_on && !falses.empty()) {
    add_steps_.clear();
    resolve_level0(falses, add_steps_);
    pid = proof_.add_derived(pid, add_steps_);
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
        falses.assign(c.lits().begin(), c.lits().end());
        add_steps_.clear();
        resolve_level0(falses, add_steps_);
        proof_.set_empty_clause(proof_.add_derived(c.proof_id(), add_steps_));
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
          push_watch(watches_[index(~c[1])], Watcher{cr, first});
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
    polarity_[v] = (assigns_[v] == Lbool::kTrue) ? 1 : 0;
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
          proof_.set_empty_clause(proof_.add_derived(c.proof_id(), fsteps));
        }
        if (opts_.drat_logging) drat_.add({});
        ok_ = false;
        return Result::kUnsat;
      }

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
      var_inc_ /= kVarDecay;
      cla_inc_ /= kClauseDecay;

      if ((conflict_c & 0xf) == 0 && deadline && deadline->expired()) {
        cancel_until(0);
        return Result::kUnknown;
      }
    } else {
      if (conflict_c >= nof_conflicts) {
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

  if (debug_models_) {
    std::string line = "s";
    for (Lit a : assumptions) {
      line += ' ';
      line += std::to_string(sign(a) ? -(var(a) + 1) : var(a) + 1);
    }
    debug_trace_.push_back(std::move(line));
  }

  assumptions_.assign(assumptions.begin(), assumptions.end());

  max_learnts_ = std::max(opts_.max_learnts_floor,
                          static_cast<double>(clauses_.size()) * 2.0);
  if (next_reduce_ == 0) {
    next_reduce_ =
        stats_.conflicts +
        static_cast<std::uint64_t>(std::max(1, opts_.reduce_interval));
  }

  const std::uint64_t conflicts_at_start = stats_.conflicts;
  Result status = Result::kUnknown;
  for (int curr_restarts = 0; status == Result::kUnknown; ++curr_restarts) {
    std::int64_t budget =
        static_cast<std::int64_t>(luby(2.0, curr_restarts) * kRestartBase);
    if (conflict_budget >= 0) {
      const std::int64_t used =
          static_cast<std::int64_t>(stats_.conflicts - conflicts_at_start);
      if (used >= conflict_budget) {
        ++stats_.conflict_budget_stops;
        break;
      }
      budget = std::min(budget, conflict_budget - used);
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

}  // namespace step::sat
