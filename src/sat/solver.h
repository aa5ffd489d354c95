#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/timer.h"
#include "sat/clause.h"
#include "sat/heap.h"
#include "sat/proof.h"
#include "sat/types.h"

namespace step::sat {

/// Restart policy of the search loop.
enum class RestartMode : std::uint8_t {
  kLuby,  ///< Luby sequence scaled by `restart_base` (the classic default)
  kEma,   ///< adaptive: fast/slow exponential moving averages of learnt LBD
};

/// Tuning knobs and feature switches. docs/SOLVER.md documents every field
/// and the trade-offs; the defaults are the modern configuration the
/// committed BENCH_sat.json A/B validates.
struct SolverOptions {
  double var_decay = 0.95;
  double clause_decay = 0.999;
  bool phase_saving = true;
  bool minimize_learnt = true;   ///< basic (non-recursive) minimization

  // ---- restarts ----
  /// Default Luby: the engines' workload is thousands of small
  /// assumption-driven incremental queries, where Luby measures ~10%
  /// fewer conflicts than EMA. Switch to kEma for hard single-shot
  /// instances (the BENCH_sat.json micro section shows it ~30% ahead on
  /// pigeonhole-style refutations).
  RestartMode restart_mode = RestartMode::kLuby;
  int restart_base = 100;        ///< Luby restart unit, in conflicts.
  /// EMA mode: restart when fast_lbd_ema > restart_margin * slow_lbd_ema.
  double restart_margin = 1.25;
  /// EMA mode: minimum conflicts between restarts (also the warm-up before
  /// the averages are trusted).
  int restart_min_interval = 50;
  /// EMA mode: postpone the restart when the trail is this much larger
  /// than its long-term average — the solver is probably closing in on a
  /// model ("blocking" restarts, Glucose-style). 0 disables blocking.
  double restart_block_margin = 1.4;
  /// Every `rephase_interval` conflicts, reset saved phases to the target
  /// phase (the assignment of the largest trail seen since the last
  /// rephase). 0 disables rephasing.
  int rephase_interval = 10000;

  // ---- learnt-clause database (LBD tiers) ----
  /// Learnts with LBD <= core_lbd_cut are kept forever.
  int core_lbd_cut = 3;
  /// Learnts with LBD in (core, tier2] survive while they keep appearing
  /// in conflict analysis; untouched ones are demoted to the local tier.
  int tier2_lbd_cut = 6;
  /// Conflicts between reduce_db() rounds (the local tier halves on
  /// activity each round, like the classic scheme).
  int reduce_interval = 2000;
  /// Scheduled rounds are skipped while the local tier is smaller than
  /// this — halving a tiny database just churns useful clauses.
  int reduce_min_local = 300;
  /// Floor for the local learnt budget before an extra reduce_db() fires
  /// (the effective limit also scales with the problem size).
  double max_learnts_floor = 4000.0;

  // ---- inter-solve inprocessing ----
  /// Run bounded inprocessing (satisfied-clause sweep, backward
  /// subsumption, self-subsuming resolution, clause vivification) between
  /// incremental solve() calls. Level-0-only and entailment-preserving, so
  /// it is safe under solve(assumptions). Forced off by proof_logging.
  bool inprocess = true;
  /// solve() calls between inprocessing rounds.
  int inprocess_interval = 2;
  /// Additionally require this many conflicts since the last round — the
  /// incremental engines issue thousands of near-trivial solve() calls,
  /// and a round must never cost more than the search it sped up.
  std::int64_t inprocess_min_conflicts = 2000;
  /// Clause-pair budget of one subsumption round.
  std::int64_t subsume_limit = 100000;
  /// Propagation budget of one vivification round.
  std::int64_t vivify_limit = 10000;
  /// Only clauses up to this many literals are vivified.
  int vivify_max_size = 16;

  // ---- resource governance ----
  /// Per-solve conflict cap applied to *every* solve() of this solver
  /// (negative = unlimited). Callers that pass an explicit budget to
  /// solve_limited() get the smaller of the two. A capped stop returns
  /// kUnknown and bumps Stats::conflict_budget_stops so outcome
  /// classification (core/outcome.h) can tell it apart from a deadline.
  std::int64_t conflict_budget = -1;
  /// When set, the clause arena charges its capacity growth here (and
  /// refunds on destruction) — the per-cone account of the resource
  /// governor (common/resource.h). The tracker must outlive the solver.
  MemTracker* mem = nullptr;

  // ---- proofs ----
  /// Record the resolution proof. Implies that learnt clauses are never
  /// deleted (proof nodes must stay resolvable) and disables inprocessing,
  /// so enable only for the interpolation queries, which are per-cone and
  /// small.
  bool proof_logging = false;
  /// Record a clausal DRAT trace (additions + deletions) instead;
  /// compatible with the tiered database and with inprocessing. Check it
  /// with check_drat() against the original clauses.
  bool drat_logging = false;
};

/// Conflict-driven clause-learning SAT solver, MiniSat lineage with the
/// modern hot path: blocking-literal watcher lists plus a dedicated
/// binary-clause implication list, first-UIP learning with LBD-tiered
/// learnt retention (core/tier2/local), VSIDS decisions, phase saving with
/// target-phase rephasing, Luby or EMA-adaptive restarts, bounded
/// inter-solve inprocessing (subsumption / self-subsuming resolution /
/// vivification), incremental solving under assumptions with
/// final-conflict cores, and optional resolution- or DRAT-proof logging.
///
/// Typical use:
///   Solver s;
///   Var a = s.new_var(), b = s.new_var();
///   s.add_clause({mk_lit(a), mk_lit(b)});
///   Result r = s.solve();
///   if (r == Result::kSat) ... s.model_value(mk_lit(a)) ...
class Solver {
 public:
  explicit Solver(SolverOptions opts = {});

  // ----- problem construction --------------------------------------------
  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause. `proof_tag` labels the proof leaf (interpolation uses
  /// 0 = A-part, 1 = B-part; irrelevant when proof logging is off).
  /// Returns false iff the solver is already in an unsatisfiable state.
  bool add_clause(std::span<const Lit> lits, int proof_tag = 0);
  bool add_clause(std::initializer_list<Lit> lits, int proof_tag = 0) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()),
                      proof_tag);
  }

  /// False once unsatisfiability has been established at level 0.
  bool is_ok() const { return ok_; }

  // ----- solving -----------------------------------------------------------
  Result solve() { return solve(std::span<const Lit>{}); }
  Result solve(std::span<const Lit> assumptions);
  /// Budgeted solve: stops with kUnknown when the conflict budget
  /// (negative = unlimited) or the deadline runs out.
  ///
  /// Interrupt contract: a kUnknown return leaves the solver fully
  /// reusable — the next solve() on the same instance behaves as if the
  /// interrupted call never happened. Specifically: the trail is unwound
  /// to level 0 before returning, and inprocessing runs only at solve entry
  /// (never polling the deadline mid-rewrite), with every phase restoring
  /// watch/trail consistency before it returns. This is what lets a
  /// portfolio racer cancel mid-solve without poisoning persistent
  /// incremental state (see tests/solver_fuzz_test.cpp, cancel fuzz).
  Result solve_limited(std::span<const Lit> assumptions,
                       std::int64_t conflict_budget = -1,
                       const Deadline* deadline = nullptr);

  // ----- results ------------------------------------------------------------
  /// Model access after kSat.
  Lbool model_value(Lit l) const {
    Lbool v = model_[var(l)];
    return v ^ sign(l);
  }
  Lbool model_value(Var v) const { return model_[v]; }

  /// After kUnsat under assumptions: a subset of the assumptions whose
  /// conjunction is already inconsistent with the clauses (the "core").
  /// Literals appear in their assumed polarity.
  const LitVec& conflict_core() const { return conflict_core_; }

  /// Resolution proof (only populated with proof_logging = true).
  const Proof& proof() const { return proof_; }

  /// DRAT trace (only populated with drat_logging = true).
  const DratTrace& drat() const { return drat_; }

  // ----- heuristics / hints ----------------------------------------------
  /// Preferred phase when the variable is picked as a decision.
  void set_polarity_hint(Var v, bool value) { polarity_[v] = value ? 1 : 0; }

  /// Adds `factor` × the current VSIDS increment to v's activity, steering
  /// upcoming decisions toward v (e.g. deciding problem variables before
  /// encoder auxiliaries). The preference decays like any ordinary bump.
  void boost_var_activity(Var v, double factor = 1.0) { bump_var(v, factor); }

  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t binary_propagations = 0;  ///< subset via the binary list
    std::uint64_t restarts = 0;
    std::uint64_t blocked_restarts = 0;  ///< EMA restarts postponed on trail
    std::uint64_t rephases = 0;
    std::uint64_t learnt = 0;
    std::uint64_t db_reductions = 0;
    // Current tier occupancy of the learnt database.
    std::uint64_t core_learnts = 0;
    std::uint64_t tier2_learnts = 0;
    std::uint64_t local_learnts = 0;
    // Inprocessing totals.
    std::uint64_t inprocess_rounds = 0;
    std::uint64_t subsumed_clauses = 0;
    std::uint64_t strengthened_clauses = 0;
    std::uint64_t vivified_clauses = 0;
    std::uint64_t removed_lits = 0;  ///< via strengthening + vivification
    // Always 0: the solver has no preprocessing; kept for stats readers.
    std::uint64_t eliminated_vars = 0;
    std::uint64_t failed_literals = 0;
    // Budgeted-stop causes: solve() calls that returned kUnknown because
    // the conflict cap ran out vs. because the deadline (wall budget,
    // memory trip, injected fault — see Deadline::Trip) fired.
    std::uint64_t conflict_budget_stops = 0;
    std::uint64_t deadline_stops = 0;

    Stats& operator+=(const Stats& o);
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Watcher {
    CRef cref;
    Lit blocker;
  };
  /// Binary clauses live in their own implication list: propagating p
  /// scans {other, cref} pairs meaning "clause (~p ∨ other)". No arena
  /// access on the hot path; cref backs reasons and proof ids.
  struct BinWatcher {
    Lit other;
    CRef cref;
  };

  // Internal machinery.
  Lbool value(Lit l) const { return assigns_[var(l)] ^ sign(l); }
  Lbool value(Var v) const { return assigns_[v]; }
  int level(Var v) const { return level_[v]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void attach_clause(CRef cr);
  void detach_clause(CRef cr);
  void enqueue(Lit p, CRef from);
  CRef propagate();
  void cancel_until(int lvl);
  Lit pick_branch_lit();
  void new_decision_level() {
    trail_lim_.push_back(static_cast<int>(trail_.size()));
  }

  void analyze(CRef confl, LitVec& out_learnt, int& out_btlevel,
               ProofId& out_start, std::vector<ProofStep>& out_steps,
               LitVec& dropped_level0);
  void analyze_final(Lit p, LitVec& out_core);
  bool lit_redundant(Lit l, std::vector<ProofStep>& steps, LitVec& dropped0,
                     LitVec& to_clear);

  Result search(std::int64_t nof_conflicts, const Deadline* deadline);

  void bump_var(Var v, double factor = 1.0);
  void decay_var_activity() { var_inc_ /= opts_.var_decay; }
  void bump_clause(Clause& c);
  void decay_clause_activity() { cla_inc_ /= opts_.clause_decay; }

  // Learnt database (LBD tiers).
  int compute_lbd(std::span<const Lit> lits);
  void on_learnt_antecedent(Clause& c);
  void note_tier(ClauseTier t, int delta);
  void remove_learnt(CRef cr);
  void demote_unused_tier2();
  void reduce_db();

  // Restarts / rephasing.
  void update_search_emas(int lbd);
  bool ema_restart_due(int conflicts_since_restart);
  void maybe_update_target_phase();
  void rephase();

  // Inter-solve inprocessing.
  void inprocess();
  void compact_clause_lists();
  void rebuild_watches();
  bool shrink_clause(CRef cr, const LitVec& new_lits, LitVec& pending_units);
  void mark_removed(CRef cr, bool learnt_list);
  std::size_t subsume_round(LitVec& pending_units);
  std::size_t vivify_round(LitVec& pending_units);
  bool settle_units(const LitVec& pending_units);

  /// Proof id justifying the level-0 assignment of v.
  ProofId level0_justification(Var v) const;
  /// Removes all literals of `lits` that are false at level 0, appending
  /// the corresponding resolution steps. Requires proof logging.
  void resolve_level0(LitVec& lits, std::vector<ProofStep>& steps);

  // Configuration.
  SolverOptions opts_;

  // Clause database.
  ClauseArena arena_;
  std::vector<CRef> clauses_;  ///< problem clauses
  std::vector<CRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;       ///< indexed by literal
  std::vector<std::vector<BinWatcher>> bin_watches_;  ///< indexed by literal

  // Assignment.
  std::vector<Lbool> assigns_;
  std::vector<int> level_;
  std::vector<CRef> reason_;
  LitVec trail_;
  std::vector<int> trail_lim_;
  LitVec assumptions_;
  int qhead_ = 0;
  bool ok_ = true;

  // STEP_DEBUG_MODELS=1: audit every SAT answer against a verbatim copy of
  // all clauses ever added, catching clause-rewriting bugs at the boundary.
  bool debug_models_ = false;
  std::vector<LitVec> debug_clauses_;
  // Interaction trace for replaying an audit failure: "v", "c <lits>",
  // "s <assumptions>" lines.
  std::vector<std::string> debug_trace_;

  // Decision heuristics.
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  VarOrderHeap order_heap_{activity_};
  std::vector<char> polarity_;
  std::vector<char> target_phase_;
  std::size_t best_trail_size_ = 0;

  // Learning temporaries.
  std::vector<char> seen_;
  std::vector<char> present_;  ///< literals currently in the learnt clause
  std::vector<char> seen2_;    ///< marks for level-0 resolution chains
  std::vector<int> level_stamp_;  ///< LBD computation scratch, per level
  int stamp_counter_ = 0;

  // Restart state (EMA mode).
  double lbd_ema_fast_ = 0.0;
  double lbd_ema_slow_ = 0.0;
  double trail_ema_ = 0.0;
  bool emas_primed_ = false;
  std::uint64_t restart_hold_until_ = 0;  ///< conflicts stamp for blocking
  std::uint64_t next_rephase_ = 0;

  // Results.
  std::vector<Lbool> model_;
  LitVec conflict_core_;

  // Proofs.
  Proof proof_;
  DratTrace drat_;
  std::vector<ProofId> level0_unit_id_;  ///< per var; for reason-less units

  // Learnt DB management.
  double max_learnts_ = 0.0;
  std::uint64_t next_reduce_ = 0;
  std::uint64_t solve_calls_ = 0;
  std::uint64_t last_inprocess_solve_ = 0;
  std::uint64_t last_inprocess_conflicts_ = 0;

  Stats stats_;
};

}  // namespace step::sat
