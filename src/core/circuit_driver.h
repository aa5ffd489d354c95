#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/decomposer.h"
#include "core/synthesis.h"

namespace step::core {

/// Per-PO outcome of a circuit run (one engine, one op).
struct PoOutcome {
  int po_index = 0;
  int support = 0;
  DecomposeStatus status = DecomposeStatus::kUnknown;
  /// Why this PO reached no conclusion (kOk when status != kUnknown).
  OutcomeReason reason = OutcomeReason::kOk;
  /// Degradation-ladder accounting: a degraded PO concluded on a cheaper
  /// retry (rung >= 1) after the primary attempt (rung 0) ran out of
  /// budget or memory. Degraded results are SAT-verified like any other.
  bool degraded = false;
  int ladder_rung = 0;
  Metrics metrics;
  bool proven_optimal = false;
  double cpu_s = 0.0;
  // Solver-cost accounting, forwarded from DecomposeResult.
  int sat_calls = 0;
  int qbf_calls = 0;
  int qbf_iterations = 0;
  std::uint64_t qbf_abstraction_conflicts = 0;
  std::uint64_t qbf_verification_conflicts = 0;
  sat::Solver::Stats solver_stats;  ///< low-level SAT counters, all solvers
  // Don't-care accounting (populated in DC mode only).
  bool window_built = false;  ///< an SDC window existed for this PO
  bool used_window = false;   ///< decomposed on the window's care set
  int window_inputs = 0;      ///< cut width of the window (when built)
  std::uint64_t window_sdc_minterms = 0;
  double care_fraction = 1.0;
  int window_sat_completions = 0;
  bool care_overapprox = false;  ///< window care set over-approximated
};

/// One engine applied to every decomposable-candidate PO of a circuit —
/// the row unit of the paper's Tables I, III, IV.
struct CircuitRunResult {
  std::string circuit;
  Engine engine = Engine::kMg;
  GateOp op = GateOp::kOr;
  std::vector<PoOutcome> pos;  ///< POs with support >= 2 only
  double total_cpu_s = 0.0;
  bool hit_circuit_budget = false;

  int num_decomposed() const;
  int num_proven_optimal() const;
  int max_support() const;  ///< the paper's #InM

  /// Per-reason tally over `pos` — derived, so it aggregates identically
  /// regardless of thread count or completion order.
  OutcomeCounts outcome_counts() const;
  int num_degraded() const;  ///< POs concluded by the degradation ladder

  /// Don't-care aggregates (all zero outside DC mode; derived from `pos`,
  /// so parallel runs report exactly the sequential numbers).
  int num_windows_built() const;
  int num_window_decomposed() const;
  std::uint64_t total_window_sdc_minterms() const;
  long total_window_sat_completions() const;

  /// Circuit-wide solver-cost aggregates (sums over `pos`).
  long total_sat_calls() const;
  long total_qbf_calls() const;
  long total_qbf_iterations() const;
  std::uint64_t total_abstraction_conflicts() const;
  std::uint64_t total_verification_conflicts() const;
  /// Sum of the per-PO low-level SAT statistics (restarts, tier occupancy,
  /// reductions, …) — `step decompose --stats` prints these.
  sat::Solver::Stats total_solver_stats() const;
};

/// Fan-out policy of run_circuit. Per-PO decomposition jobs are
/// independent (each BiDecomposer call owns its private Solver/CEGAR
/// contexts), so parallel_for (common/thread_pool.h) starts them in PO
/// order on one FIFO queue; results are merged back by PO slot, making the
/// parallel run's per-PO outcomes identical to the sequential run's
/// whenever no budget expires mid-run.
struct ParallelDriverOptions {
  /// Worker threads decomposing POs concurrently. 1 = run inline in the
  /// calling thread (the reference sequential path); 0 or negative = one
  /// worker per hardware thread.
  int num_threads = 1;
  /// Run-level memory governor (non-owning): every cone charges a
  /// per-cone account against it; a cone blowing its soft cap — or the
  /// run blowing the hard cap — is abandoned cleanly with
  /// OutcomeReason::kMemLimit while siblings keep running.
  ResourceGovernor* governor = nullptr;
  /// Fault-injection plan (non-owning, testing). Each PO derives a
  /// deterministic stream from (plan.seed, po_index), so injected
  /// failures are identical across thread counts.
  const FaultPlan* faults = nullptr;
  /// External cancellation flag (e.g. a SIGINT handler). Once set, the
  /// circuit deadline trips: in-flight cones stop at their next poll and
  /// every unfinished PO is reported as kCircuitDeadline.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-cone degradation ladder: a cone failing with engine_deadline or
  /// mem_limit is retried under progressively cheaper configurations
  /// (window off / smaller window / cheaper engine), each on a shrinking
  /// slice of the per-PO budget, with extraction + SAT verification
  /// forced on — a degraded answer can be worse, never wrong. Off by
  /// default so paper-faithful benchmark runs report first-attempt
  /// engine quality.
  bool degrade = false;
};

/// Effective wall budget for one decomposition attempt under a shared
/// circuit deadline. Deadline treats a non-positive budget as "no
/// deadline", which makes the naive `min(po_budget_s, remaining_s())` a
/// trap on both ends: with po_budget_s == 0 the min is 0 — *unlimited*,
/// not clamped to the circuit's remaining time — and with an expired
/// circuit deadline remaining_s() == 0 turns a finite per-PO budget into
/// an unlimited one. "Unlimited" survives only when both sides genuinely
/// are; an expired circuit budget yields an instantly-expiring attempt.
double effective_attempt_budget_s(double po_budget_s,
                                  const Deadline& circuit_deadline);

/// Whole-ladder budget slice granted when the configured per-PO budget is
/// unlimited: rungs retry a cone that already failed once — they must
/// always be finite.
inline constexpr double kDefaultRungBudget_s = 10.0;

/// Budget for one degradation-ladder rung: `frac` of the per-PO budget,
/// clamped to the circuit budget's remaining time. An unlimited per-PO
/// budget (<= 0) falls back to the circuit's remaining time, else to
/// kDefaultRungBudget_s — never to `0 * frac == 0`, which would hand a
/// mem-tripped cone's retry an unlimited rung.
double ladder_rung_budget_s(double po_budget_s, double frac,
                            const Deadline& circuit_deadline);

/// Runs one engine over all POs of `circuit`. `circuit_budget_s` mirrors
/// the paper's per-circuit timeout (6000 s there; scaled down here) and is
/// a cooperative wall-clock budget shared by all workers: once it expires,
/// remaining POs are reported as kUnknown.
///
/// With `opts.use_dont_cares`, each PO first gets an SDC window
/// (aig/window.h): the windowed function is decomposed on its care set and
/// the result is SAT-verified against the window's circuit context before
/// it counts; on any failure the exact cone is decomposed as before, so DC
/// mode decomposes at least as many POs as exact mode (budgets permitting).
CircuitRunResult run_circuit(const aig::Aig& circuit, const std::string& name,
                             const DecomposeOptions& opts,
                             double circuit_budget_s,
                             const ParallelDriverOptions& par = {});

/// Quality comparison between two engines on the same circuit/op —
/// the %-better / %-equal columns of Tables I and II. POs are compared
/// when *both* engines decomposed them; `challenger_better` counts POs
/// where the challenger achieved a strictly lower metric value.
struct QualityComparison {
  int considered = 0;
  int challenger_better = 0;
  int equal = 0;
  int challenger_worse = 0;

  double better_pct() const {
    return considered == 0 ? 0.0 : 100.0 * challenger_better / considered;
  }
  double equal_pct() const {
    return considered == 0 ? 0.0 : 100.0 * equal / considered;
  }
};

QualityComparison compare_quality(const CircuitRunResult& base,
                                  const CircuitRunResult& challenger,
                                  MetricKind kind);

/// Per-PO outcome of a recursive resynthesis run. Unlike PoOutcome, every
/// PO appears (trivial ones become constant/literal trees) because the
/// result must be a complete netlist.
struct PoResynthOutcome {
  int po_index = 0;
  int support = 0;
  DecTreeStats tree;
  int depth_before = 0;
  int depth_after = 0;
  bool verified = false;  ///< SAT miter tree vs. original cone (when requested)
  /// Why this PO's tree is degraded (contains budget/mem-forced verbatim
  /// leaves); kOk when nothing interfered. The tree itself is complete
  /// and equivalent either way.
  OutcomeReason reason = OutcomeReason::kOk;
  bool degraded = false;  ///< rebuilt on the ladder after a mem trip
  double cpu_s = 0.0;
};

/// Recursive resynthesis of a whole circuit: one decomposition tree per
/// PO, assembled into a fresh netlist with the same PI/PO interface.
struct CircuitResynthResult {
  std::string circuit;
  Engine engine = Engine::kQbfCombined;
  aig::Aig network;
  std::vector<PoResynthOutcome> pos;
  std::vector<std::shared_ptr<const DecTree>> trees;  ///< aligned with pos
  SynthesisStats stats;      ///< aggregated over POs
  DecCacheStats cache;       ///< this run's delta (zero when no cache)
  bool all_verified = false; ///< meaningful only when verification ran
  bool hit_circuit_budget = false;
  double total_cpu_s = 0.0;

  /// Per-reason tally over `pos` (reasons name degradation causes here —
  /// the netlist is complete and equivalent regardless).
  OutcomeCounts outcome_counts() const;
};

/// Runs recursive bi-decomposition over all POs of `circuit`, fanning the
/// per-PO tree construction over parallel_for's FIFO pool. `opts.cache`,
/// when set, is shared by all workers, so identical or NPN-equivalent
/// cones decompose once per run. The circuit budget is cooperative: after
/// it expires, remaining sub-cones are emitted as verbatim leaves, so the
/// output netlist is always complete and equivalent. When `verify` is
/// set every PO tree is SAT-proven equivalent to its original cone.
///
/// With `opts.use_dont_cares`, a PO with an SDC window is rewritten as a
/// tree of the *window* function on its care set, SAT-verified against
/// the window (composed with the cut logic it must equal the original PO
/// on every producible input) before being spliced over the verbatim cut
/// logic; the recursion additionally propagates sibling-ODC care sets at
/// every split. Failures fall back to the exact whole-cone rewrite, so
/// the output netlist is always fully equivalent.
CircuitResynthResult run_circuit_resynth(const aig::Aig& circuit,
                                         const std::string& name,
                                         const SynthesisOptions& opts,
                                         double circuit_budget_s,
                                         const ParallelDriverOptions& par = {},
                                         bool verify = false);

}  // namespace step::core
