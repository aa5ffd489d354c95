#include "core/decomposer.h"

#include "aig/simulate.h"
#include "core/ljh.h"

namespace step::core {

namespace {

/// True iff the engine runs STEP-MG: engine MG, or a QBF engine's
/// bootstrap.
bool runs_mg(const DecomposeOptions& opts) {
  return opts.engine == Engine::kMg ||
         (is_qbf_engine(opts.engine) && opts.bootstrap_with_mg);
}

/// Runs one engine's partition search on one cone. A cone with a
/// RelaxationTable runs MG on it (see runs_mg); the relaxation matrix is
/// built only for what stays on SAT: LJH, wide cones, and a QBF search
/// whose bootstrap costs more than 0 (at cost 0 OptimumSearch would prove
/// it optimal with no query). Every
/// solver the strand builds (relaxation, LJH, CEGAR pair) is private to
/// the call and dies with it. `opts` supplies the engine, its sub-options
/// and the SAT configuration (including the memory account via
/// opts.sat.mem). Fills `res`'s status, reason, partition, proven flag
/// and cost counters; extraction and verification are left to
/// run_extraction.
void run_search_strand(const Cone& cone, const CareSet* care,
                       const RelaxationTable* table,
                       const DecomposeOptions& opts, const Deadline* deadline,
                       DecomposeResult& res) {
  const Engine engine = opts.engine;
  const QbfModel model = engine == Engine::kQbfDisjoint   ? QbfModel::kQD
                         : engine == Engine::kQbfBalanced ? QbfModel::kQB
                                                          : QbfModel::kQDB;
  const bool mg_runs = runs_mg(opts);

  // MG's answer, from the table when the cone has one.
  std::optional<PartitionSearchResult> mg;
  if (mg_runs && table != nullptr && mg_on_table_eligible(cone.n(), opts.mg)) {
    mg = mg_on_table(*table, deadline);
  }
  std::optional<RelaxationMatrix> matrix;
  std::optional<RelaxationSolver> rs;
  if (mg_runs && !mg) {
    matrix.emplace(build_relaxation_matrix(cone, opts.op, care));
    rs.emplace(*matrix, opts.sat);
    mg = MgDecomposer(*rs, opts.mg).find_partition(deadline);
  }

  switch (engine) {
    case Engine::kLjh: {
      matrix.emplace(build_relaxation_matrix(cone, opts.op, care));
      LjhDecomposer ljh(*matrix, opts.sat);
      const PartitionSearchResult r = ljh.find_partition(deadline);
      res.solver_stats += ljh.solver_stats();
      if (r.found) {
        res.status = DecomposeStatus::kDecomposed;
        res.partition = r.partition;
      } else {
        res.status = r.exhausted ? DecomposeStatus::kNotDecomposable
                                 : DecomposeStatus::kUnknown;
        res.reason = r.reason;
      }
      break;
    }
    case Engine::kMg: {
      if (mg->found) {
        res.status = DecomposeStatus::kDecomposed;
        res.partition = mg->partition;
      } else {
        res.status = mg->exhausted ? DecomposeStatus::kNotDecomposable
                                   : DecomposeStatus::kUnknown;
        res.reason = mg->reason;
      }
      break;
    }
    case Engine::kQbfDisjoint:
    case Engine::kQbfBalanced:
    case Engine::kQbfCombined: {
      std::optional<Partition> bootstrap;
      if (mg) {
        if (mg->found) {
          bootstrap = mg->partition;
        } else if (mg->exhausted) {
          // MG's seed sweep is exact on decomposability: nothing to do.
          res.status = DecomposeStatus::kNotDecomposable;
          break;
        }
      }
      if (bootstrap &&
          metric_cost(Metrics::of(*bootstrap), metric_of(model)) == 0) {
        res.status = DecomposeStatus::kDecomposed;
        res.partition = *bootstrap;
        res.proven_optimal = true;
        break;
      }
      if (!matrix) matrix.emplace(build_relaxation_matrix(cone, opts.op, care));
      QbfFinderOptions qbf_opts = opts.qbf;
      qbf_opts.cegar.sat = opts.sat;
      QbfPartitionFinder finder(*matrix, qbf_opts);
      OptimumSearch search(finder, model, opts.optimum);
      const OptimumResult r = search.run(bootstrap, deadline);
      res.qbf_calls = r.qbf_calls;
      res.qbf_iterations = finder.total_iterations();
      res.qbf_abstraction_conflicts = finder.abstraction_conflicts();
      res.qbf_verification_conflicts = finder.verification_conflicts();
      res.solver_stats += finder.solver_stats();
      switch (r.outcome) {
        case OptimumResult::Outcome::kFound:
          res.status = DecomposeStatus::kDecomposed;
          res.partition = r.best;
          res.proven_optimal = r.proven_optimal;
          break;
        case OptimumResult::Outcome::kNotDecomposable:
          res.status = DecomposeStatus::kNotDecomposable;
          break;
        case OptimumResult::Outcome::kUnknown:
          res.status = DecomposeStatus::kUnknown;
          res.reason = r.reason;
          break;
      }
      break;
    }
  }

  if (rs) {
    res.sat_calls = rs->sat_calls();
    res.solver_stats += rs->solver().stats();
  }

  // Classification safety net + refinement. Any kUnknown leaves with a
  // typed reason: engines that could not name one get the deadline's
  // verdict (tripped cause, else a configured search/solver budget). A
  // per-call engine deadline is refined to kConflictBudget when the
  // solver stats show only conflict-cap stops — the wall never actually
  // cut a solve short.
  if (res.status == DecomposeStatus::kUnknown) {
    if (res.reason == OutcomeReason::kOk) {
      res.reason = reason_of_unknown(deadline);
    }
    if (res.reason == OutcomeReason::kEngineDeadline &&
        (deadline == nullptr || deadline->trip() == Deadline::Trip::kNone) &&
        res.solver_stats.conflict_budget_stops > 0 &&
        res.solver_stats.deadline_stops == 0) {
      res.reason = OutcomeReason::kConflictBudget;
    }
  } else {
    res.reason = OutcomeReason::kOk;
  }
}

/// Extracts fA/fB for `res.partition` and, when `verify`, checks them.
/// Never returns a wrong answer: a decomposition that fails verification
/// is discarded wholesale and reported as a classified failure, not
/// trusted because the search found it. An injected verification flip
/// takes the same path as a real mismatch, which is why injecting it is
/// sound. With no `table`, the table extract_functions builds for an
/// OR/AND cone is charged to `mem`.
void run_extraction(const Cone& cone, GateOp op, const CareSet* care,
                    const RelaxationTable* table, MemTracker* mem, bool verify,
                    FaultStream* faults, DecomposeResult& res) {
  res.functions =
      extract_functions(cone, op, res.partition, care, table, mem);
  if (!verify) return;
  bool ok = verify_decomposition(cone, *res.functions, care);
  if (ok && faults != nullptr && faults->fire_verification()) ok = false;
  res.verified = ok;
  if (ok) return;
  res.functions.reset();
  res.partition = Partition{};
  res.metrics = Metrics{};
  res.proven_optimal = false;
  res.status = DecomposeStatus::kUnknown;
  res.reason = OutcomeReason::kVerificationFailed;
}

}  // namespace

DecomposeResult BiDecomposer::decompose(const Cone& cone,
                                        const CareSet* care) const {
  Timer timer;
  Deadline deadline(opts_.po_budget_s);
  // The per-PO deadline is the single interruption seam: chaining the
  // run-level deadline, the memory account, and the fault stream onto it
  // turns every existing poll point in the engines into a
  // cancellation/mem-cap/fault trip point with no callsite changes.
  deadline.attach_parent(opts_.run_deadline);
  deadline.attach_mem(opts_.mem);
  deadline.attach_faults(opts_.faults);
  DecomposeResult res;
  if (care_is_trivial(care)) care = nullptr;

  if (cone.n() < 2) {
    res.status = DecomposeStatus::kNotDecomposable;
    res.cpu_s = timer.elapsed_s();
    return res;
  }

  // Small cones: one table serves MG and OR/AND extraction (verification
  // recomputes f's table from the cone). XOR extracts by cofactoring, so
  // its table is built only for MG.
  std::optional<RelaxationTable> table;
  if (cone.n() <= aig::kTtMaxSupport &&
      (opts_.op != GateOp::kXor ||
       (runs_mg(opts_) && mg_on_table_eligible(cone.n(), opts_.mg)))) {
    table.emplace(cone, opts_.op, care, opts_.mem);
  }
  const RelaxationTable* tp = table ? &*table : nullptr;

  // The search strand does everything up to (but excluding) extraction
  // and verification; it also classifies its own kUnknown reasons.
  run_search_strand(cone, care, tp, opts_, &deadline, res);
  if (res.status == DecomposeStatus::kDecomposed) {
    res.metrics = Metrics::of(res.partition);
    if (opts_.extract) {
      run_extraction(cone, opts_.op, care, tp, opts_.mem, opts_.verify,
                     opts_.faults, res);
    }
  }

  res.cpu_s = timer.elapsed_s();
  return res;
}

void BiDecomposer::extract_and_verify(const Cone& cone, DecomposeResult& res,
                                      const CareSet* care) const {
  STEP_CHECK(res.status == DecomposeStatus::kDecomposed && !res.functions);
  Timer timer;
  if (care_is_trivial(care)) care = nullptr;
  run_extraction(cone, opts_.op, care, nullptr, opts_.mem, opts_.verify,
                 opts_.faults, res);
  res.cpu_s += timer.elapsed_s();
}

DecomposeResult decompose_with_partition(const Cone& cone, GateOp op,
                                         const Partition& partition,
                                         bool extract, bool verify,
                                         const CareSet* care) {
  Timer timer;
  DecomposeResult res;
  STEP_CHECK(partition.size() == cone.n());
  if (care_is_trivial(care)) care = nullptr;

  if (!partition.non_trivial() ||
      !check_partition(cone, op, partition, care)) {
    res.status = DecomposeStatus::kNotDecomposable;
    res.cpu_s = timer.elapsed_s();
    return res;
  }
  res.status = DecomposeStatus::kDecomposed;
  res.partition = partition;
  res.metrics = Metrics::of(partition);
  res.sat_calls = 1;
  if (extract) {
    run_extraction(cone, op, care, nullptr, nullptr, verify, nullptr, res);
  }
  res.cpu_s = timer.elapsed_s();
  return res;
}

}  // namespace step::core
