#include "core/decomposer.h"

#include "core/reduce.h"

namespace step::core {

namespace {

/// Result of one engine's pure partition-search strand: a partition (or a
/// proof there is none, or a typed give-up) plus the strand's own cost
/// counters. No extraction, no verification — BiDecomposer::decompose
/// does both.
struct SearchStrand {
  DecomposeStatus status = DecomposeStatus::kUnknown;
  OutcomeReason reason = OutcomeReason::kOk;
  Partition partition;  ///< valid when status == kDecomposed
  bool proven_optimal = false;
  int sat_calls = 0;
  int qbf_calls = 0;
  int qbf_iterations = 0;
  std::uint64_t qbf_abstraction_conflicts = 0;
  std::uint64_t qbf_verification_conflicts = 0;
  sat::Solver::Stats solver_stats;
};

/// Runs one engine's partition search on a prebuilt relaxation matrix.
/// Every solver the strand builds (relaxation, LJH, CEGAR pair) is private
/// to the call and dies with it. `opts` supplies the engine sub-options
/// and the SAT configuration (including the memory account via
/// opts.sat.mem); opts.engine is ignored in favour of `engine`.
SearchStrand run_search_strand(const RelaxationMatrix& matrix, Engine engine,
                               const DecomposeOptions& opts,
                               const Deadline* deadline) {
  SearchStrand res;
  RelaxationSolver rs(matrix, opts.sat);

  switch (engine) {
    case Engine::kLjh: {
      LjhDecomposer ljh(matrix, opts.ljh, opts.sat);
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
      MgDecomposer mg(rs, opts.mg);
      const PartitionSearchResult r = mg.find_partition(deadline);
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
    case Engine::kQbfDisjoint:
    case Engine::kQbfBalanced:
    case Engine::kQbfCombined: {
      const QbfModel model = engine == Engine::kQbfDisjoint
                                 ? QbfModel::kQD
                                 : engine == Engine::kQbfBalanced
                                       ? QbfModel::kQB
                                       : QbfModel::kQDB;
      std::optional<Partition> bootstrap;
      if (opts.bootstrap_with_mg) {
        MgDecomposer mg(rs, opts.mg);
        const PartitionSearchResult r = mg.find_partition(deadline);
        if (r.found) {
          bootstrap = r.partition;
        } else if (r.exhausted) {
          // MG's seed sweep is exact on decomposability: nothing to do.
          res.status = DecomposeStatus::kNotDecomposable;
          break;
        }
      }
      QbfFinderOptions qbf_opts = opts.qbf;
      qbf_opts.cegar.sat = opts.sat;
      QbfPartitionFinder finder(matrix, qbf_opts);
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

  res.sat_calls = rs.sat_calls();
  res.solver_stats += rs.solver().stats();

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
  return res;
}

}  // namespace

DecomposeResult BiDecomposer::decompose(const Cone& cone_in,
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

  // Support reduction must carry the care set along: a dropped input may
  // still appear in the care function, so it is existentially projected
  // away (any extension being care keeps the minterm constrained). When
  // the projection is over budget, reduction is skipped — sound either way.
  Cone reduced;
  std::optional<CareSet> reduced_care;
  bool use_reduced = false;
  if (opts_.reduce_support) {
    std::vector<std::uint32_t> kept;
    reduced = reduce_cone(cone_in, &kept);
    if (care == nullptr) {
      use_reduced = true;
    } else if (kept.size() == cone_in.aig.num_inputs()) {
      use_reduced = true;
      reduced_care = *care;
    } else if (auto proj = care_project(*care, kept, /*max_quantified=*/8)) {
      use_reduced = true;
      reduced_care = std::move(*proj);
    }
  }
  const Cone& cone = use_reduced ? reduced : cone_in;
  if (reduced_care) care = &*reduced_care;
  if (cone.n() < 2) {
    res.status = DecomposeStatus::kNotDecomposable;
    res.cpu_s = timer.elapsed_s();
    return res;
  }

  const RelaxationMatrix matrix = build_relaxation_matrix(cone, opts_.op, care);

  auto finish_with_partition = [&](Partition p, bool proven) {
    res.status = DecomposeStatus::kDecomposed;
    res.metrics = Metrics::of(p);
    res.proven_optimal = proven;
    res.partition = std::move(p);
    if (opts_.extract) {
      res.functions = extract_functions(cone, opts_.op, res.partition, care);
      if (opts_.verify) {
        bool ok = verify_decomposition(cone, *res.functions, care);
        // An injected verification flip is handled exactly like a real
        // mismatch, which is why injecting it is sound: the result below
        // is discarded either way.
        if (ok && opts_.faults != nullptr && opts_.faults->fire_verification())
          ok = false;
        res.verified = ok;
        if (!ok) {
          // Never return a wrong answer: a decomposition that fails its
          // SAT verification is discarded wholesale and reported as a
          // classified failure, not trusted because the search found it.
          res.functions.reset();
          res.partition = Partition{};
          res.metrics = Metrics{};
          res.proven_optimal = false;
          res.status = DecomposeStatus::kUnknown;
          res.reason = OutcomeReason::kVerificationFailed;
        }
      }
    }
  };

  // The search strand does everything up to (but excluding) extraction
  // and verification; it also classifies its own kUnknown reasons.
  const SearchStrand s = run_search_strand(matrix, opts_.engine, opts_,
                                           &deadline);
  res.sat_calls = s.sat_calls;
  res.qbf_calls = s.qbf_calls;
  res.qbf_iterations = s.qbf_iterations;
  res.qbf_abstraction_conflicts = s.qbf_abstraction_conflicts;
  res.qbf_verification_conflicts = s.qbf_verification_conflicts;
  res.solver_stats += s.solver_stats;
  if (s.status == DecomposeStatus::kDecomposed) {
    finish_with_partition(s.partition, s.proven_optimal);
  } else {
    res.status = s.status;
    res.reason = s.reason;
  }

  res.cpu_s = timer.elapsed_s();
  return res;
}

DecomposeResult decompose_with_partition(const Cone& cone, GateOp op,
                                         const Partition& partition,
                                         bool extract, bool verify,
                                         const CareSet* care,
                                         FaultStream* faults) {
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
    res.functions = extract_functions(cone, op, partition, care);
    if (verify) {
      bool ok = verify_decomposition(cone, *res.functions, care);
      if (ok && faults != nullptr && faults->fire_verification()) ok = false;
      res.verified = ok;
      if (!ok) {
        // Same contract as BiDecomposer::decompose: an unverified result
        // is discarded, never returned.
        res.functions.reset();
        res.partition = Partition{};
        res.metrics = Metrics{};
        res.status = DecomposeStatus::kUnknown;
        res.reason = OutcomeReason::kVerificationFailed;
      }
    }
  }
  res.cpu_s = timer.elapsed_s();
  return res;
}

}  // namespace step::core
