#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.h"

namespace step::core {

/// Job-ordering policy of run_circuit's per-PO fan-out.
///
/// kFifo submits cones in PO order (the historical behavior, and the
/// reference the scheduling tests pin against). kHardness scores every
/// cone's predicted decomposition hardness and submits hardest-first, so
/// the work-stealing pool never idles behind one giant cone discovered
/// last — the classic LPT (longest-processing-time) bound on makespan.
///
/// Scheduling is a *pure reordering*: which cones run, their budgets and
/// their per-cone computation are byte-identical under either policy, so
/// per-PO statuses, reasons and metrics match FIFO's exactly (the
/// property tests enforce this). Only completion order — and therefore
/// wall-clock makespan — changes.
enum class SchedulePolicy : std::uint8_t { kFifo, kHardness };

const char* to_string(SchedulePolicy p);

/// Per-cone features the hardness score consumes. All are pure functions
/// of the circuit structure (plus optional prior cache statistics), never
/// of timing or thread count, so the resulting order is deterministic.
struct ConeCost {
  std::uint32_t po = 0;        ///< PO index (stable tie-break key)
  int support = 0;             ///< structural support width
  double est_ands = 0.0;       ///< tree-size estimate of the cone
  double cache_hit_rate = 0.0; ///< prior DecCache hit rate, 0 = no cache
};

/// Predicted decomposition hardness of one cone, in arbitrary cost units
/// (comparable across cones of one circuit). The model mirrors what the
/// engines actually pay: the partition search space grows exponentially
/// with support width (the dominant term, clamped so it cannot overflow)
/// and the CNF/QBF matrices grow with cone size; a warm decomposition
/// cache discounts the expected cost. Needs no cone extraction.
double predicted_hardness(const ConeCost& c);

/// Saturating tree-size estimate of every node's cone in ONE forward
/// sweep over the whole AIG: est[n] = 1 + est[fanin0] + est[fanin1]
/// (inputs/constant are 0), counting shared sub-DAGs once per path. An
/// upper bound on the cone's AND count that preserves "bigger cone =>
/// bigger estimate" — exact per-cone counts would cost O(POs * nodes) on
/// a million-gate netlist, this costs O(nodes) for all POs together.
std::vector<double> tree_size_estimates(const aig::Aig& a);

/// How a schedule shaped the job queue, for --stats and bench JSON.
struct ScheduleShape {
  SchedulePolicy policy = SchedulePolicy::kFifo;
  int jobs = 0;
  /// Outlier cones (score >= kOutlierFactor * median): scheduled first,
  /// each as its own pool submission, so tail latency is bounded by the
  /// biggest cone alone, not the biggest cone plus whatever queued with it.
  int outliers = 0;
  /// Pool submissions after chunking: runs of small cones share one
  /// submission, so a 100k-PO netlist does not pay 100k queue operations.
  int batches = 0;
  double median_score = 0.0;
  double max_score = 0.0;
};

/// A cone this many times the median score is an outlier.
inline constexpr double kOutlierFactor = 8.0;

/// Small-cone runs are chunked into submissions of at most this many jobs
/// under kHardness (FIFO keeps the historical one-submission-per-job).
inline constexpr std::size_t kBatchMaxJobs = 32;

/// Deterministic execution order over jobs 0..scores.size()-1: identity
/// under kFifo; descending score with ascending-index tie-break under
/// kHardness. Always a permutation. Fills `shape` when non-null.
std::vector<std::size_t> schedule_order(const std::vector<double>& scores,
                                        SchedulePolicy policy,
                                        ScheduleShape* shape = nullptr);

/// Groups an execution order into pool submissions: outliers (by score)
/// stay singleton, runs of non-outliers are chunked up to kBatchMaxJobs.
/// Under kFifo every job is its own group. Updates shape->batches.
std::vector<std::vector<std::size_t>> schedule_batches(
    const std::vector<double>& scores, const std::vector<std::size_t>& order,
    SchedulePolicy policy, ScheduleShape* shape = nullptr);

/// Greedy list-scheduling simulation: the makespan of executing jobs with
/// the given per-job costs, dequeued in `order`, on `workers` identical
/// workers (each job goes to the earliest-free worker). An idealization
/// of the work-stealing pool that the scheduling tests use to compare
/// policies without wall-clock flakiness.
double simulated_makespan(const std::vector<double>& costs,
                          const std::vector<std::size_t>& order, int workers);

}  // namespace step::core
