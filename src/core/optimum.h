#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/outcome.h"
#include "core/qbf_model.h"

namespace step::core {

/// Bound-search strategies of Section IV.A.6.
enum class SearchStrategy : std::uint8_t {
  kMonotoneIncreasing,  ///< MI: k = 0, 1, 2, ...
  kMonotoneDecreasing,  ///< MD: k = ub−1, (new cost)−1, ...
  kBinary,              ///< Bin: dichotomic over the open interval
};

/// A stage of the composite search: strategy plus an iteration cap
/// (-1 = run the stage to completion).
struct SearchStage {
  SearchStrategy strategy;
  int max_iterations = -1;
};

struct OptimumOptions {
  /// Per-QBF-call timeout (the paper uses 4 s on a 2.93 GHz Xeon; the
  /// library default is scaled to the smaller benchmark suite).
  double call_timeout_s = 1.0;
  /// Empty = use the paper's default schedule for the model:
  /// disjointness / combined: MD(2) → Bin(8) → MI; balancedness: MI.
  std::vector<SearchStage> schedule;
};

/// Paper-default composite schedule for a model.
std::vector<SearchStage> default_schedule(QbfModel model);

struct OptimumResult {
  enum class Outcome {
    kFound,            ///< best holds a valid non-trivial partition
    kNotDecomposable,  ///< proven: no non-trivial partition exists
    kUnknown,          ///< timeouts prevented any conclusion
  };
  Outcome outcome = Outcome::kUnknown;
  /// What prevented a conclusion when outcome == kUnknown (kOk otherwise).
  OutcomeReason reason = OutcomeReason::kOk;
  Partition best;
  int best_cost = 0;
  /// True iff every bound below best_cost was refuted by the QBF solver,
  /// i.e. the partition is provably metric-optimal.
  bool proven_optimal = false;
  int qbf_calls = 0;
  int timeouts = 0;
};

/// Iterative optimum search over the monotone predicate
/// P(k) = "a non-trivial valid partition with target cost <= k exists",
/// decided by QbfPartitionFinder. Maintains the invariant
///   all k < lo refuted,  best holds the cheapest partition found,
/// and walks k according to the staged schedule. Results are never worse
/// than the bootstrap partition (the paper bootstraps with STEP-MG).
///
/// The whole MD/Bin/MI walk drives the finder's single persistent CEGAR
/// solver for the model: each query only changes
/// the assumption set activating the bound, and a refuted query's UNSAT
/// core (QbfFindResult::refuted_below) may raise `lo` past k+1, skipping
/// queries outright.
class OptimumSearch {
 public:
  OptimumSearch(QbfPartitionFinder& finder, QbfModel model,
                OptimumOptions opts = {})
      : finder_(finder), model_(model), opts_(std::move(opts)) {}

  OptimumResult run(const std::optional<Partition>& bootstrap,
                    const Deadline* po_deadline = nullptr);

 private:
  QbfPartitionFinder& finder_;
  QbfModel model_;
  OptimumOptions opts_;
};

}  // namespace step::core
