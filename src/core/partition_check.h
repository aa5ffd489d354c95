#pragma once

#include <optional>

#include "core/bidec_types.h"
#include "core/relaxation.h"

namespace step::core {

/// One-shot SAT validity check of a concrete partition (builds the matrix
/// and a solver internally; for repeated checks use RelaxationSolver).
/// A non-trivial `care` restricts validity to the care minterms (OR/AND;
/// XOR stays exact — see build_relaxation_matrix).
bool check_partition(const Cone& cone, GateOp op, const Partition& p,
                     const CareSet* care = nullptr);

/// Truth-table validity oracle (exhaustive; support <= aig::kTtMaxSupport). Used by the
/// property tests and the brute-force optimum below, and as an independent
/// cross-check of the SAT formulation — including its don't-care variant:
/// `care` follows the same OR/AND-only semantics as the SAT path.
bool check_partition_exhaustive(const Cone& cone, GateOp op, const Partition& p,
                                const CareSet* care = nullptr);

/// Which metric a search optimizes (the paper's QD / QB / QDB targets).
enum class MetricKind { kDisjointness, kBalancedness, kSum };

inline const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kDisjointness: return "disjointness";
    case MetricKind::kBalancedness: return "balancedness";
    case MetricKind::kSum: return "disjointness+balancedness";
  }
  return "?";
}

/// Integer cost of a partition under a metric (numerator of the paper's
/// relative metric; denominators are all ||X||, so integer comparison is
/// exact).
int metric_cost(const Metrics& m, MetricKind kind);

/// Exhaustive optimum over all 3^n non-trivial partitions (support <= 10);
/// the oracle against which the QBF models' optimality is validated.
struct BruteForceResult {
  bool decomposable = false;
  int best_cost = 0;
  Partition best;
};
BruteForceResult brute_force_optimum(const Cone& cone, GateOp op, MetricKind kind);

}  // namespace step::core
