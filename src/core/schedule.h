#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aig/aig.h"

namespace step::core {

// run_circuit submits one job per candidate PO, in PO order. The entry
// points below exist only for stepbench's `core.schedule` span, which
// replays that order through them; they go together with that span at the
// next benchmark change. schedule_order and schedule_batches therefore
// describe FIFO and nothing else.

/// Job-ordering policy: PO order is the only one.
enum class SchedulePolicy : std::uint8_t { kFifo };

/// Per-cone structural features of the hardness score.
struct ConeCost {
  std::uint32_t po = 0;   ///< PO index
  int support = 0;        ///< structural support width
  double est_ands = 0.0;  ///< tree-size estimate of the cone
};

/// Predicted decomposition hardness of one cone, in arbitrary cost units
/// (comparable across cones of one circuit). The partition search space
/// grows exponentially with support width (the dominant term, clamped so
/// it cannot overflow) and the CNF/QBF matrices grow with cone size.
/// Needs no cone extraction.
double predicted_hardness(const ConeCost& c);

/// Saturating tree-size estimate of every node's cone in ONE forward
/// sweep over the whole AIG: est[n] = 1 + est[fanin0] + est[fanin1]
/// (inputs/constant are 0), counting shared sub-DAGs once per path. An
/// upper bound on the cone's AND count that preserves "bigger cone =>
/// bigger estimate" — exact per-cone counts would cost O(POs * nodes) on
/// a million-gate netlist, this costs O(nodes) for all POs together.
std::vector<double> tree_size_estimates(const aig::Aig& a);

/// The identity permutation over jobs 0..scores.size()-1.
std::vector<std::size_t> schedule_order(const std::vector<double>& scores,
                                        SchedulePolicy policy);

/// One singleton submission per job of `order`, in that order.
std::vector<std::vector<std::size_t>> schedule_batches(
    const std::vector<double>& scores, const std::vector<std::size_t>& order,
    SchedulePolicy policy);

}  // namespace step::core
