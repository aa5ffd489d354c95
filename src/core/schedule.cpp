#include "core/schedule.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace step::core {

double predicted_hardness(const ConeCost& c) {
  if (c.support < 2) return 0.0;
  // Exponential in support width (the partition search space), linear in
  // cone size (matrix/CNF build and walk costs). The exponent base is
  // deliberately mild — supports differ by tens, and 1.5^n already
  // separates a 20-input cone from a 10-input one by ~57x — and clamped
  // far below double overflow.
  const double width = std::min(c.support, 64);
  return std::pow(1.5, width) * (1.0 + c.est_ands);
}

std::vector<double> tree_size_estimates(const aig::Aig& a) {
  // Saturate well below infinity so sums stay ordered and finite: deep
  // shared DAGs make the tree count explode doubly-exponentially.
  constexpr double kCap = 1e30;
  std::vector<double> est(a.num_nodes(), 0.0);
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (!a.is_and(n)) continue;
    const double e = 1.0 + est[aig::node_of(a.fanin0(n))] +
                     est[aig::node_of(a.fanin1(n))];
    est[n] = std::min(e, kCap);
  }
  return est;
}

std::vector<std::size_t> schedule_order(const std::vector<double>& scores,
                                        SchedulePolicy /*policy*/) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

std::vector<std::vector<std::size_t>> schedule_batches(
    const std::vector<double>& scores, const std::vector<std::size_t>& order,
    SchedulePolicy /*policy*/) {
  STEP_CHECK(scores.size() == order.size());
  std::vector<std::vector<std::size_t>> batches;
  batches.reserve(order.size());
  for (const std::size_t j : order) batches.push_back({j});
  return batches;
}

}  // namespace step::core
