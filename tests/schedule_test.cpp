// Cone scheduling hooks (core/schedule.h): the hardness score's
// monotonicity, the tree-size estimate, and the FIFO order and batching
// that run_circuit's PO-order job queue follows.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/schedule.h"

namespace step::core {
namespace {

TEST(PredictedHardness, WiderSupportDominates) {
  ConeCost narrow{0, 8, 100.0};
  ConeCost wide{1, 16, 100.0};
  EXPECT_GT(predicted_hardness(wide), predicted_hardness(narrow));
}

TEST(PredictedHardness, BiggerConeCostsMore) {
  ConeCost small{0, 10, 50.0};
  ConeCost big{1, 10, 500.0};
  EXPECT_GT(predicted_hardness(big), predicted_hardness(small));
}

TEST(PredictedHardness, TrivialConesScoreZeroAndHugeSupportsSaturate) {
  EXPECT_EQ(predicted_hardness({0, 0, 10.0}), 0.0);
  EXPECT_EQ(predicted_hardness({0, 1, 10.0}), 0.0);
  // Clamped exponent: a 1000-input cone must not overflow to inf.
  const double huge = predicted_hardness({0, 1000, 1e6});
  EXPECT_TRUE(std::isfinite(huge));
  EXPECT_GE(huge, predicted_hardness({0, 64, 1e6}));
}

TEST(TreeSizeEstimates, ChainAndSharingBehaveAsDocumented) {
  aig::Aig a;
  const aig::Lit x = a.add_input("x");
  const aig::Lit y = a.add_input("y");
  const aig::Lit z = a.add_input("z");
  const aig::Lit g = a.land(x, y);
  const aig::Lit h = a.land(g, z);
  // Shared node double-counted per path — an upper bound, not exact.
  const aig::Lit top = a.land(h, aig::lnot(g));
  const std::vector<double> est = tree_size_estimates(a);
  EXPECT_EQ(est[aig::node_of(x)], 0.0);
  EXPECT_EQ(est[aig::node_of(g)], 1.0);
  EXPECT_EQ(est[aig::node_of(h)], 2.0);
  EXPECT_EQ(est[aig::node_of(top)], 4.0);  // 1 + est[h] + est[g]
}

TEST(ScheduleOrder, FifoIsIdentityInSingletonBatches) {
  const std::vector<double> scores = {3.0, 9.0, 1.0, 9.0, 5.0};
  const auto order = schedule_order(scores, SchedulePolicy::kFifo);
  const std::vector<std::size_t> identity = {0, 1, 2, 3, 4};
  EXPECT_EQ(order, identity);

  const auto batches =
      schedule_batches(scores, order, SchedulePolicy::kFifo);
  ASSERT_EQ(batches.size(), scores.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(batches[i], std::vector<std::size_t>{i});
  }
}

}  // namespace
}  // namespace step::core
