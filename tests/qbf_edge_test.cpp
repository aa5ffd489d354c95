// Degenerate quantifier structures and accounting behaviour of the CEGAR
// 2QBF solver, plus finder-level edge cases.

#include <gtest/gtest.h>

#include "core/qbf_model.h"
#include "qbf/qbf2.h"
#include "test_util.h"

namespace step::qbf {
namespace {

TEST(QbfEdge, NoInnerInputsReducesToSat) {
  // ∃a,b ∀∅ . a ∧ ¬b — plain satisfiability.
  aig::Aig m;
  const aig::Lit a = m.add_input("a");
  const aig::Lit b = m.add_input("b");
  ExistsForallSolver s(m, m.land(a, aig::lnot(b)), {0, 1}, {});
  const Qbf2Result r = s.solve();
  ASSERT_EQ(r.status, Qbf2Status::kTrue);
  EXPECT_EQ(r.outer_model[0], sat::Lbool::kTrue);
  EXPECT_EQ(r.outer_model[1], sat::Lbool::kFalse);
}

TEST(QbfEdge, NoOuterInputsReducesToValidity) {
  // ∃∅ ∀x,y . x ∨ ¬x  (valid)  and  ∀x,y. x ∧ y (invalid).
  aig::Aig m;
  const aig::Lit x = m.add_input("x");
  const aig::Lit y = m.add_input("y");
  {
    ExistsForallSolver s(m, m.lor(x, aig::lnot(x)), {}, {0, 1});
    EXPECT_EQ(s.solve().status, Qbf2Status::kTrue);
  }
  {
    ExistsForallSolver s(m, m.land(x, y), {}, {0, 1});
    EXPECT_EQ(s.solve().status, Qbf2Status::kFalse);
  }
}

TEST(QbfEdge, ConstantMatrix) {
  aig::Aig m;
  (void)m.add_input("a");
  (void)m.add_input("x");
  {
    ExistsForallSolver s(m, aig::kLitTrue, {0}, {1});
    EXPECT_EQ(s.solve().status, Qbf2Status::kTrue);
  }
  {
    ExistsForallSolver s(m, aig::kLitFalse, {0}, {1});
    EXPECT_EQ(s.solve().status, Qbf2Status::kFalse);
  }
}

}  // namespace
}  // namespace step::qbf

namespace step::core {
namespace {

TEST(QbfFinderEdge, TwoVariableConeBoundZero) {
  Cone cone;
  const aig::Lit x = cone.aig.add_input();
  const aig::Lit y = cone.aig.add_input();
  cone.root = cone.aig.lor(x, y);
  const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
  QbfPartitionFinder finder(m);
  const QbfFindResult r = finder.find_with_bound(QbfModel::kQD, 0);
  ASSERT_EQ(r.status, qbf::Qbf2Status::kTrue);
  EXPECT_EQ(r.partition.num_c(), 0);
  EXPECT_TRUE(r.partition.non_trivial());
}

TEST(QbfFinderEdge, InfeasibleBoundZeroOnMux) {
  // A mux needs its select shared: |XC| <= 0 must be refuted.
  Cone cone;
  const aig::Lit s = cone.aig.add_input();
  const aig::Lit x = cone.aig.add_input();
  const aig::Lit y = cone.aig.add_input();
  cone.root = cone.aig.lmux(s, x, y);
  const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
  QbfPartitionFinder finder(m);
  EXPECT_EQ(finder.find_with_bound(QbfModel::kQD, 0).status,
            qbf::Qbf2Status::kFalse);
  EXPECT_EQ(finder.find_with_bound(QbfModel::kQD, 1).status,
            qbf::Qbf2Status::kTrue);
}

TEST(QbfFinderEdge, QbBoundLargerThanNMinusTwoStillWorks) {
  const Cone cone = testutil::random_cone(4, 10, 4242);
  const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
  QbfPartitionFinder finder(m);
  const QbfFindResult loose = finder.find_with_bound(QbfModel::kQB, 10);
  const QbfFindResult exact = finder.find_with_bound(QbfModel::kQB, 2);
  // Loosening the bound can only help.
  if (exact.status == qbf::Qbf2Status::kTrue) {
    EXPECT_EQ(loose.status, qbf::Qbf2Status::kTrue);
  }
}

TEST(QbfFinderEdge, UnbrokenSymmetryEncodingsMatchBruteForce) {
  // With symmetry breaking off, QB/QDB bound |#XA−#XB| directly; every
  // bound query must still agree with partition enumeration.
  Rng rng(192837);
  for (int iter = 0; iter < 6; ++iter) {
    const int n = rng.next_int(2, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 16), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
    QbfFinderOptions f;
    f.symmetry_breaking = false;
    for (QbfModel model : {QbfModel::kQD, QbfModel::kQB, QbfModel::kQDB}) {
      const MetricKind kind = metric_of(model);
      const BruteForceResult oracle =
          brute_force_optimum(cone, GateOp::kOr, kind);
      QbfPartitionFinder finder(m, f);
      for (int k = 0; k <= n - 2; ++k) {
        const QbfFindResult r = finder.find_with_bound(model, k);
        const bool possible = oracle.decomposable && oracle.best_cost <= k;
        if (r.status == qbf::Qbf2Status::kTrue) {
          EXPECT_TRUE(possible);
          EXPECT_TRUE(
              check_partition_exhaustive(cone, GateOp::kOr, r.partition));
          EXPECT_LE(metric_cost(Metrics::of(r.partition), kind), k);
        } else {
          ASSERT_EQ(r.status, qbf::Qbf2Status::kFalse);
          EXPECT_FALSE(possible) << to_string(model) << " k=" << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace step::core
