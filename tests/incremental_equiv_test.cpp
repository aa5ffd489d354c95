// The persistent optimum search (one CEGAR solver per model,
// assumption-activated bounds, core-driven lower-bound raises) against
// oracles that share none of its code: brute_force_optimum for the optimum
// and check_partition_exhaustive for every partition a query returns.

#include <gtest/gtest.h>

#include <string>

#include "benchgen/suite.h"
#include "core/optimum.h"
#include "core/relaxation.h"
#include "test_util.h"

namespace step::core {
namespace {

TEST(IncrementalEquivalence, MatchesBruteForceOnBenchgenSuite) {
  // Every optimum must be the brute-force one, proven; then a sweep of
  // every bound on the same (warmed) finder checks each answer: a kTrue
  // partition is valid and within the bound, a kFalse bound is below the
  // optimum and so is its certified refuted_below. Symmetry breaking on
  // and off covers both counters of unbroken QB/QDB, and the sweep both
  // parities of the halved QDB bound.
  const auto suite = benchgen::standard_suite(benchgen::SuiteScale::kTiny);
  int compared = 0;
  for (const benchgen::BenchCircuit& c : suite) {
    for (std::uint32_t po = 0; po < c.aig.num_outputs(); ++po) {
      const Cone cone = extract_po_cone(c.aig, po);
      if (cone.n() < 2 || cone.n() > 10) continue;
      const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
      for (QbfModel model : {QbfModel::kQD, QbfModel::kQB, QbfModel::kQDB}) {
        const MetricKind kind = metric_of(model);
        const BruteForceResult oracle =
            brute_force_optimum(cone, GateOp::kOr, kind);
        for (const bool sym : {true, false}) {
          const std::string where = c.name + " po " + std::to_string(po) + " " +
                                    to_string(model) + (sym ? " sym" : " nosym");
          QbfFinderOptions f;
          f.symmetry_breaking = sym;
          OptimumOptions o;
          o.call_timeout_s = 30.0;  // generous: every optimum gets proven
          QbfPartitionFinder finder(m, f);
          const OptimumResult r =
              OptimumSearch(finder, model, o).run(std::nullopt);
          if (!oracle.decomposable) {
            EXPECT_EQ(r.outcome, OptimumResult::Outcome::kNotDecomposable)
                << where;
            continue;
          }
          ASSERT_EQ(r.outcome, OptimumResult::Outcome::kFound) << where;
          EXPECT_EQ(r.best_cost, oracle.best_cost) << where;
          EXPECT_TRUE(r.proven_optimal) << where;
          EXPECT_TRUE(check_partition_exhaustive(cone, GateOp::kOr, r.best))
              << where;

          for (int k = cone.n() - 2; k >= 0; --k) {
            const QbfFindResult q = finder.find_with_bound(model, k);
            const std::string at = where + " k=" + std::to_string(k);
            ASSERT_NE(q.status, qbf::Qbf2Status::kUnknown) << at;
            if (q.status == qbf::Qbf2Status::kTrue) {
              EXPECT_LE(metric_cost(Metrics::of(q.partition), kind), k) << at;
              EXPECT_TRUE(
                  check_partition_exhaustive(cone, GateOp::kOr, q.partition))
                  << at;
            } else {
              EXPECT_LT(k, oracle.best_cost) << at;
              EXPECT_LE(q.refuted_below, oracle.best_cost) << at;
            }
          }
        }
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(IncrementalEquivalence, RefutedBelowIsSoundAgainstBruteForce) {
  // Whatever lower bound the UNSAT core certifies, no partition may exist
  // below it. Bounds are queried top-down so refinements and learned
  // clauses pile up in the persistent solver before the tight queries.
  Rng rng(86420);
  for (int iter = 0; iter < 8; ++iter) {
    const int n = rng.next_int(3, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(6, 20), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
    for (QbfModel model : {QbfModel::kQD, QbfModel::kQB, QbfModel::kQDB}) {
      const MetricKind kind = metric_of(model);
      const BruteForceResult oracle =
          brute_force_optimum(cone, GateOp::kOr, kind);
      QbfPartitionFinder finder(m);
      for (int k = n - 2; k >= 0; --k) {
        const QbfFindResult r = finder.find_with_bound(model, k);
        if (r.status != qbf::Qbf2Status::kFalse) continue;
        EXPECT_GE(r.refuted_below, k + 1);
        if (oracle.decomposable) {
          EXPECT_GE(oracle.best_cost, r.refuted_below)
              << to_string(model) << " k=" << k;
        }
      }
    }
  }
}

TEST(IncrementalEquivalence, CoreRaisesLowerBoundOnSharedSelect) {
  // A mux tree needs both selects shared: every QD bound below 2 is
  // refuted. The finder's refutation of k=0 reads its UNSAT core over the
  // counter outputs, so it may certify more than k+1 (up to
  // refuted_below == 2) but never more than the true optimum.
  Cone cone;
  const aig::Lit s0 = cone.aig.add_input();
  const aig::Lit s1 = cone.aig.add_input();
  const aig::Lit a = cone.aig.add_input();
  const aig::Lit b = cone.aig.add_input();
  const aig::Lit c = cone.aig.add_input();
  const aig::Lit d = cone.aig.add_input();
  cone.root =
      cone.aig.lmux(s0, cone.aig.lmux(s1, a, b), cone.aig.lmux(s1, c, d));
  const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);

  const BruteForceResult oracle =
      brute_force_optimum(cone, GateOp::kOr, MetricKind::kDisjointness);
  ASSERT_TRUE(oracle.decomposable);
  ASSERT_GE(oracle.best_cost, 2);

  QbfPartitionFinder finder(m);
  // Warm the solver on a satisfiable loose bound first (as the MD stage
  // of the schedule would), then refute the tightest bound.
  (void)finder.find_with_bound(QbfModel::kQD, 4);
  const QbfFindResult r = finder.find_with_bound(QbfModel::kQD, 0);
  ASSERT_EQ(r.status, qbf::Qbf2Status::kFalse);
  EXPECT_GE(r.refuted_below, 1);
  EXPECT_LE(r.refuted_below, oracle.best_cost);
}

TEST(IncrementalEquivalence, OneFinderAnswersEveryModelLikeFreshFinders) {
  // One finder asked about QD, QB and QDB in turn keeps one solver per
  // model and shares nothing between them: its optima must be those of a
  // fresh finder per model, and the true ones.
  Rng rng(13579);
  int found = 0;
  for (int iter = 0; iter < 6; ++iter) {
    const int n = rng.next_int(4, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(8, 20), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
    OptimumOptions o;
    o.call_timeout_s = 30.0;  // generous: every optimum gets proven
    QbfPartitionFinder shared(m);
    int shared_calls = 0;
    for (QbfModel model : {QbfModel::kQD, QbfModel::kQB, QbfModel::kQDB}) {
      const BruteForceResult oracle =
          brute_force_optimum(cone, GateOp::kOr, metric_of(model));
      QbfPartitionFinder fresh(m);
      const OptimumResult a = OptimumSearch(shared, model, o).run(std::nullopt);
      const OptimumResult b = OptimumSearch(fresh, model, o).run(std::nullopt);
      shared_calls += a.qbf_calls;
      EXPECT_EQ(fresh.qbf_calls(), b.qbf_calls);
      EXPECT_EQ(shared.qbf_calls(), shared_calls);

      const std::string where =
          std::string(to_string(model)) + " iter " + std::to_string(iter);
      ASSERT_EQ(static_cast<int>(a.outcome), static_cast<int>(b.outcome))
          << where;
      if (!oracle.decomposable) {
        EXPECT_EQ(a.outcome, OptimumResult::Outcome::kNotDecomposable)
            << where;
        continue;
      }
      ASSERT_EQ(a.outcome, OptimumResult::Outcome::kFound) << where;
      EXPECT_TRUE(a.proven_optimal) << where;
      EXPECT_TRUE(b.proven_optimal) << where;
      EXPECT_EQ(a.best_cost, oracle.best_cost) << where;
      EXPECT_EQ(b.best_cost, oracle.best_cost) << where;
      EXPECT_TRUE(check_partition_exhaustive(cone, GateOp::kOr, a.best))
          << where;
      if (a.qbf_calls > 0) ++found;
    }
  }
  EXPECT_GT(found, 0);  // some optimum took real queries to prove
}

}  // namespace
}  // namespace step::core
