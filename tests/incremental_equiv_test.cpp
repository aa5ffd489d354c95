// A/B regression of the optimum-search architectures: the incremental
// path (one persistent CEGAR solver pair, assumption-activated bounds,
// core-driven lower-bound raises) must return exactly the answers of the
// scratch rebuild-per-query path, for every model, on the benchgen suite.

#include <gtest/gtest.h>

#include <string>

#include "benchgen/suite.h"
#include "core/optimum.h"
#include "core/relaxation.h"
#include "test_util.h"

namespace step::core {
namespace {

TEST(IncrementalEquivalence, MatchesScratchOnBenchgenSuite) {
  const auto suite = benchgen::standard_suite(benchgen::SuiteScale::kTiny);
  int compared = 0;
  for (const benchgen::BenchCircuit& c : suite) {
    for (std::uint32_t po = 0; po < c.aig.num_outputs(); ++po) {
      const Cone cone = extract_po_cone(c.aig, po);
      if (cone.n() < 2 || cone.n() > 10) continue;
      const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
      for (QbfModel model : {QbfModel::kQD, QbfModel::kQB, QbfModel::kQDB}) {
        OptimumOptions o;
        o.call_timeout_s = 30.0;  // generous: no timeout-induced divergence
        QbfFinderOptions inc_opts, scratch_opts;
        inc_opts.incremental = true;
        scratch_opts.incremental = false;
        QbfPartitionFinder inc_finder(m, inc_opts);
        QbfPartitionFinder scratch_finder(m, scratch_opts);
        const OptimumResult inc =
            OptimumSearch(inc_finder, model, o).run(std::nullopt);
        const OptimumResult scratch =
            OptimumSearch(scratch_finder, model, o).run(std::nullopt);

        ASSERT_EQ(static_cast<int>(inc.outcome),
                  static_cast<int>(scratch.outcome))
            << c.name << " po " << po << " " << to_string(model);
        if (inc.outcome == OptimumResult::Outcome::kFound) {
          EXPECT_EQ(inc.best_cost, scratch.best_cost)
              << c.name << " po " << po << " " << to_string(model);
          EXPECT_EQ(inc.proven_optimal, scratch.proven_optimal)
              << c.name << " po " << po << " " << to_string(model);
          EXPECT_TRUE(check_partition_exhaustive(cone, GateOp::kOr, inc.best));
        }
        ++compared;
      }
      if (compared >= 45) {
        EXPECT_GT(compared, 0);
        return;  // runtime guard; the sweep below covers more shapes
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
  // refuted. The incremental finder's refutation of k=0 should already
  // certify that (refuted_below == 2), which the scratch path cannot.
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
  // One finder asked about QD, QB and QDB in turn keeps one solver pair
  // per model (or none, in scratch mode) and shares nothing between them:
  // its optima must be those of a fresh finder per model, and the true
  // ones.
  Rng rng(13579);
  int found = 0;
  for (int iter = 0; iter < 6; ++iter) {
    const int n = rng.next_int(4, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(8, 20), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
    for (const bool incremental : {true, false}) {
      QbfFinderOptions f;
      f.incremental = incremental;
      OptimumOptions o;
      o.call_timeout_s = 30.0;  // generous: every optimum gets proven
      QbfPartitionFinder shared(m, f);
      int shared_calls = 0;
      for (QbfModel model : {QbfModel::kQD, QbfModel::kQB, QbfModel::kQDB}) {
        const BruteForceResult oracle =
            brute_force_optimum(cone, GateOp::kOr, metric_of(model));
        QbfPartitionFinder fresh(m, f);
        const OptimumResult a =
            OptimumSearch(shared, model, o).run(std::nullopt);
        const OptimumResult b =
            OptimumSearch(fresh, model, o).run(std::nullopt);
        shared_calls += a.qbf_calls;
        EXPECT_EQ(fresh.qbf_calls(), b.qbf_calls);
        EXPECT_EQ(shared.qbf_calls(), shared_calls);

        const std::string where = std::string(to_string(model)) +
                                  (incremental ? " incremental" : " scratch") +
                                  " iter " + std::to_string(iter);
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
  }
  EXPECT_GT(found, 0);  // some optimum took real queries to prove
}

}  // namespace
}  // namespace step::core
