#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "core/ljh.h"
#include "core/mg.h"
#include "core/optimum.h"
#include "core/partition_check.h"
#include "core/qbf_model.h"
#include "test_util.h"

namespace step::core {
namespace {

struct OpSeed {
  GateOp op;
  int seed;
};

// ---------- LJH -----------------------------------------------------------------

class LjhRandom : public ::testing::TestWithParam<OpSeed> {};

TEST_P(LjhRandom, FoundPartitionsAreValidElseProvenImpossible) {
  const auto [op, seed] = GetParam();
  Rng rng(seed * 90001 + 3);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = rng.next_int(2, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 24), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, op);
    LjhDecomposer ljh(m);
    const PartitionSearchResult r = ljh.find_partition();
    const BruteForceResult oracle =
        brute_force_optimum(cone, op, MetricKind::kDisjointness);
    if (r.found) {
      EXPECT_TRUE(r.partition.non_trivial());
      EXPECT_TRUE(check_partition_exhaustive(cone, op, r.partition));
      EXPECT_TRUE(oracle.decomposable);
    } else {
      EXPECT_TRUE(r.exhausted);
      EXPECT_FALSE(oracle.decomposable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, LjhRandom,
    ::testing::Values(OpSeed{GateOp::kOr, 0}, OpSeed{GateOp::kOr, 1},
                      OpSeed{GateOp::kAnd, 0}, OpSeed{GateOp::kXor, 0}));

TEST(LjhDeadline, ExpiredChecksAbortWithTimeoutNotExclusion) {
  // Regression (PR 5): a deadline-expired validity check inside the
  // seed/growth loops used to be treated as "partition invalid" — the
  // search kept excluding variables and scanning seeds after expiry and
  // could even end in an exhaustiveness claim it never proved. Force the
  // deadline to expire at every reachable poll point and assert the
  // search (a) reports the timeout, (b) never claims exhaustion, and
  // (c) only returns partitions that were actually validated.
  const Cone cone = testutil::random_cone(5, 16, 0x11f5);
  const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);

  LjhDecomposer ref(m);
  const PartitionSearchResult unlimited = ref.find_partition();
  ASSERT_TRUE(unlimited.found);
  EXPECT_FALSE(unlimited.timed_out);

  bool saw_timeout = false;
  for (int polls = 0; polls < 80; ++polls) {
    Deadline d;
    d.force_expire_after_polls(polls);
    LjhDecomposer ljh(m);
    const PartitionSearchResult r = ljh.find_partition(&d);
    if (r.timed_out) {
      saw_timeout = true;
      EXPECT_FALSE(r.exhausted) << "polls=" << polls;
    } else {
      // The deadline never fired mid-search: the result must be exactly
      // the unlimited one (timeouts may truncate, never perturb).
      EXPECT_EQ(r.found, unlimited.found) << "polls=" << polls;
      EXPECT_EQ(r.partition.cls, unlimited.partition.cls)
          << "polls=" << polls;
    }
    if (r.found) {
      EXPECT_TRUE(r.partition.non_trivial());
      EXPECT_TRUE(check_partition_exhaustive(cone, GateOp::kOr, r.partition))
          << "polls=" << polls;
    }
  }
  EXPECT_TRUE(saw_timeout);

  // Pre-expired deadline: the search must stop before any solver call.
  Deadline d0;
  d0.force_expire_after_polls(0);
  LjhDecomposer ljh0(m);
  const PartitionSearchResult r0 = ljh0.find_partition(&d0);
  EXPECT_TRUE(r0.timed_out);
  EXPECT_FALSE(r0.found);
  EXPECT_FALSE(r0.exhausted);
  EXPECT_EQ(ljh0.sat_calls(), 0);
}

// ---------- MG ------------------------------------------------------------------

class MgRandom : public ::testing::TestWithParam<OpSeed> {};

TEST_P(MgRandom, FoundPartitionsAreValidElseProvenImpossible) {
  const auto [op, seed] = GetParam();
  Rng rng(seed * 6007 + 17);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = rng.next_int(2, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 24), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, op);
    RelaxationSolver rs(m);
    MgDecomposer mg(rs);
    const PartitionSearchResult r = mg.find_partition();
    const BruteForceResult oracle =
        brute_force_optimum(cone, op, MetricKind::kDisjointness);
    if (r.found) {
      EXPECT_TRUE(r.partition.non_trivial());
      EXPECT_TRUE(check_partition_exhaustive(cone, op, r.partition))
          << to_string(op) << " " << r.partition.to_string();
      EXPECT_TRUE(oracle.decomposable);
    } else {
      EXPECT_TRUE(r.exhausted);
      EXPECT_FALSE(oracle.decomposable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, MgRandom,
    ::testing::Values(OpSeed{GateOp::kOr, 0}, OpSeed{GateOp::kOr, 1},
                      OpSeed{GateOp::kAnd, 0}, OpSeed{GateOp::kAnd, 1},
                      OpSeed{GateOp::kXor, 0}, OpSeed{GateOp::kXor, 1}));

TEST(Mg, AgreesWithOracleOnDecomposability) {
  // MG's pair seeding is exact for decomposability: cross-check counts.
  Rng rng(31337);
  int decomposable = 0, total = 0;
  for (int iter = 0; iter < 30; ++iter) {
    const int n = rng.next_int(3, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(3, 18), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
    RelaxationSolver rs(m);
    MgDecomposer mg(rs);
    const bool found = mg.find_partition().found;
    const bool oracle =
        brute_force_optimum(cone, GateOp::kOr, MetricKind::kDisjointness)
            .decomposable;
    EXPECT_EQ(found, oracle);
    ++total;
    if (found) ++decomposable;
  }
  EXPECT_GT(decomposable, 0);
  (void)total;

  // And a function with no OR bi-decomposition at all: 4-input parity.
  Cone parity;
  std::vector<aig::Lit> xs;
  for (int i = 0; i < 4; ++i) xs.push_back(parity.aig.add_input());
  parity.root = parity.aig.lxor_many(xs);
  const RelaxationMatrix pm = build_relaxation_matrix(parity, GateOp::kOr);
  RelaxationSolver prs(pm);
  MgDecomposer pmg(prs);
  const PartitionSearchResult pr = pmg.find_partition();
  EXPECT_FALSE(pr.found);
  EXPECT_TRUE(pr.exhausted);
  EXPECT_FALSE(
      brute_force_optimum(parity, GateOp::kOr, MetricKind::kDisjointness)
          .decomposable);
}

TEST(MgSat, WideConesRunSeedScanAndGroupMusOnSat) {
  // Above aig::kTtMaxSupport inputs OR/AND MG stays on SAT (seed scan and
  // group MUS); at or below it the same cones would run on the table.
  // g(X1) <op> h(X2) with a few shared inputs is decomposable by
  // construction; the partition must pass a one-shot SAT check.
  Rng rng(2718);
  for (int iter = 0; iter < 6; ++iter) {
    const GateOp op = iter % 2 == 0 ? GateOp::kOr : GateOp::kAnd;
    const int n = rng.next_int(aig::kTtMaxSupport + 1, aig::kTtMaxSupport + 3);
    const Cone cone = testutil::decomposable_cone(n, op, rng).cone;
    const RelaxationMatrix m = build_relaxation_matrix(cone, op);
    RelaxationSolver rs(m);
    const PartitionSearchResult r = MgDecomposer(rs).find_partition();
    ASSERT_TRUE(r.found) << to_string(op) << " iter " << iter;
    EXPECT_GT(r.sat_calls, 0);
    EXPECT_TRUE(r.partition.non_trivial());
    EXPECT_TRUE(check_partition(cone, op, r.partition))
        << to_string(op) << " " << r.partition.to_string();
  }

  // Parity of 17 inputs has no OR bi-decomposition. Every on-row of
  // parity has all its one-flip neighbours in the off-set, so simulation
  // refutes every seed pair and the scan proves it with no SAT call.
  Cone parity;
  std::vector<aig::Lit> xs;
  for (int i = 0; i < aig::kTtMaxSupport + 1; ++i) {
    xs.push_back(parity.aig.add_input());
  }
  parity.root = parity.aig.lxor_many(xs);
  const RelaxationMatrix pm = build_relaxation_matrix(parity, GateOp::kOr);
  RelaxationSolver prs(pm);
  const PartitionSearchResult pr = MgDecomposer(prs).find_partition();
  EXPECT_FALSE(pr.found);
  EXPECT_TRUE(pr.exhausted);
  EXPECT_EQ(pr.sat_calls, 0);
}

// ---------- QBF bounded queries --------------------------------------------------

struct ModelOpSeed {
  QbfModel model;
  GateOp op;
  int seed;
  bool symmetry_breaking = true;
  int min_n = 2;  ///< random cones draw their support from [min_n, max_n]
  int max_n = 8;
};

class QbfBound : public ::testing::TestWithParam<ModelOpSeed> {};

TEST_P(QbfBound, MatchesBruteForceAtEveryBound) {
  const ModelOpSeed p = GetParam();
  const MetricKind kind = metric_of(p.model);
  QbfFinderOptions fo;
  fo.symmetry_breaking = p.symmetry_breaking;
  Rng rng(p.seed * 523 + 7);
  for (int iter = 0; iter < 8; ++iter) {
    const int n = rng.next_int(p.min_n, p.max_n);
    const Cone cone =
        testutil::random_cone(n, rng.next_int(4, 3 * n + 4), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, p.op);
    QbfPartitionFinder finder(m, fo);
    const BruteForceResult oracle = brute_force_optimum(cone, p.op, kind);

    // Negative k and k > n − 2 lie outside the optimum search's range;
    // the bound map (including its k < −n clamp) and the core read-back
    // must stay sound there too.
    for (int k = -n - 1; k <= n; ++k) {
      const QbfFindResult r = finder.find_with_bound(p.model, k);
      const bool oracle_possible = oracle.decomposable && oracle.best_cost <= k;
      if (r.status == qbf::Qbf2Status::kTrue) {
        EXPECT_TRUE(oracle_possible)
            << to_string(p.model) << " " << to_string(p.op) << " k=" << k;
        EXPECT_TRUE(r.partition.non_trivial());
        EXPECT_TRUE(check_partition_exhaustive(cone, p.op, r.partition));
        EXPECT_LE(metric_cost(Metrics::of(r.partition), kind), k);
      } else {
        ASSERT_EQ(r.status, qbf::Qbf2Status::kFalse);
        EXPECT_FALSE(oracle_possible)
            << to_string(p.model) << " " << to_string(p.op) << " k=" << k
            << " oracle found " << oracle.best.to_string();
        // refuted_below claims every bound below it is refuted: it must
        // never pass the true optimum, or proven_optimal would be unsound.
        EXPECT_GE(r.refuted_below, k + 1);
        if (oracle.decomposable) {
          EXPECT_LE(r.refuted_below, oracle.best_cost)
              << to_string(p.model) << " " << to_string(p.op) << " n=" << n
              << " k=" << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QbfBound,
    ::testing::Values(ModelOpSeed{QbfModel::kQD, GateOp::kOr, 0},
                      ModelOpSeed{QbfModel::kQD, GateOp::kOr, 1},
                      ModelOpSeed{QbfModel::kQD, GateOp::kAnd, 0},
                      ModelOpSeed{QbfModel::kQD, GateOp::kXor, 0},
                      ModelOpSeed{QbfModel::kQB, GateOp::kOr, 0},
                      ModelOpSeed{QbfModel::kQB, GateOp::kAnd, 0},
                      ModelOpSeed{QbfModel::kQB, GateOp::kXor, 0},
                      ModelOpSeed{QbfModel::kQB, GateOp::kOr, 2, false},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kOr, 0},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kAnd, 0},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kXor, 0},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kOr, 2, false},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kXor, 2, false}));

// ---------- optimum search --------------------------------------------------------

class OptimumRandom : public ::testing::TestWithParam<ModelOpSeed> {};

TEST_P(OptimumRandom, FindsTheBruteForceOptimum) {
  const ModelOpSeed p = GetParam();
  const QbfModel model = p.model;
  const GateOp op = p.op;
  const MetricKind kind = metric_of(model);
  QbfFinderOptions fo;
  fo.symmetry_breaking = p.symmetry_breaking;
  Rng rng(p.seed * 1009 + 23);
  for (int iter = 0; iter < 10; ++iter) {
    const int n = rng.next_int(p.min_n, p.max_n);
    const Cone cone =
        testutil::random_cone(n, rng.next_int(4, 3 * n + 4), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, op);
    const BruteForceResult oracle = brute_force_optimum(cone, op, kind);

    QbfPartitionFinder finder(m, fo);
    OptimumSearch search(finder, model);
    const OptimumResult r = search.run(std::nullopt);

    if (!oracle.decomposable) {
      EXPECT_EQ(r.outcome, OptimumResult::Outcome::kNotDecomposable);
      continue;
    }
    ASSERT_EQ(r.outcome, OptimumResult::Outcome::kFound);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.best_cost, oracle.best_cost)
        << to_string(model) << " " << to_string(op) << " n=" << n;
    EXPECT_TRUE(check_partition_exhaustive(cone, op, r.best));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimumRandom,
    ::testing::Values(ModelOpSeed{QbfModel::kQD, GateOp::kOr, 0},
                      ModelOpSeed{QbfModel::kQD, GateOp::kOr, 1},
                      ModelOpSeed{QbfModel::kQD, GateOp::kAnd, 0},
                      ModelOpSeed{QbfModel::kQD, GateOp::kXor, 0},
                      ModelOpSeed{QbfModel::kQB, GateOp::kOr, 0},
                      ModelOpSeed{QbfModel::kQB, GateOp::kOr, 1},
                      ModelOpSeed{QbfModel::kQB, GateOp::kAnd, 0},
                      ModelOpSeed{QbfModel::kQB, GateOp::kXor, 0},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kOr, 0},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kOr, 1},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kAnd, 0},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kXor, 0},
                      ModelOpSeed{QbfModel::kQB, GateOp::kOr, 2, false},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kOr, 2, true, 7},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kAnd, 2, true, 7},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kXor, 2, true, 7},
                      ModelOpSeed{QbfModel::kQDB, GateOp::kOr, 3, false, 7}));

TEST(Optimum, BootstrapNeverWorsensResult) {
  Rng rng(5555);
  for (int iter = 0; iter < 12; ++iter) {
    const int n = rng.next_int(3, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(6, 22), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);
    RelaxationSolver rs(m);
    MgDecomposer mg(rs);
    const PartitionSearchResult boot = mg.find_partition();
    if (!boot.found) continue;

    QbfPartitionFinder finder(m);
    OptimumSearch search(finder, QbfModel::kQD);
    const OptimumResult r = search.run(boot.partition);
    ASSERT_EQ(r.outcome, OptimumResult::Outcome::kFound);
    EXPECT_LE(r.best_cost,
              metric_cost(Metrics::of(boot.partition), MetricKind::kDisjointness));
    EXPECT_TRUE(r.proven_optimal);
  }
}

TEST(Optimum, AllStrategiesAgreeOnTheOptimum) {
  // MI, MD, Bin (each standalone) must land on the same proven cost.
  Rng rng(8088);
  for (int iter = 0; iter < 8; ++iter) {
    const int n = rng.next_int(3, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(6, 22), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, GateOp::kOr);

    int costs[3];
    bool decomposable = true;
    const SearchStrategy strategies[3] = {SearchStrategy::kMonotoneIncreasing,
                                          SearchStrategy::kMonotoneDecreasing,
                                          SearchStrategy::kBinary};
    for (int s = 0; s < 3; ++s) {
      QbfPartitionFinder finder(m);
      OptimumOptions opts;
      opts.schedule = {{strategies[s], -1}};
      OptimumSearch search(finder, QbfModel::kQD, opts);
      const OptimumResult r = search.run(std::nullopt);
      if (r.outcome != OptimumResult::Outcome::kFound) {
        decomposable = false;
        break;
      }
      EXPECT_TRUE(r.proven_optimal);
      costs[s] = r.best_cost;
    }
    if (decomposable) {
      EXPECT_EQ(costs[0], costs[1]);
      EXPECT_EQ(costs[0], costs[2]);
    }
  }
}

}  // namespace
}  // namespace step::core
