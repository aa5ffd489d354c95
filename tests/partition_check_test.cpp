#include "core/partition_check.h"

#include <gtest/gtest.h>

#include "core/mg.h"
#include "test_util.h"

namespace step::core {
namespace {

Cone cone_or2() {
  Cone c;
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  c.root = c.aig.lor(x, y);
  return c;
}

Partition make_p(std::initializer_list<char> spec) {
  Partition p;
  for (char ch : spec) {
    p.cls.push_back(ch == 'A' ? VarClass::kA
                              : ch == 'B' ? VarClass::kB : VarClass::kC);
  }
  return p;
}

// ---------- hand-verified cases -----------------------------------------------

TEST(PartitionCheck, OrOfTwoVarsSplits) {
  const Cone c = cone_or2();
  EXPECT_TRUE(check_partition(c, GateOp::kOr, make_p({'A', 'B'})));
  EXPECT_TRUE(check_partition_exhaustive(c, GateOp::kOr, make_p({'A', 'B'})));
}

TEST(PartitionCheck, AndOfTwoVarsIsNotOrDecomposable) {
  Cone c;
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  c.root = c.aig.land(x, y);
  // x∧y cannot be fA(x) ∨ fB(y) ...
  EXPECT_FALSE(check_partition(c, GateOp::kOr, make_p({'A', 'B'})));
  EXPECT_FALSE(check_partition_exhaustive(c, GateOp::kOr, make_p({'A', 'B'})));
  // ... but is trivially AND-decomposable.
  EXPECT_TRUE(check_partition(c, GateOp::kAnd, make_p({'A', 'B'})));
  EXPECT_TRUE(check_partition_exhaustive(c, GateOp::kAnd, make_p({'A', 'B'})));
}

TEST(PartitionCheck, ParityIsXorDecomposableEverywhere) {
  Cone c;
  std::vector<aig::Lit> xs;
  for (int i = 0; i < 5; ++i) xs.push_back(c.aig.add_input());
  c.root = c.aig.lxor_many(xs);
  EXPECT_TRUE(check_partition(c, GateOp::kXor, make_p({'A', 'A', 'B', 'B', 'B'})));
  EXPECT_TRUE(check_partition(c, GateOp::kXor, make_p({'A', 'B', 'A', 'B', 'A'})));
  EXPECT_FALSE(check_partition(c, GateOp::kOr, make_p({'A', 'A', 'B', 'B', 'B'})));
  EXPECT_FALSE(check_partition(c, GateOp::kAnd, make_p({'A', 'B', 'A', 'B', 'A'})));
}

TEST(PartitionCheck, SharedVariablesMakeMuxDecomposable) {
  // f = s ? x : y. With s shared (XC), fA = s∧x and fB = ¬s∧y OR-decompose f.
  Cone c;
  const aig::Lit s = c.aig.add_input();
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  c.root = c.aig.lmux(s, x, y);
  EXPECT_TRUE(check_partition(c, GateOp::kOr, make_p({'C', 'A', 'B'})));
  // Without sharing s the mux is not OR bi-decomposable.
  EXPECT_FALSE(check_partition(c, GateOp::kOr, make_p({'A', 'A', 'B'})));
  EXPECT_FALSE(check_partition(c, GateOp::kOr, make_p({'B', 'A', 'B'})));
}

TEST(PartitionCheck, MajorityNeedsSharing) {
  // maj(x,y,z) = xy | xz | yz: valid OR partition A={x}, B={y}, C={z}?
  // fA = x∧z, fB = y∧(x... — check via the oracle instead of intuition.
  Cone c;
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  const aig::Lit z = c.aig.add_input();
  c.root = c.aig.lor(c.aig.lor(c.aig.land(x, y), c.aig.land(x, z)),
                     c.aig.land(y, z));
  const Partition p = make_p({'A', 'B', 'C'});
  EXPECT_EQ(check_partition(c, GateOp::kOr, p),
            check_partition_exhaustive(c, GateOp::kOr, p));
  const Partition q = make_p({'A', 'B', 'B'});
  EXPECT_EQ(check_partition(c, GateOp::kOr, q),
            check_partition_exhaustive(c, GateOp::kOr, q));
}

// ---------- SAT formulation vs exhaustive oracle, randomized -------------------

struct OpSeed {
  GateOp op;
  int seed;
};

class CheckAgreement : public ::testing::TestWithParam<OpSeed> {};

TEST_P(CheckAgreement, SatAndExhaustiveAgree) {
  const auto [op, seed] = GetParam();
  Rng rng(seed * 7577 + 101);
  for (int iter = 0; iter < 30; ++iter) {
    const int n = rng.next_int(2, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 24), rng.next());
    const RelaxationMatrix m = build_relaxation_matrix(cone, op);
    RelaxationSolver rs(m);
    for (int t = 0; t < 8; ++t) {
      const Partition p = testutil::random_partition(n, rng);
      const bool sat_says = rs.is_valid(p);
      const bool oracle_says = check_partition_exhaustive(cone, op, p);
      ASSERT_EQ(sat_says, oracle_says)
          << to_string(op) << " seed=" << seed << " iter=" << iter
          << " partition=" << p.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CheckAgreement,
    ::testing::Values(OpSeed{GateOp::kOr, 0}, OpSeed{GateOp::kOr, 1},
                      OpSeed{GateOp::kOr, 2}, OpSeed{GateOp::kAnd, 0},
                      OpSeed{GateOp::kAnd, 1}, OpSeed{GateOp::kAnd, 2},
                      OpSeed{GateOp::kXor, 0}, OpSeed{GateOp::kXor, 1},
                      OpSeed{GateOp::kXor, 2}));

// ---------- MG seed-pair truth table vs exhaustive oracle ----------------------

class SeedPairAgreement : public ::testing::TestWithParam<OpSeed> {};

TEST_P(SeedPairAgreement, EveryPairMatchesExhaustiveCheck) {
  // SeedPairTable settles MG's seed scan from one truth table; every pair
  // ({j},{l}) must agree with check_partition_exhaustive, with and without
  // a care set, on sparse random AIG cones (many valid pairs) and on dense
  // random tables (mostly none).
  const auto [op, seed] = GetParam();
  Rng rng(seed * 6151 + 17);
  for (int iter = 0; iter < 12; ++iter) {
    const int n = rng.next_int(2, 12);
    const Cone cone = iter % 3 == 2
                          ? testutil::random_tt_cone(n, rng)
                          : testutil::random_cone(n, rng.next_int(n, 4 * n),
                                                  rng.next());
    const bool with_care = iter % 2 == 1;
    const CareSet care = testutil::random_care(n, rng, 0.6);
    const CareSet* c = with_care ? &care : nullptr;
    const RelaxationMatrix m = build_relaxation_matrix(cone, op, c);
    const SeedPairTable table(m);
    bool any = false;
    for (int j = 0; j < n; ++j) {
      for (int l = j + 1; l < n; ++l) {
        Partition p;
        p.cls.assign(n, VarClass::kC);
        p.cls[j] = VarClass::kA;
        p.cls[l] = VarClass::kB;
        const bool oracle = check_partition_exhaustive(cone, op, p, c);
        ASSERT_EQ(table.valid(j, l), oracle)
            << to_string(op) << " seed=" << seed << " iter=" << iter
            << " care=" << with_care << " pair=" << j << "," << l;
        any = any || oracle;
      }
    }
    EXPECT_EQ(table.any_valid(), any)
        << to_string(op) << " seed=" << seed << " iter=" << iter;
    // MG itself: a seed exists iff some pair is valid, and a cone with no
    // valid pair is proven undecomposable after the first seed's SAT call.
    RelaxationSolver rs(m);
    const PartitionSearchResult r = MgDecomposer(rs).find_partition();
    EXPECT_EQ(r.found, any);
    if (!any) {
      EXPECT_TRUE(r.exhausted);
      EXPECT_EQ(r.sat_calls, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, SeedPairAgreement,
    ::testing::Values(OpSeed{GateOp::kOr, 0}, OpSeed{GateOp::kOr, 1},
                      OpSeed{GateOp::kAnd, 0}, OpSeed{GateOp::kAnd, 1},
                      OpSeed{GateOp::kXor, 0}, OpSeed{GateOp::kXor, 1}));

// ---------- monotonicity property ----------------------------------------------

TEST(PartitionCheck, MovingVariablesIntoXcPreservesValidity) {
  // If {XA|XB|XC} is valid, then moving any variable into XC keeps it
  // valid (the formula gains constraints). This is the property that makes
  // pair-seeding exact.
  Rng rng(4242);
  for (int iter = 0; iter < 40; ++iter) {
    const int n = rng.next_int(3, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 20), rng.next());
    const GateOp op = static_cast<GateOp>(rng.next_int(0, 2));
    const Partition p = testutil::random_partition(n, rng);
    if (!p.non_trivial() || !check_partition_exhaustive(cone, op, p)) continue;
    for (int i = 0; i < n; ++i) {
      if (p.cls[i] == VarClass::kC) continue;
      Partition q = p;
      q.cls[i] = VarClass::kC;
      if (!q.non_trivial()) continue;
      EXPECT_TRUE(check_partition_exhaustive(cone, op, q))
          << to_string(op) << " " << p.to_string() << " -> " << q.to_string();
    }
  }
}

// ---------- metrics -------------------------------------------------------------

TEST(Metrics, DefinitionsMatchPaper) {
  const Partition p = make_p({'A', 'A', 'B', 'C', 'C'});
  const Metrics m = Metrics::of(p);
  EXPECT_EQ(m.n, 5);
  EXPECT_EQ(m.shared, 2);
  EXPECT_EQ(m.imbalance, 1);
  EXPECT_DOUBLE_EQ(m.disjointness(), 0.4);
  EXPECT_DOUBLE_EQ(m.balancedness(), 0.2);
  EXPECT_DOUBLE_EQ(m.sum(), 0.6);
  EXPECT_EQ(m.combined_cost(), 3);
  EXPECT_EQ(metric_cost(m, MetricKind::kDisjointness), 2);
  EXPECT_EQ(metric_cost(m, MetricKind::kBalancedness), 1);
  EXPECT_EQ(metric_cost(m, MetricKind::kSum), 3);
}

TEST(Metrics, TrivialityDetection) {
  EXPECT_FALSE(make_p({'A', 'A', 'C'}).non_trivial());
  EXPECT_FALSE(make_p({'B', 'C', 'C'}).non_trivial());
  EXPECT_TRUE(make_p({'A', 'B', 'C'}).non_trivial());
}

// ---------- brute-force oracle internal consistency ----------------------------

TEST(BruteForce, OptimumIsValidAndMinimal) {
  Rng rng(777);
  for (int iter = 0; iter < 15; ++iter) {
    const int n = rng.next_int(3, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 16), rng.next());
    for (GateOp op : {GateOp::kOr, GateOp::kAnd, GateOp::kXor}) {
      const BruteForceResult r =
          brute_force_optimum(cone, op, MetricKind::kDisjointness);
      if (!r.decomposable) continue;
      EXPECT_TRUE(r.best.non_trivial());
      EXPECT_TRUE(check_partition_exhaustive(cone, op, r.best));
      EXPECT_EQ(metric_cost(Metrics::of(r.best), MetricKind::kDisjointness),
                r.best_cost);
    }
  }
}

}  // namespace
}  // namespace step::core
