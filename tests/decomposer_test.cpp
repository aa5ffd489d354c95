#include "core/decomposer.h"

#include <gtest/gtest.h>

#include "benchgen/generators.h"
#include "benchgen/suite.h"
#include "core/circuit_driver.h"
#include "core/partition_check.h"
#include "test_util.h"

namespace step::core {
namespace {

DecomposeOptions opts_for(Engine e, GateOp op) {
  DecomposeOptions o;
  o.engine = e;
  o.op = op;
  o.po_budget_s = 30.0;
  o.optimum.call_timeout_s = 5.0;
  return o;
}

// ---------- end-to-end on single cones ------------------------------------------

struct EngineOpSeed {
  Engine engine;
  GateOp op;
  int seed;
};

class DecomposerE2E : public ::testing::TestWithParam<EngineOpSeed> {};

TEST_P(DecomposerE2E, DecomposesVerifiablyOrProvesImpossible) {
  const auto [engine, op, seed] = GetParam();
  Rng rng(seed * 2221 + 41);
  for (int iter = 0; iter < 8; ++iter) {
    const int n = rng.next_int(2, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 22), rng.next());
    const BiDecomposer dec(opts_for(engine, op));
    const DecomposeResult r = dec.decompose(cone);
    const BruteForceResult oracle =
        brute_force_optimum(cone, op, MetricKind::kDisjointness);

    if (r.status == DecomposeStatus::kDecomposed) {
      EXPECT_TRUE(oracle.decomposable);
      EXPECT_TRUE(r.partition.non_trivial());
      EXPECT_TRUE(check_partition_exhaustive(cone, op, r.partition));
      ASSERT_TRUE(r.functions.has_value());
      EXPECT_TRUE(r.verified);
      EXPECT_TRUE(testutil::equivalent_by_simulation(
          cone.aig, cone.root, r.functions->aig, r.functions->combined, n));
    } else {
      ASSERT_EQ(r.status, DecomposeStatus::kNotDecomposable);
      EXPECT_FALSE(oracle.decomposable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DecomposerE2E,
    ::testing::Values(EngineOpSeed{Engine::kLjh, GateOp::kOr, 0},
                      EngineOpSeed{Engine::kMg, GateOp::kOr, 0},
                      EngineOpSeed{Engine::kMg, GateOp::kAnd, 0},
                      EngineOpSeed{Engine::kMg, GateOp::kXor, 0},
                      EngineOpSeed{Engine::kQbfDisjoint, GateOp::kOr, 0},
                      EngineOpSeed{Engine::kQbfDisjoint, GateOp::kAnd, 0},
                      EngineOpSeed{Engine::kQbfDisjoint, GateOp::kXor, 0},
                      EngineOpSeed{Engine::kQbfBalanced, GateOp::kOr, 0},
                      EngineOpSeed{Engine::kQbfCombined, GateOp::kOr, 0}));

TEST(Decomposer, QbfOptimalityMatchesOracle) {
  Rng rng(909);
  for (int iter = 0; iter < 6; ++iter) {
    const int n = rng.next_int(3, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(6, 24), rng.next());
    const BiDecomposer dec(opts_for(Engine::kQbfDisjoint, GateOp::kOr));
    const DecomposeResult r = dec.decompose(cone);
    const BruteForceResult oracle =
        brute_force_optimum(cone, GateOp::kOr, MetricKind::kDisjointness);
    if (r.status != DecomposeStatus::kDecomposed) continue;
    ASSERT_TRUE(oracle.decomposable);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.metrics.shared, oracle.best_cost);
  }
}

TEST(Decomposer, ConstantAndSingleVarConesNotDecomposable) {
  Cone constant;
  constant.root = aig::kLitTrue;
  EXPECT_EQ(BiDecomposer().decompose(constant).status,
            DecomposeStatus::kNotDecomposable);

  Cone wire;
  wire.root = wire.aig.add_input();
  EXPECT_EQ(BiDecomposer().decompose(wire).status,
            DecomposeStatus::kNotDecomposable);
}

TEST(Decomposer, BootstrapOffStillWorks) {
  Rng rng(112);
  DecomposeOptions o = opts_for(Engine::kQbfDisjoint, GateOp::kOr);
  o.bootstrap_with_mg = false;
  const Cone cone = testutil::random_cone(4, 12, rng.next());
  const DecomposeResult r = BiDecomposer(o).decompose(cone);
  const BruteForceResult oracle =
      brute_force_optimum(cone, GateOp::kOr, MetricKind::kDisjointness);
  EXPECT_EQ(r.status == DecomposeStatus::kDecomposed, oracle.decomposable);
}

// ---------- search, then extraction of the kept result ---------------------------

// decompose() with `extract` off followed by extract_and_verify() gives
// what one eager decompose() gives: the same partition and the same fA/fB.
// The extraction's own table is charged to the cone's account and
// refunded; a failed verification discards the result as decompose()
// does.
TEST(Decomposer, SearchThenExtractEqualsEagerDecompose) {
  Rng rng(3131);
  const std::optional<FaultPlan> fail_all = FaultPlan::parse("1:1.0:v");
  ASSERT_TRUE(fail_all.has_value());
  int checked = 0;
  for (const GateOp op : {GateOp::kOr, GateOp::kAnd, GateOp::kXor}) {
    for (int iter = 0; iter < 8; ++iter) {
      const int n = rng.next_int(3, 10);
      const Cone cone =
          testutil::random_cone(n, rng.next_int(n, 3 * n), rng.next());
      DecomposeOptions o = opts_for(Engine::kMg, op);
      const DecomposeResult eager = BiDecomposer(o).decompose(cone);
      MemTracker mem;
      o.extract = false;
      o.mem = &mem;
      const BiDecomposer dec(o);
      DecomposeResult lazy = dec.decompose(cone);
      ASSERT_EQ(lazy.status, eager.status);
      if (lazy.status != DecomposeStatus::kDecomposed) continue;
      EXPECT_FALSE(lazy.functions.has_value());
      EXPECT_FALSE(lazy.verified);
      dec.extract_and_verify(cone, lazy);
      ASSERT_EQ(lazy.status, DecomposeStatus::kDecomposed);
      EXPECT_TRUE(lazy.verified);
      EXPECT_EQ(lazy.partition, eager.partition);
      const ExtractedFunctions& a = *lazy.functions;
      const ExtractedFunctions& b = *eager.functions;
      EXPECT_EQ(a.aig.num_nodes(), b.aig.num_nodes());
      EXPECT_EQ(a.fa, b.fa);
      EXPECT_EQ(a.fb, b.fb);
      EXPECT_EQ(a.combined, b.combined);
      EXPECT_EQ(mem.bytes(), 0U);

      FaultStream faults(*fail_all, 0);
      o.faults = &faults;
      const BiDecomposer failing(o);
      DecomposeResult dropped = failing.decompose(cone);
      ASSERT_EQ(dropped.status, DecomposeStatus::kDecomposed);
      failing.extract_and_verify(cone, dropped);
      EXPECT_EQ(dropped.status, DecomposeStatus::kUnknown);
      EXPECT_EQ(dropped.reason, OutcomeReason::kVerificationFailed);
      EXPECT_FALSE(dropped.functions.has_value());
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

// ---------- the paper's bootstrapping guarantee ----------------------------------

TEST(Decomposer, QbfEnginesNeverWorseThanMg) {
  Rng rng(7117);
  for (int iter = 0; iter < 6; ++iter) {
    const int n = rng.next_int(3, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(6, 24), rng.next());
    const DecomposeResult mg =
        BiDecomposer(opts_for(Engine::kMg, GateOp::kOr)).decompose(cone);
    if (mg.status != DecomposeStatus::kDecomposed) continue;

    const DecomposeResult qd =
        BiDecomposer(opts_for(Engine::kQbfDisjoint, GateOp::kOr)).decompose(cone);
    ASSERT_EQ(qd.status, DecomposeStatus::kDecomposed);
    EXPECT_LE(qd.metrics.shared, mg.metrics.shared);

    const DecomposeResult qb =
        BiDecomposer(opts_for(Engine::kQbfBalanced, GateOp::kOr)).decompose(cone);
    ASSERT_EQ(qb.status, DecomposeStatus::kDecomposed);
    EXPECT_LE(qb.metrics.imbalance, mg.metrics.imbalance);

    const DecomposeResult qdb =
        BiDecomposer(opts_for(Engine::kQbfCombined, GateOp::kOr)).decompose(cone);
    ASSERT_EQ(qdb.status, DecomposeStatus::kDecomposed);
    EXPECT_LE(qdb.metrics.combined_cost(), mg.metrics.combined_cost());
  }
}

// ---------- circuit driver --------------------------------------------------------

TEST(CircuitDriver, RunsTinySuitePo) {
  const aig::Aig adder = benchgen::ripple_adder(3);
  const CircuitRunResult r =
      run_circuit(adder, "add3", opts_for(Engine::kMg, GateOp::kXor), 60.0);
  EXPECT_EQ(r.circuit, "add3");
  EXPECT_FALSE(r.pos.empty());
  // Every sum bit of an adder XOR-decomposes; expect most POs decomposed.
  EXPECT_GT(r.num_decomposed(), 0);
  EXPECT_GT(r.max_support(), 2);
}

TEST(CircuitDriver, ComparisonCountsAreConsistent) {
  const aig::Aig circ = benchgen::priority_encoder(5);
  const auto mg = run_circuit(circ, "pri5", opts_for(Engine::kMg, GateOp::kOr), 60.0);
  const auto qd =
      run_circuit(circ, "pri5", opts_for(Engine::kQbfDisjoint, GateOp::kOr), 60.0);
  const QualityComparison cmp = compare_quality(mg, qd, MetricKind::kDisjointness);
  EXPECT_EQ(cmp.considered, cmp.challenger_better + cmp.equal + cmp.challenger_worse);
  // Bootstrapped QD can never lose to MG.
  EXPECT_EQ(cmp.challenger_worse, 0);
  EXPECT_NEAR(cmp.better_pct() + cmp.equal_pct(), 100.0, 1e-9);
}

TEST(CircuitDriver, SkipsSmallSupports) {
  // A buffer/inverter-only circuit yields no decomposable POs.
  aig::Aig a;
  const aig::Lit x = a.add_input();
  a.add_output(x, "buf");
  a.add_output(aig::lnot(x), "inv");
  const CircuitRunResult r =
      run_circuit(a, "wires", opts_for(Engine::kMg, GateOp::kOr), 10.0);
  EXPECT_TRUE(r.pos.empty());
}

TEST(CircuitDriver, XorOnParityCircuitDecomposesAll) {
  const aig::Aig par = benchgen::parity_tree(8);
  const auto r =
      run_circuit(par, "par8", opts_for(Engine::kQbfBalanced, GateOp::kXor), 60.0);
  ASSERT_EQ(r.pos.size(), 1u);
  EXPECT_EQ(r.num_decomposed(), 1);
  // Parity XOR-decomposes perfectly balanced: imbalance 0.
  EXPECT_EQ(r.pos[0].metrics.imbalance, 0);
  EXPECT_TRUE(r.pos[0].proven_optimal);
}

}  // namespace
}  // namespace step::core
