#include "core/synthesis.h"

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "benchgen/generators.h"
#include "cnf/cnf.h"
#include "core/circuit_driver.h"
#include "core/reduce.h"
#include "cnf/tseitin.h"
#include "sat/solver.h"
#include "test_util.h"

namespace step::core {
namespace {

using testutil::circuits_equivalent;

SynthesisOptions fast_opts() {
  SynthesisOptions o;
  o.engine = Engine::kMg;  // fast heuristic partitions for tests
  return o;
}

TEST(Synthesis, PreservesFunctionOnSop) {
  const aig::Aig circ = benchgen::random_sop(4, 4, 2, 5, 4, 0xfeed);
  const SynthesisResult r = resynthesize(circ, fast_opts());
  EXPECT_TRUE(circuits_equivalent(circ, r.network));
  EXPECT_GT(r.stats.decompositions, 0);
  EXPECT_EQ(r.stats.pos_processed, 5);
}

TEST(Synthesis, PreservesFunctionOnMux) {
  const aig::Aig circ = benchgen::mux_tree(3);
  const SynthesisResult r = resynthesize(circ, fast_opts());
  EXPECT_TRUE(circuits_equivalent(circ, r.network));
}

TEST(Synthesis, PreservesFunctionOnAdder) {
  const aig::Aig circ = benchgen::ripple_adder(4);
  const SynthesisResult r = resynthesize(circ, fast_opts());
  EXPECT_TRUE(circuits_equivalent(circ, r.network));
  // Sum bits are XOR-decomposable: some decompositions must happen.
  EXPECT_GT(r.stats.decompositions, 0);
}

TEST(Synthesis, ParityBecomesXorTree) {
  const aig::Aig circ = benchgen::parity_tree(8);
  SynthesisOptions o = fast_opts();
  const SynthesisResult r = resynthesize(circ, o);
  EXPECT_TRUE(circuits_equivalent(circ, r.network));
  // Parity of 8 decomposes all the way down: 7 XOR gates, no leaves with
  // support above the threshold.
  EXPECT_EQ(r.stats.undecomposable, 0);
  EXPECT_GE(r.stats.decompositions, 3);
}

TEST(Synthesis, UndecomposableLeavesAreCopied) {
  // maj3 has no non-trivial bi-decomposition for any op: it must be
  // emitted as a leaf and still be correct.
  aig::Aig circ;
  const aig::Lit x = circ.add_input("x");
  const aig::Lit y = circ.add_input("y");
  const aig::Lit z = circ.add_input("z");
  circ.add_output(circ.lor(circ.lor(circ.land(x, y), circ.land(x, z)),
                           circ.land(y, z)),
                  "maj");
  const SynthesisResult r = resynthesize(circ, fast_opts());
  EXPECT_TRUE(circuits_equivalent(circ, r.network));
  EXPECT_EQ(r.stats.undecomposable, 1);
  EXPECT_EQ(r.stats.decompositions, 0);
}

TEST(Synthesis, QbfEngineBalancedTreesAreShallower) {
  // With QDB partitions the resulting gate tree of a wide OR chain should
  // be no deeper than the input's linear chain.
  aig::Aig circ;
  std::vector<aig::Lit> xs;
  for (int i = 0; i < 12; ++i) xs.push_back(circ.add_input());
  aig::Lit chain = aig::kLitFalse;
  for (aig::Lit l : xs) chain = circ.lor(chain, l);  // depth ~12
  circ.add_output(chain, "or12");

  SynthesisOptions o;
  o.engine = Engine::kQbfCombined;
  o.per_node.optimum.call_timeout_s = 5.0;
  const SynthesisResult r = resynthesize(circ, o);
  EXPECT_TRUE(circuits_equivalent(circ, r.network));
  EXPECT_LT(r.stats.depth_after, r.stats.depth_before);
}

class SynthesisRandom : public ::testing::TestWithParam<int> {};

TEST_P(SynthesisRandom, RandomConesStayEquivalent) {
  Rng rng(GetParam() * 3571 + 77);
  for (int iter = 0; iter < 6; ++iter) {
    aig::Aig circ;
    std::vector<aig::Lit> pool;
    const int n = rng.next_int(3, 7);
    for (int i = 0; i < n; ++i) pool.push_back(circ.add_input());
    for (int g = 0; g < rng.next_int(5, 25); ++g) {
      const aig::Lit f0 =
          pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
      const aig::Lit f1 =
          pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
      pool.push_back(circ.land(f0, f1));
    }
    for (int o = 0; o < 3; ++o) {
      circ.add_output(pool[pool.size() - 1 - o]);
    }
    const SynthesisResult r = resynthesize(circ, fast_opts());
    EXPECT_TRUE(circuits_equivalent(circ, r.network))
        << "seed=" << GetParam() << " iter=" << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisRandom, ::testing::Range(0, 6));

/// True iff some node of `tree`, or of a tree it shares, is a gate.
bool has_gate(const DecTree& tree) {
  for (const DecTreeNode& node : tree.nodes) {
    if (node.kind == DecTreeNode::Kind::kGate) return true;
    if (node.kind == DecTreeNode::Kind::kShared && has_gate(*node.shared)) {
      return true;
    }
  }
  return false;
}

// The recursion searches every op and extracts only the one it keeps; the
// kept op must be the one an eager run (every op searched, extracted and
// verified) ranks first by (eq. (8) kSum cost, op order).
TEST(SynthesisOpChoice, RootOpIsTheEagerArgmin) {
  int gates = 0, leaves = 0;
  for (const Engine engine : {Engine::kMg, Engine::kQbfCombined}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      Rng rng(seed);
      const int n = rng.next_int(3, 8);
      // Every third cone is a random table: mostly undecomposable.
      const int ands = rng.next_int(n, 4 * n);
      const Cone cone =
          reduce_cone(seed % 3 == 0 ? testutil::random_tt_cone(n, rng)
                                    : testutil::random_cone(n, ands, seed));
      if (cone.n() < 3) continue;
      SynthesisOptions o;
      o.engine = engine;
      o.pick_best_op = true;
      const std::shared_ptr<const DecTree> tree = decompose_to_tree(cone, o);
      const DecTreeNode& root = tree->nodes[tree->root];

      bool have = false;
      GateOp best_op = GateOp::kOr;
      int best_cost = 0;
      for (const GateOp op : o.ops) {
        DecomposeOptions d = o.per_node;
        d.engine = engine;
        d.op = op;
        const DecomposeResult r = BiDecomposer(d).decompose(cone);
        if (r.status != DecomposeStatus::kDecomposed) continue;
        ASSERT_TRUE(r.verified);
        const int cost = metric_cost(r.metrics, MetricKind::kSum);
        if (!have || cost < best_cost) {
          have = true;
          best_op = op;
          best_cost = cost;
        }
      }
      if (!have) {
        EXPECT_EQ(root.kind, DecTreeNode::Kind::kCone) << "seed " << seed;
        ++leaves;
        continue;
      }
      ASSERT_EQ(root.kind, DecTreeNode::Kind::kGate) << "seed " << seed;
      EXPECT_EQ(root.op, best_op) << "seed " << seed;
      EXPECT_TRUE(tree_equivalent(cone, *tree)) << "seed " << seed;
      ++gates;
    }
  }
  EXPECT_GT(gates, 0);
  EXPECT_GT(leaves, 0);
}

// Faults lose answers, never corrupt them: when every verification fails,
// no op survives extraction, every node is a leaf, and the tree still
// computes the cone.
TEST(SynthesisOpChoice, FailedVerificationsLeaveOnlyLeaves) {
  const std::optional<FaultPlan> plan = FaultPlan::parse("1:1.0:v");
  ASSERT_TRUE(plan.has_value());
  int decomposable = 0;
  for (const bool pick_best : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      Rng rng(seed);
      const int n = rng.next_int(3, 8);
      const Cone cone = testutil::random_cone(n, rng.next_int(n, 4 * n), seed);
      SynthesisOptions o = fast_opts();
      o.pick_best_op = pick_best;
      if (has_gate(*decompose_to_tree(cone, o))) ++decomposable;
      FaultStream faults(*plan, seed);
      o.per_node.faults = &faults;
      SynthesisStats st;
      const std::shared_ptr<const DecTree> tree =
          decompose_to_tree(cone, o, &st);
      EXPECT_FALSE(has_gate(*tree)) << "seed " << seed;
      EXPECT_EQ(st.decompositions, 0) << "seed " << seed;
      EXPECT_TRUE(tree_equivalent(cone, *tree)) << "seed " << seed;
    }
  }
  EXPECT_GT(decomposable, 0);  // without faults, some cones split
}

TEST(ConeDepth, CountsAndLevels) {
  aig::Aig a;
  const aig::Lit x = a.add_input();
  const aig::Lit y = a.add_input();
  const aig::Lit z = a.add_input();
  EXPECT_EQ(cone_depth(a, x), 0);
  const aig::Lit g1 = a.land(x, y);
  const aig::Lit g2 = a.land(g1, z);
  EXPECT_EQ(cone_depth(a, g1), 1);
  EXPECT_EQ(cone_depth(a, g2), 2);
  EXPECT_EQ(cone_depth(a, aig::kLitTrue), 0);
}

TEST(ConeDepth, ConeWalkEqualsFullLevelSweep) {
  // cone_depth visits only the cone of its root; node_levels sweeps every
  // node once. Both must agree on every node of random DAGs.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const aig::Aig a = benchgen::random_dag(8, 60 + 10 * static_cast<int>(seed),
                                            4, seed);
    const std::vector<int> level = node_levels(a);
    ASSERT_EQ(level.size(), a.num_nodes());
    for (std::uint32_t n = 0; n < a.num_nodes(); ++n) {
      EXPECT_EQ(cone_depth(a, aig::mk_lit(n, (n & 1U) != 0)), level[n])
          << "seed=" << seed << " node=" << n;
    }
  }
}

TEST(ConeDepth, ResynthPerPoDepthsMatchConeDepth) {
  // The circuit drivers read per-PO depths from one level sweep of the
  // input and of the output network.
  const aig::Aig circ = benchgen::merge(
      {benchgen::ripple_adder(3), benchgen::comparator(3),
       benchgen::random_dag(6, 40, 3, 0x5eed)});
  const CircuitResynthResult r =
      run_circuit_resynth(circ, "depth", fast_opts(), 120.0, {2});
  ASSERT_EQ(r.pos.size(), circ.num_outputs());
  int before = 0, after = 0;
  for (std::uint32_t po = 0; po < circ.num_outputs(); ++po) {
    EXPECT_EQ(r.pos[po].depth_before, cone_depth(circ, circ.output(po)))
        << "po " << po;
    EXPECT_EQ(r.pos[po].depth_after,
              cone_depth(r.network, r.network.output(po)))
        << "po " << po;
    before = std::max(before, r.pos[po].depth_before);
    after = std::max(after, r.pos[po].depth_after);
  }
  EXPECT_EQ(r.stats.depth_before, before);
  EXPECT_EQ(r.stats.depth_after, after);
  const SynthesisResult serial = resynthesize(circ, fast_opts());
  EXPECT_EQ(serial.stats.depth_before, before);
}

}  // namespace
}  // namespace step::core
