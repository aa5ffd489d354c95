#include "core/synthesis.h"

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "benchgen/generators.h"
#include "cnf/cnf.h"
#include "core/circuit_driver.h"
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
