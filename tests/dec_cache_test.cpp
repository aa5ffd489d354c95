// Direct unit tests of the decomposition-tree store: DecTree emission,
// NPN-rewired cache hits (every variant of a stored function must replay
// to the variant's own truth table), exact-table keys for cones of 7..16
// inputs, no caching above 16 inputs, and the stats counters.

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "benchgen/generators.h"
#include "core/circuit_driver.h"
#include "test_util.h"

namespace step::core {
namespace {

Cone cone_of(const aig::Aig& circ, std::uint32_t po) {
  return extract_po_cone(circ, po);
}

SynthesisOptions mg_opts(DecCache* cache) {
  SynthesisOptions o;
  o.engine = Engine::kMg;
  o.pick_best_op = true;
  o.cache = cache;
  return o;
}

TruthTable cone_tt(const Cone& c) {
  std::vector<std::uint32_t> support(c.n());
  for (int i = 0; i < c.n(); ++i) support[i] = i;
  return aig::truth_table(c.aig, c.root, support);
}

TruthTable tree_tt(const DecTree& t, int n) {
  aig::Aig scratch;
  std::vector<aig::Lit> inputs(n);
  for (int i = 0; i < n; ++i) inputs[i] = scratch.add_input();
  const aig::Lit root = emit_tree(t, scratch, inputs);
  Cone c;
  c.aig = std::move(scratch);
  c.root = root;
  return cone_tt(c);
}

TEST(DecTree, EmitReplaysLeafKinds) {
  DecTree t;
  t.n = 2;
  DecTreeNode lit_a;
  lit_a.kind = DecTreeNode::Kind::kLiteral;
  lit_a.input = 0;
  DecTreeNode lit_b;
  lit_b.kind = DecTreeNode::Kind::kLiteral;
  lit_b.input = 1;
  lit_b.negated = true;
  DecTreeNode gate;
  gate.kind = DecTreeNode::Kind::kGate;
  gate.op = GateOp::kAnd;
  gate.child0 = t.add(std::move(lit_a));
  gate.child1 = t.add(std::move(lit_b));
  t.root = t.add(std::move(gate));

  // f(a, b) = a & !b: rows 0..3 -> 0, 1, 0, 0.
  EXPECT_EQ(tree_tt(t, 2), TruthTable{0x2ULL});
  const DecTreeStats s = t.stats();
  EXPECT_EQ(s.gates, 1);
  EXPECT_EQ(s.literal_leaves, 2);
  EXPECT_EQ(s.depth, 1);
}

TEST(DecCache, NpnVariantsAreServedByOneStoredTree) {
  // Store a tree for one function, then query rewired variants: input
  // permutations, input negations, output negation. Every hit must
  // replay to the variant's own truth table.
  DecCache cache;
  SynthesisOptions opts = mg_opts(&cache);

  // f = (a & b) | c — decomposable, support 3.
  aig::Aig circ;
  const aig::Lit a = circ.add_input("a");
  const aig::Lit b = circ.add_input("b");
  const aig::Lit c = circ.add_input("c");
  circ.add_output(circ.lor(circ.land(a, b), c), "f");
  const Cone base = cone_of(circ, 0);
  (void)decompose_to_tree(base, opts);
  ASSERT_EQ(cache.stats().insertions, 1u);

  // Variants: permuted inputs, complemented inputs, complemented output.
  aig::Aig vc;
  const aig::Lit x = vc.add_input("x");
  const aig::Lit y = vc.add_input("y");
  const aig::Lit z = vc.add_input("z");
  vc.add_output(vc.lor(vc.land(z, y), x), "perm");          // c<->a swap
  vc.add_output(vc.lor(vc.land(aig::lnot(x), y), z), "neg"); // !a
  vc.add_output(aig::lnot(vc.lor(vc.land(x, y), z)), "out"); // !f
  for (std::uint32_t po = 0; po < 3; ++po) {
    const Cone variant = cone_of(vc, po);
    auto tree = decompose_to_tree(variant, opts);
    EXPECT_EQ(tree_tt(*tree, variant.n()), cone_tt(variant))
        << vc.output_name(po);
  }
  const DecCacheStats s = cache.stats();
  EXPECT_EQ(s.npn_hits, 3u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(DecCache, WideConesHitThroughTheExactTableKey) {
  // Support 8 > kNpnMaxSupport: the key is the cone's own truth table, so
  // an identical cone hits with the identity rewiring.
  DecCache cache;
  SynthesisOptions opts = mg_opts(&cache);

  const aig::Aig p1 = benchgen::parity_tree(8);
  const aig::Aig p2 = benchgen::parity_tree(8);
  const Cone c1 = cone_of(p1, 0);
  auto t1 = decompose_to_tree(c1, opts);
  EXPECT_GT(cache.stats().insertions, 0u);

  const Cone c2 = cone_of(p2, 0);
  const std::optional<DecCacheHit> hit = cache.lookup(c2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->map.var, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(hit->map.neg, 0u);
  EXPECT_FALSE(hit->map.output_neg);

  auto t2 = decompose_to_tree(c2, opts);
  EXPECT_GE(cache.stats().npn_hits, 1u);
  EXPECT_TRUE(tree_equivalent(c2, *t2));
}

TEST(DecCache, PermutedWideConesMissAndStillVerify) {
  // Above kNpnMaxSupport the key is not permutation-invariant: an
  // input-permuted variant of a stored 8-input cone misses, is decomposed
  // afresh, and its tree replays to the permuted function.
  DecCache cache;
  SynthesisOptions opts = mg_opts(&cache);

  // 8 inputs with pairwise-distinct roles, so no permutation below is a
  // symmetry of f = x0 | (x1 & x2 & x3) | (x4 & !x5 & x6 & x7) | (x2 & !x7).
  auto build = [](const std::vector<int>& order) {
    aig::Aig a;
    std::vector<aig::Lit> x(8);
    for (int i = 0; i < 8; ++i) x[i] = a.add_input();
    auto v = [&](int pos) { return x[order[pos]]; };
    const aig::Lit t1 = a.land(a.land(v(1), v(2)), v(3));
    const aig::Lit t2 =
        a.land(a.land(v(4), aig::lnot(v(5))), a.land(v(6), v(7)));
    const aig::Lit t3 = a.land(v(2), aig::lnot(v(7)));
    a.add_output(a.lor(a.lor(v(0), t1), a.lor(t2, t3)), "f");
    return a;
  };

  const std::vector<int> identity{0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<int> shuffled{5, 3, 7, 0, 2, 6, 1, 4};
  const aig::Aig base_circ = build(identity);
  const aig::Aig perm_circ = build(shuffled);

  const Cone base = cone_of(base_circ, 0);
  auto t1 = decompose_to_tree(base, opts);
  ASSERT_GT(cache.stats().insertions, 0u);
  EXPECT_TRUE(tree_equivalent(base, *t1));

  const Cone permuted = cone_of(perm_circ, 0);
  ASSERT_EQ(permuted.n(), 8);
  EXPECT_FALSE(cache.lookup(permuted).has_value());
  auto t2 = decompose_to_tree(permuted, opts);
  EXPECT_TRUE(tree_equivalent(permuted, *t2));
}

TEST(DecCache, ConesAboveSixteenInputsAreNotCached) {
  // 17 > aig::kTtMaxSupport: lookups count as misses and insert stores
  // nothing, so the same cone misses again.
  DecCache cache;
  const aig::Aig circ = benchgen::parity_tree(17);
  const Cone cone = cone_of(circ, 0);
  ASSERT_EQ(cone.n(), 17);

  DecCacheKey key;
  EXPECT_FALSE(cache.lookup(cone, &key).has_value());
  DecTree leaf;
  leaf.n = cone.n();
  DecTreeNode node;
  node.kind = DecTreeNode::Kind::kCone;
  node.cone_aig = cone.aig;
  node.cone_root = cone.root;
  for (int i = 0; i < cone.n(); ++i) node.inputs.push_back(i);
  leaf.root = leaf.add(std::move(node));
  cache.insert(cone, key, std::move(leaf));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(cone).has_value());

  const DecCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 0u);
}

TEST(DecCache, LookupInsertRoundTripPreservesFunctions) {
  // Randomized: decompose random cones with a shared cache and verify
  // every produced tree against its cone — hits included. Supports up to
  // 10 exercise both the NPN key and the raw-table key.
  DecCache cache;
  SynthesisOptions opts = mg_opts(&cache);
  Rng rng(0xdecca);
  for (int iter = 0; iter < 40; ++iter) {
    const int n = rng.next_int(2, 10);
    const Cone cone =
        testutil::random_cone(n, rng.next_int(3, 18), rng.next());
    auto tree = decompose_to_tree(cone, opts);
    EXPECT_TRUE(tree_equivalent(cone, *tree)) << "iter " << iter;
  }
  const DecCacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, s.hits() + s.misses);
  EXPECT_GT(s.hits(), 0u);  // 40 small random cones always repeat classes
}

TEST(DecCache, ClearResetsStateAndStats) {
  DecCache cache;
  SynthesisOptions opts = mg_opts(&cache);
  const aig::Aig circ = benchgen::random_sop(2, 2, 1, 3, 3, 0xc1ea);
  for (std::uint32_t po = 0; po < circ.num_outputs(); ++po) {
    (void)decompose_to_tree(cone_of(circ, po), opts);
  }
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups, 0u);
}

}  // namespace
}  // namespace step::core
