// Don't-care-aware decomposition tests: SDC window extraction (cut
// choice, simulation + SAT care completion, replacement verification),
// the care-aware validity check against the exhaustive oracle, the
// >=50-cones-per-engine equivalence harness (every DC decomposition must
// reproduce the cone on its care set), monotonicity (a care set never
// loses decompositions), and the driver-level DC-vs-exact A/B on the
// implied_majority showcase circuit.

#include <gtest/gtest.h>

#include "aig/ops.h"
#include "aig/window.h"
#include "benchgen/generators.h"
#include "core/circuit_driver.h"
#include "core/synthesis.h"
#include "test_util.h"

namespace step::core {
namespace {

using testutil::random_care;

// ---------- SDC windows ---------------------------------------------------

TEST(Window, ImpliedMajorityGetsAWindowWithExactCareSet) {
  const aig::Aig circ = benchgen::implied_majority(1);
  const std::optional<aig::Window> win =
      aig::compute_window(circ, circ.output(0), {});
  ASSERT_TRUE(win.has_value());
  EXPECT_TRUE(win->has_sdc());
  EXPECT_GE(win->n(), 2);
  EXPECT_LT(win->care_fraction(), 1.0);
  EXPECT_EQ(win->care_minterms + win->sdc_minterms,
            std::uint64_t{1} << win->n());

  // Cross-check the care set against the brute-force image of the cut:
  // enumerate every primary-input assignment, read the cut pattern, and
  // compare the reachable set with the window's care function.
  const int pis = static_cast<int>(circ.num_inputs());
  ASSERT_LE(pis, 12);
  std::vector<char> reachable(std::size_t{1} << win->n(), 0);
  for (std::size_t x = 0; x < (std::size_t{1} << pis); ++x) {
    std::vector<std::uint64_t> words(pis);
    for (int i = 0; i < pis; ++i) words[i] = ((x >> i) & 1U) ? ~0ULL : 0ULL;
    const std::vector<std::uint64_t> vals = aig::simulate_nodes(circ, words);
    std::size_t pattern = 0;
    for (int j = 0; j < win->n(); ++j) {
      pattern |= (vals[aig::node_of(win->cut[j])] & 1ULL) << j;
    }
    reachable[pattern] = 1;
  }
  std::vector<std::uint32_t> support(win->n());
  for (int j = 0; j < win->n(); ++j) support[j] = j;
  const TruthTable care_tt = aig::truth_table(win->aig, win->care, support);
  std::uint64_t care_count = 0;
  for (std::size_t p = 0; p < reachable.size(); ++p) {
    EXPECT_EQ(aig::tt_bit(care_tt, p), reachable[p] != 0) << "pattern " << p;
    care_count += reachable[p];
  }
  EXPECT_EQ(win->care_minterms, care_count);

  // The window function composed with the cut logic is the original PO.
  EXPECT_TRUE(aig::verify_window_replacement(circ, circ.output(0), *win,
                                             win->aig, win->root));
  // A replacement differing on a care pattern must be rejected.
  aig::Aig broken;
  std::vector<aig::Lit> binputs;
  for (int j = 0; j < win->n(); ++j) binputs.push_back(broken.add_input());
  const aig::Lit wrong =
      aig::lnot(aig::copy_cone(win->aig, win->root, broken, binputs));
  EXPECT_FALSE(aig::verify_window_replacement(circ, circ.output(0), *win,
                                              broken, wrong));
}

/// Conjunction chains over disjoint inputs: every cut is a set of ANDs of
/// pairwise-disjoint input groups, so all cut patterns are producible and
/// no don't-cares exist anywhere. (Parity trees, by contrast, DO have
/// SDCs: the AIG XOR implementation's internal pair (a∧¬b, ¬a∧b) can
/// never be 1 simultaneously.)
aig::Aig and_tree_circuit() {
  aig::Aig a;
  std::vector<aig::Lit> x;
  for (int i = 0; i < 8; ++i) x.push_back(a.add_input());
  a.add_output(a.land_many({x[0], x[1], x[2], x[3]}), "a0");
  a.add_output(a.land_many({x[4], x[5], x[6], x[7]}), "a1");
  a.add_output(a.land_many(x), "all");
  return a;
}

TEST(Window, FullyReachableCutsYieldNoWindow) {
  const aig::Aig circ = and_tree_circuit();
  for (std::uint32_t po = 0; po < circ.num_outputs(); ++po) {
    EXPECT_FALSE(aig::compute_window(circ, circ.output(po), {}).has_value())
        << "po " << po;
  }
}

TEST(Window, DeterministicAcrossCalls) {
  const aig::Aig circ = benchgen::implied_majority(2);
  const auto w1 = aig::compute_window(circ, circ.output(1), {});
  const auto w2 = aig::compute_window(circ, circ.output(1), {});
  ASSERT_EQ(w1.has_value(), w2.has_value());
  if (w1) {
    EXPECT_EQ(w1->cut, w2->cut);
    EXPECT_EQ(w1->care_minterms, w2->care_minterms);
    EXPECT_EQ(w1->depth, w2->depth);
  }
}

// ---------- care-aware validity vs the exhaustive oracle ------------------

TEST(DcPartitionCheck, SatAndExhaustiveOraclesAgreeUnderCare) {
  Rng rng(0xdc0517);
  const GateOp ops[] = {GateOp::kOr, GateOp::kAnd, GateOp::kXor};
  for (int iter = 0; iter < 120; ++iter) {
    const int n = rng.next_int(3, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 20), rng.next());
    const CareSet care = random_care(n, rng);
    const Partition p = testutil::random_partition(n, rng);
    const GateOp op = ops[iter % 3];
    EXPECT_EQ(check_partition(cone, op, p, &care),
              check_partition_exhaustive(cone, op, p, &care))
        << "iter " << iter << " op " << to_string(op) << " partition "
        << p.to_string();
  }
}

TEST(DcPartitionCheck, CareNeverInvalidatesAnExactlyValidPartition) {
  // Shrinking the care set only removes constraints: every exactly valid
  // partition stays valid under any care set (monotonicity).
  Rng rng(0x30100);
  for (int iter = 0; iter < 120; ++iter) {
    const int n = rng.next_int(3, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 20), rng.next());
    const Partition p = testutil::random_partition(n, rng);
    const GateOp op = iter % 2 == 0 ? GateOp::kOr : GateOp::kAnd;
    if (!check_partition_exhaustive(cone, op, p)) continue;
    const CareSet care = random_care(n, rng);
    EXPECT_TRUE(check_partition_exhaustive(cone, op, p, &care)) << iter;
    EXPECT_TRUE(check_partition(cone, op, p, &care)) << iter;
  }
}

// ---------- per-engine DC equivalence harness -----------------------------

class DcEngineEquivalence : public ::testing::TestWithParam<Engine> {};

TEST_P(DcEngineEquivalence, FiftyRandomConesStayEquivalentOnTheirCareSet) {
  const Engine engine = GetParam();
  Rng rng(0xdcec * (static_cast<int>(engine) + 3));
  int decomposed = 0;
  for (int iter = 0; iter < 50; ++iter) {
    const int n = rng.next_int(3, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 22), rng.next());
    const CareSet care = random_care(n, rng, 0.6);
    const GateOp op = iter % 2 == 0 ? GateOp::kOr : GateOp::kAnd;

    DecomposeOptions opts;
    opts.engine = engine;
    opts.op = op;
    opts.extract = true;
    opts.verify = true;
    const DecomposeResult exact = BiDecomposer(opts).decompose(cone);
    const DecomposeResult dc = BiDecomposer(opts).decompose(cone, &care);

    // Monotonicity: don't-cares only ever relax the validity condition.
    if (exact.status == DecomposeStatus::kDecomposed) {
      EXPECT_EQ(dc.status, DecomposeStatus::kDecomposed) << "iter " << iter;
    }
    if (dc.status != DecomposeStatus::kDecomposed) continue;
    ++decomposed;
    ASSERT_TRUE(dc.functions.has_value());
    // decompose() already SAT-verified on care (STEP_CHECK); re-assert
    // through the public miter plus the exhaustive validity oracle.
    EXPECT_TRUE(dc.verified);
    EXPECT_TRUE(cones_equivalent_on_care(
        cone, Cone{dc.functions->aig, dc.functions->combined}, &care))
        << "iter " << iter;
    EXPECT_TRUE(check_partition_exhaustive(cone, op, dc.partition, &care))
        << "iter " << iter;
  }
  EXPECT_GT(decomposed, 10) << "harness degenerated: almost nothing split";
}

INSTANTIATE_TEST_SUITE_P(Engines, DcEngineEquivalence,
                         ::testing::Values(Engine::kMg, Engine::kLjh,
                                           Engine::kQbfDisjoint,
                                           Engine::kQbfCombined));

TEST(DcEquivalence, TrivialCareMatchesExactBitForBit) {
  // DC-off and DC-with-trivial-care must take the identical code path and
  // produce identical partitions.
  Rng rng(0x7117);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = rng.next_int(3, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 20), rng.next());
    CareSet trivial;  // root = constant true
    DecomposeOptions opts;
    opts.engine = Engine::kMg;
    const DecomposeResult a = BiDecomposer(opts).decompose(cone);
    const DecomposeResult b = BiDecomposer(opts).decompose(cone, &trivial);
    EXPECT_EQ(a.status, b.status) << iter;
    EXPECT_EQ(a.partition.cls, b.partition.cls) << iter;
  }
}

// ---------- windowed trees + drivers --------------------------------------

TEST(DcSynthesis, WindowedTreeIsEquivalentOnTheCareSet) {
  const aig::Aig circ = benchgen::implied_majority(2);
  for (std::uint32_t po = 0; po < 2; ++po) {
    const auto win = aig::compute_window(circ, circ.output(po), {});
    ASSERT_TRUE(win.has_value()) << "po " << po;
    const CareSet care = care_of_window(*win);
    const Cone wcone{win->aig, win->root};

    SynthesisOptions opts;
    opts.engine = Engine::kMg;
    opts.pick_best_op = true;
    opts.use_dont_cares = true;
    auto tree = decompose_to_tree(wcone, opts, nullptr, nullptr, &care);
    EXPECT_TRUE(tree_equivalent(wcone, *tree, &care)) << "po " << po;

    // Replaying the tree gives a replacement that must splice soundly.
    aig::Aig repl;
    std::vector<aig::Lit> inputs;
    for (int i = 0; i < wcone.n(); ++i) inputs.push_back(repl.add_input());
    const aig::Lit root = emit_tree(*tree, repl, inputs);
    EXPECT_TRUE(aig::verify_window_replacement(circ, circ.output(po), *win,
                                               repl, root));
  }
}

TEST(DcDriver, DcModeDecomposesStrictlyMoreOnImpliedMajority) {
  const aig::Aig circ = benchgen::implied_majority(2);
  DecomposeOptions opts;
  opts.engine = Engine::kMg;
  opts.op = GateOp::kOr;
  opts.po_budget_s = 30.0;
  const CircuitRunResult exact = run_circuit(circ, "dcw", opts, 300.0, {1});

  opts.use_dont_cares = true;
  const CircuitRunResult dc = run_circuit(circ, "dcw", opts, 300.0, {1});

  // The MAJ POs are undecomposable as PI functions but split on their
  // window's care set: DC mode must decompose strictly more, with every
  // windowed result SAT-verified against the circuit before counting.
  EXPECT_GE(dc.num_decomposed(), exact.num_decomposed());
  EXPECT_GT(dc.num_decomposed(), exact.num_decomposed());
  EXPECT_GE(dc.num_window_decomposed(), 2);
  EXPECT_GT(dc.total_window_sdc_minterms(), 0u);

  // Parallel DC run reports the sequential outcomes.
  const CircuitRunResult par = run_circuit(circ, "dcw", opts, 300.0, {4});
  ASSERT_EQ(par.pos.size(), dc.pos.size());
  for (std::size_t i = 0; i < dc.pos.size(); ++i) {
    EXPECT_EQ(par.pos[i].status, dc.pos[i].status) << i;
    EXPECT_EQ(par.pos[i].used_window, dc.pos[i].used_window) << i;
  }
}

TEST(DcDriver, NoWindowsMeansDcModeMatchesExactExactly) {
  // A circuit with no don't-cares anywhere: DC mode must fall back to the
  // exact path on every PO and reproduce its outcomes bit for bit.
  const aig::Aig circ = and_tree_circuit();
  DecomposeOptions opts;
  opts.engine = Engine::kMg;
  opts.op = GateOp::kAnd;
  opts.po_budget_s = 30.0;
  const CircuitRunResult exact = run_circuit(circ, "par", opts, 300.0, {1});
  opts.use_dont_cares = true;
  const CircuitRunResult dc = run_circuit(circ, "par", opts, 300.0, {1});
  ASSERT_EQ(exact.pos.size(), dc.pos.size());
  for (std::size_t i = 0; i < exact.pos.size(); ++i) {
    EXPECT_EQ(exact.pos[i].status, dc.pos[i].status);
    EXPECT_EQ(exact.pos[i].metrics.shared, dc.pos[i].metrics.shared);
    EXPECT_FALSE(dc.pos[i].used_window);
  }
}

TEST(DcResynth, OdcRecursionKeepsWholeNetworkEquivalent) {
  // The resynthesized netlist must stay *exactly* equivalent even though
  // inner nodes were rebuilt under sibling-ODC care sets (the root care
  // is full, and the sequential child assignment keeps siblings
  // compatible).
  const aig::Aig circ = benchgen::merge(
      {benchgen::implied_majority(2), benchgen::ripple_adder(3),
       benchgen::random_sop(3, 3, 1, 4, 3, 0xdc)});
  SynthesisOptions opts;
  opts.engine = Engine::kMg;
  opts.pick_best_op = true;
  opts.use_dont_cares = true;
  const CircuitResynthResult r =
      run_circuit_resynth(circ, "dc", opts, 300.0, {2}, /*verify=*/true);
  EXPECT_TRUE(r.all_verified);
  for (const PoResynthOutcome& po : r.pos) {
    EXPECT_TRUE(po.verified) << "po " << po.po_index;
  }

  opts.use_dont_cares = false;
  const CircuitResynthResult exact =
      run_circuit_resynth(circ, "dc", opts, 300.0, {2}, /*verify=*/true);
  EXPECT_TRUE(exact.all_verified);
  // DC-off behaviour is the seed behaviour: identical netlists.
  ASSERT_EQ(exact.network.num_outputs(), circ.num_outputs());
}

}  // namespace
}  // namespace step::core
