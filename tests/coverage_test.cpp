// Additional invariant coverage: interpolant variable containment,
// synthesis option paths, driver accounting.

#include <gtest/gtest.h>

#include "aig/support.h"
#include "benchgen/generators.h"
#include "core/circuit_driver.h"
#include "core/extract.h"
#include "core/partition_check.h"
#include "core/synthesis.h"
#include "itp/interpolant.h"
#include "test_util.h"

namespace step {
namespace {

TEST(ItpContainment, InterpolantUsesOnlySharedVariables) {
  // Structural support of fA/fB must respect the partition. At these
  // sizes (at most aig::kTtMaxSupport inputs) OR extraction reads the
  // truth table; the next test checks McMillan's containment property on
  // the interpolation queries of wider cones.
  Rng rng(13579);
  int checked = 0;
  for (int iter = 0; iter < 80 && checked < 12; ++iter) {
    const int n = rng.next_int(3, 7);
    const core::Cone cone =
        testutil::random_cone(n, rng.next_int(5, 24), rng.next());
    const core::Partition p = testutil::random_partition(n, rng);
    if (!p.non_trivial()) continue;
    if (!core::check_partition_exhaustive(cone, core::GateOp::kOr, p)) continue;
    ++checked;
    const core::ExtractedFunctions fns =
        core::extract_functions(cone, core::GateOp::kOr, p);
    for (std::uint32_t i : aig::structural_support(fns.aig, fns.fa)) {
      EXPECT_NE(p.cls[i], core::VarClass::kB);
    }
    for (std::uint32_t i : aig::structural_support(fns.aig, fns.fb)) {
      EXPECT_NE(p.cls[i], core::VarClass::kA);
    }
  }
  EXPECT_GT(checked, 3);
}

TEST(ItpContainment, InterpolantUsesOnlySharedVariablesAboveTheTableTier) {
  // Cones of at most aig::kTtMaxSupport inputs may take fA/fB from their
  // truth table; above it they come from the interpolation queries. The
  // cases above, padded with unused inputs to 17-20, plus OR/AND cones
  // that use most of their inputs.
  Rng rng(97531);
  auto check = [](const core::Cone& cone, core::GateOp op,
                  const core::Partition& p) {
    ASSERT_GT(cone.n(), aig::kTtMaxSupport);
    const core::ExtractedFunctions fns = core::extract_functions(cone, op, p);
    for (std::uint32_t i : aig::structural_support(fns.aig, fns.fa)) {
      EXPECT_NE(p.cls[i], core::VarClass::kB);
    }
    for (std::uint32_t i : aig::structural_support(fns.aig, fns.fb)) {
      EXPECT_NE(p.cls[i], core::VarClass::kA);
    }
    EXPECT_TRUE(core::miter_equivalent_on_care(cone.aig, cone.root, fns.aig,
                                               fns.combined, nullptr));
  };
  int checked = 0;
  for (int iter = 0; iter < 80 && checked < 12; ++iter) {
    const int n = rng.next_int(3, 7);
    core::Cone cone =
        testutil::random_cone(n, rng.next_int(5, 24), rng.next());
    core::Partition p = testutil::random_partition(n, rng);
    if (!p.non_trivial()) continue;
    if (!core::check_partition_exhaustive(cone, core::GateOp::kOr, p)) continue;
    ++checked;
    testutil::pad_inputs(
        cone, p, rng.next_int(aig::kTtMaxSupport + 1, aig::kTtMaxSupport + 4),
        rng);
    check(cone, core::GateOp::kOr, p);
  }
  EXPECT_GT(checked, 3);
  for (int iter = 0; iter < 6; ++iter) {
    const core::GateOp op = iter % 2 == 0 ? core::GateOp::kOr : core::GateOp::kAnd;
    const testutil::DecomposableCone d = testutil::decomposable_cone(
        rng.next_int(aig::kTtMaxSupport + 1, aig::kTtMaxSupport + 4), op, rng);
    check(d.cone, op, d.partition);
  }
}

TEST(SynthesisOptions, FirstOpModeDiffersFromBestOpOnlyInStructure) {
  const aig::Aig circ = benchgen::random_sop(3, 3, 2, 4, 4, 0x777);
  core::SynthesisOptions first;
  first.engine = core::Engine::kMg;
  first.pick_best_op = false;
  core::SynthesisOptions best = first;
  best.pick_best_op = true;
  const core::SynthesisResult r1 = core::resynthesize(circ, first);
  const core::SynthesisResult r2 = core::resynthesize(circ, best);
  // Both preserve the function (checked elsewhere); both decompose.
  EXPECT_GT(r1.stats.decompositions, 0);
  EXPECT_GT(r2.stats.decompositions, 0);
}

TEST(SynthesisOptions, MaxDepthZeroCopiesEverything) {
  const aig::Aig circ = benchgen::parity_tree(6);
  core::SynthesisOptions o;
  o.engine = core::Engine::kMg;
  o.max_depth = 0;
  const core::SynthesisResult r = core::resynthesize(circ, o);
  EXPECT_EQ(r.stats.decompositions, 0);
  EXPECT_EQ(r.stats.leaves, 1);
  EXPECT_EQ(r.stats.ands_before, r.stats.ands_after);
}

TEST(SynthesisOptions, LeafSupportThresholdStopsEarly) {
  const aig::Aig circ = benchgen::parity_tree(8);
  core::SynthesisOptions fine;
  fine.engine = core::Engine::kMg;
  fine.leaf_support = 2;
  core::SynthesisOptions coarse = fine;
  coarse.leaf_support = 4;
  const auto r_fine = core::resynthesize(circ, fine);
  const auto r_coarse = core::resynthesize(circ, coarse);
  EXPECT_GT(r_fine.stats.decompositions, r_coarse.stats.decompositions);
}

TEST(DriverAccounting, ProvenOptimalCountsWithinDecomposed) {
  const aig::Aig circ = benchgen::random_sop(4, 4, 2, 6, 4, 0x4242);
  core::DecomposeOptions opts;
  opts.engine = core::Engine::kQbfDisjoint;
  const core::CircuitRunResult r = core::run_circuit(circ, "sop", opts, 60.0);
  EXPECT_LE(r.num_proven_optimal(), r.num_decomposed());
  EXPECT_GT(r.num_proven_optimal(), 0);
  for (const core::PoOutcome& po : r.pos) {
    EXPECT_GE(po.support, 2);
    EXPECT_GE(po.cpu_s, 0.0);
  }
}

TEST(DriverAccounting, LjhOnMultiOutputCircuit) {
  const aig::Aig circ = benchgen::merge(
      {benchgen::random_sop(3, 3, 1, 3, 3, 0x31), benchgen::mux_tree(2)});
  core::DecomposeOptions opts;
  opts.engine = core::Engine::kLjh;
  const core::CircuitRunResult r = core::run_circuit(circ, "m", opts, 60.0);
  EXPECT_GT(r.num_decomposed(), 0);
  // LJH never claims proven optimality.
  EXPECT_EQ(r.num_proven_optimal(), 0);
}

TEST(ExtractLarger, SatOnlyVerificationOnWiderCones) {
  // Beyond exhaustive-comfort sizes, rely on the SAT miter alone.
  Rng rng(86420);
  int checked = 0;
  for (int iter = 0; iter < 40 && checked < 4; ++iter) {
    const aig::Aig circ = benchgen::random_sop(5, 5, 3, 1, 6, rng.next());
    const core::Cone cone = core::extract_po_cone(circ, 0);
    if (cone.n() < 10) continue;
    core::DecomposeOptions opts;
    opts.engine = core::Engine::kQbfCombined;
    const core::DecomposeResult r = core::BiDecomposer(opts).decompose(cone);
    if (r.status != core::DecomposeStatus::kDecomposed) continue;
    ++checked;
    EXPECT_TRUE(r.verified);
    ASSERT_TRUE(r.functions.has_value());
    EXPECT_TRUE(core::verify_decomposition(cone, *r.functions));
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace step
