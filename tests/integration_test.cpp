// End-to-end pipelines across module boundaries: file formats -> network
// -> AIG -> decomposition -> extraction -> verification -> file formats.

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "benchgen/generators.h"
#include "core/circuit_driver.h"
#include "core/partition_check.h"
#include "core/synthesis.h"
#include "io/aiger.h"
#include "io/blif_reader.h"
#include "io/blif_writer.h"
#include "io/comb.h"
#include "io/pla_reader.h"
#include "test_util.h"

namespace step {
namespace {

TEST(Integration, BlifToDecomposedBlifRoundTrip) {
  // Generate -> BLIF text -> parse -> decompose every PO -> write the
  // extracted functions -> parse again -> exhaustive equivalence with the
  // recombination gate.
  const aig::Aig circ = benchgen::random_sop(3, 3, 2, 4, 4, 0xabcd);
  const io::Network net = io::parse_blif(io::write_blif(circ, "gen"));
  const aig::Aig back = net.to_aig();

  core::DecomposeOptions opts;
  opts.engine = core::Engine::kQbfCombined;
  const core::BiDecomposer dec(opts);

  int decomposed = 0;
  for (std::uint32_t po = 0; po < back.num_outputs(); ++po) {
    const core::Cone cone = core::extract_po_cone(back, po);
    if (cone.n() < 2) continue;
    const core::DecomposeResult r = dec.decompose(cone);
    if (r.status != core::DecomposeStatus::kDecomposed) continue;
    ++decomposed;
    ASSERT_TRUE(r.functions.has_value());

    const std::string text = io::write_blif(r.functions->aig, "dec");
    const aig::Aig reread = io::parse_blif(text).to_aig();
    // Output 2 of the extracted AIG is the recombination.
    EXPECT_TRUE(testutil::equivalent_by_simulation(
        cone.aig, cone.root, reread, reread.output(2), cone.n()));
  }
  EXPECT_GT(decomposed, 0);
}

TEST(Integration, PlaToProvenOptimalPartition) {
  // A PLA whose cubes split over {a0,a1,b0,b1} with c shared by design.
  const io::Network net = io::parse_pla(
      ".i 5\n.o 1\n.ilb a0 a1 b0 b1 c\n.ob f\n"
      "11--1 1\n--11- 1\n1---0 1\n.e\n");
  const aig::Aig circ = net.to_aig();
  const core::Cone cone = core::extract_po_cone(circ, 0);
  ASSERT_EQ(cone.n(), 5);

  core::DecomposeOptions opts;
  opts.engine = core::Engine::kQbfDisjoint;
  const core::DecomposeResult r = core::BiDecomposer(opts).decompose(cone);
  ASSERT_EQ(r.status, core::DecomposeStatus::kDecomposed);
  EXPECT_TRUE(r.proven_optimal);
  EXPECT_TRUE(r.verified);
  // Brute force agrees on the optimum shared-set size.
  const core::BruteForceResult oracle = core::brute_force_optimum(
      cone, core::GateOp::kOr, core::MetricKind::kDisjointness);
  ASSERT_TRUE(oracle.decomposable);
  EXPECT_EQ(r.metrics.shared, oracle.best_cost);
}

TEST(Integration, AigerThroughResynthesisAndBack) {
  const aig::Aig circ = benchgen::merge(
      {benchgen::parity_tree(6), benchgen::mux_tree(2)});
  const aig::Aig loaded = io::parse_aiger(io::write_aiger(circ));

  core::SynthesisOptions sopts;
  sopts.engine = core::Engine::kMg;
  const core::SynthesisResult synth = core::resynthesize(loaded, sopts);

  const aig::Aig final_circ = io::parse_aiger(io::write_aiger(synth.network));
  ASSERT_EQ(final_circ.num_outputs(), circ.num_outputs());
  std::vector<std::uint64_t> stim(circ.num_inputs());
  std::uint64_t x = 0x853c49e6748fea9bULL;
  for (auto& w : stim) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  EXPECT_EQ(aig::simulate(circ, stim), aig::simulate(final_circ, stim));
}

TEST(Integration, SequentialBlifCombThenDecompose) {
  // A 3-bit counter as a sequential BLIF; comb-cut it and XOR-decompose
  // the next-state functions (classic s-series treatment).
  const char* blif =
      ".model cnt3\n.inputs en\n.outputs q0o\n"
      ".latch n0 q0 0\n.latch n1 q1 0\n.latch n2 q2 0\n"
      ".names en q0 n0\n01 1\n10 1\n"
      ".names en q0 c0\n11 1\n"
      ".names c0 q1 n1\n01 1\n10 1\n"
      ".names c0 q1 c1\n11 1\n"
      ".names c1 q2 n2\n01 1\n10 1\n"
      ".names q0 q0o\n1 1\n.end\n";
  const io::Network net = io::parse_blif(blif);
  ASSERT_FALSE(net.is_combinational());
  const aig::Aig circ = io::to_combinational(net);
  EXPECT_EQ(circ.num_inputs(), 4u);   // en + 3 state bits
  EXPECT_EQ(circ.num_outputs(), 4u);  // q0o + 3 next-state

  core::DecomposeOptions opts;
  opts.op = core::GateOp::kXor;
  opts.engine = core::Engine::kQbfBalanced;
  const core::CircuitRunResult run =
      core::run_circuit(circ, "cnt3", opts, 30.0);
  // Every next-state bit n_k = carry_{k-1} XOR q_k is XOR-decomposable.
  EXPECT_GE(run.num_decomposed(), 2);
  for (const core::PoOutcome& po : run.pos) {
    if (po.status == core::DecomposeStatus::kDecomposed) {
      EXPECT_TRUE(po.proven_optimal);
    }
  }
}

TEST(Integration, EmbeddedC17AgainstBruteForceAllOps) {
  const io::Network net = io::parse_blif(benchgen::embedded_c17_blif());
  const aig::Aig circ = net.to_aig();
  for (std::uint32_t po = 0; po < circ.num_outputs(); ++po) {
    const core::Cone cone = core::extract_po_cone(circ, po);
    for (core::GateOp op :
         {core::GateOp::kOr, core::GateOp::kAnd, core::GateOp::kXor}) {
      core::DecomposeOptions opts;
      opts.op = op;
      opts.engine = core::Engine::kQbfDisjoint;
      const core::DecomposeResult r = core::BiDecomposer(opts).decompose(cone);
      const core::BruteForceResult oracle = core::brute_force_optimum(
          cone, op, core::MetricKind::kDisjointness);
      ASSERT_EQ(r.status == core::DecomposeStatus::kDecomposed,
                oracle.decomposable)
          << "po " << po << " op " << to_string(op);
      if (oracle.decomposable) {
        EXPECT_EQ(r.metrics.shared, oracle.best_cost);
        EXPECT_TRUE(r.verified);
      }
    }
  }
}

TEST(Integration, AblationConfigurationsAgreeOnOptima) {
  // Symmetry breaking / clause fast path / incremental solving are
  // engineering, not semantics: all eight on/off combinations find the
  // same optimum.
  Rng rng(24680);
  for (int iter = 0; iter < 4; ++iter) {
    const core::Cone cone =
        testutil::random_cone(rng.next_int(3, 6), rng.next_int(6, 20), rng.next());
    const core::RelaxationMatrix m =
        core::build_relaxation_matrix(cone, core::GateOp::kOr);

    int reference_cost = -2;
    for (int mask = 0; mask < 8; ++mask) {
      core::QbfFinderOptions f;
      f.symmetry_breaking = (mask & 1) != 0;
      f.cegar.clause_fast_path = (mask & 2) != 0;
      f.incremental = (mask & 4) != 0;
      core::QbfPartitionFinder finder(m, f);
      core::OptimumSearch search(finder, core::QbfModel::kQD);
      const core::OptimumResult r = search.run(std::nullopt);
      const int cost =
          r.outcome == core::OptimumResult::Outcome::kFound ? r.best_cost : -1;
      if (reference_cost == -2) {
        reference_cost = cost;
      } else {
        EXPECT_EQ(cost, reference_cost) << "mask " << mask;
      }
    }
  }
}

}  // namespace
}  // namespace step
