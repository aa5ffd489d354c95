// Algebraic properties of bi-decomposition the implementation must obey:
// AND/OR duality, XA/XB symmetry, metric invariances, validity monotonicity
// under op-specific transformations — plus the end-to-end property of the
// recursive subsystem: resynthesized netlists are SAT-equivalent to their
// source circuit for every engine. These catch formulation bugs that
// single-point tests cannot.

#include <gtest/gtest.h>

#include <optional>

#include "aig/ops.h"
#include "benchgen/generators.h"
#include "benchgen/suite.h"
#include "cnf/tseitin.h"
#include "core/circuit_driver.h"
#include "core/mg.h"
#include "core/partition_check.h"
#include "sat/solver.h"
#include "test_util.h"

namespace step::core {
namespace {

Partition swapped_ab(const Partition& p) {
  Partition q = p;
  for (VarClass& c : q.cls) {
    if (c == VarClass::kA) {
      c = VarClass::kB;
    } else if (c == VarClass::kB) {
      c = VarClass::kA;
    }
  }
  return q;
}

Cone complemented(const Cone& c) {
  Cone out;
  out.aig = c.aig;
  out.root = aig::lnot(c.root);
  return out;
}

class PropertySeeds : public ::testing::TestWithParam<int> {};

TEST_P(PropertySeeds, AndOrDuality) {
  // f has an AND decomposition under p  <=>  ¬f has an OR decomposition
  // under p (Section IV.B).
  Rng rng(GetParam() * 131 + 7);
  for (int iter = 0; iter < 25; ++iter) {
    const int n = rng.next_int(2, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(3, 20), rng.next());
    const Partition p = testutil::random_partition(n, rng);
    EXPECT_EQ(check_partition_exhaustive(cone, GateOp::kAnd, p),
              check_partition_exhaustive(complemented(cone), GateOp::kOr, p));
  }
}

TEST_P(PropertySeeds, DcValidityIsMonotoneInTheCareSet) {
  // Removing minterms from the care set only removes constraints: if a
  // partition is valid on care set C, it stays valid on any C' ⊆ C (and
  // in particular the exact check implies every DC check). Dually, a
  // DC-invalid partition is invalid on every superset care set.
  Rng rng(GetParam() * 517 + 11);
  for (int iter = 0; iter < 20; ++iter) {
    const int n = rng.next_int(3, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(3, 20), rng.next());
    const Partition p = testutil::random_partition(n, rng);
    const GateOp op = iter % 2 == 0 ? GateOp::kOr : GateOp::kAnd;

    // Random care C and a random subset C' of it.
    const std::size_t rows = std::size_t{1} << n;
    std::vector<std::uint64_t> big(aig::tt_words(n), 0), small(big);
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.next_double() < 0.8) {
        big[r >> 6] |= 1ULL << (r & 63);
        if (rng.next_bool()) small[r >> 6] |= 1ULL << (r & 63);
      }
    }
    auto as_care = [&](const std::vector<std::uint64_t>& tt) {
      CareSet c;
      std::vector<aig::Lit> in(n);
      for (int i = 0; i < n; ++i) in[i] = c.aig.add_input();
      c.root = aig::build_from_tt(c.aig, tt, in);
      return c;
    };
    const CareSet cbig = as_care(big), csmall = as_care(small);
    const bool exact = check_partition_exhaustive(cone, op, p);
    const bool on_big = check_partition_exhaustive(cone, op, p, &cbig);
    const bool on_small = check_partition_exhaustive(cone, op, p, &csmall);
    if (exact) EXPECT_TRUE(on_big) << iter;
    if (on_big) EXPECT_TRUE(on_small) << iter;
    // The SAT formulation agrees with the oracle on both care sets.
    EXPECT_EQ(on_big, check_partition(cone, op, p, &cbig)) << iter;
    EXPECT_EQ(on_small, check_partition(cone, op, p, &csmall)) << iter;
  }
}

TEST_P(PropertySeeds, AbSymmetryForAllOps) {
  // Swapping XA and XB never changes validity (the symmetry the QD model
  // breaks for speed).
  Rng rng(GetParam() * 7873 + 3);
  for (int iter = 0; iter < 25; ++iter) {
    const int n = rng.next_int(2, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(3, 20), rng.next());
    const Partition p = testutil::random_partition(n, rng);
    for (GateOp op : {GateOp::kOr, GateOp::kAnd, GateOp::kXor}) {
      EXPECT_EQ(check_partition_exhaustive(cone, op, p),
                check_partition_exhaustive(cone, op, swapped_ab(p)))
          << to_string(op) << " " << p.to_string();
    }
  }
}

TEST_P(PropertySeeds, XorValidityClosedUnderComplement) {
  // f = fA ⊕ fB  <=>  ¬f = ¬fA ⊕ fB: XOR validity is invariant under
  // complementing the function.
  Rng rng(GetParam() * 911 + 19);
  for (int iter = 0; iter < 25; ++iter) {
    const int n = rng.next_int(2, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(3, 20), rng.next());
    const Partition p = testutil::random_partition(n, rng);
    EXPECT_EQ(check_partition_exhaustive(cone, GateOp::kXor, p),
              check_partition_exhaustive(complemented(cone), GateOp::kXor, p));
  }
}

TEST_P(PropertySeeds, MetricsInvariantUnderAbSwap) {
  Rng rng(GetParam() * 5 + 1);
  for (int iter = 0; iter < 30; ++iter) {
    const Partition p = testutil::random_partition(rng.next_int(1, 12), rng);
    const Metrics m1 = Metrics::of(p);
    const Metrics m2 = Metrics::of(swapped_ab(p));
    EXPECT_EQ(m1.shared, m2.shared);
    EXPECT_EQ(m1.imbalance, m2.imbalance);
    EXPECT_EQ(m1.combined_cost(), m2.combined_cost());
  }
}

TEST_P(PropertySeeds, CofactorsOfValidPartitionsStayValid) {
  // Restricting a shared variable to a constant preserves validity with
  // that variable removed from the partition (a well-known closure
  // property of bi-decompositions).
  Rng rng(GetParam() * 6007 + 11);
  int checked = 0;
  for (int iter = 0; iter < 60 && checked < 10; ++iter) {
    const int n = rng.next_int(3, 6);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 20), rng.next());
    const Partition p = testutil::random_partition(n, rng);
    if (!p.non_trivial()) continue;
    int shared_pos = -1;
    for (int i = 0; i < n; ++i) {
      if (p.cls[i] == VarClass::kC) shared_pos = i;
    }
    if (shared_pos < 0) continue;
    const GateOp op = static_cast<GateOp>(rng.next_int(0, 2));
    if (!check_partition_exhaustive(cone, op, p)) continue;
    ++checked;

    for (int value = 0; value <= 1; ++value) {
      // Build the cofactor cone over the remaining inputs.
      Cone cf;
      std::vector<aig::Lit> free_map(n, aig::kLitInvalid);
      std::vector<int> assignment(n, -1);
      assignment[shared_pos] = value;
      Partition q;
      for (int i = 0; i < n; ++i) {
        if (i == shared_pos) continue;
        free_map[i] = cf.aig.add_input();
        q.cls.push_back(p.cls[i]);
      }
      cf.root = aig::cofactor(cone.aig, cone.root, cf.aig, assignment, free_map);
      EXPECT_TRUE(check_partition_exhaustive(cf, op, q))
          << to_string(op) << " value=" << value;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST_P(PropertySeeds, SatCheckerAgreesOnSwappedPartitions) {
  // The SAT-level checker must exhibit the same AB symmetry as the oracle
  // (guards against asymmetric encoding bugs in the relaxation matrix).
  Rng rng(GetParam() * 104 + 9);
  for (int iter = 0; iter < 10; ++iter) {
    const int n = rng.next_int(2, 5);
    const Cone cone = testutil::random_cone(n, rng.next_int(3, 16), rng.next());
    const GateOp op = static_cast<GateOp>(rng.next_int(0, 2));
    const RelaxationMatrix m = build_relaxation_matrix(cone, op);
    RelaxationSolver rs(m);
    for (int t = 0; t < 4; ++t) {
      const Partition p = testutil::random_partition(n, rng);
      EXPECT_EQ(rs.is_valid(p), rs.is_valid(swapped_ab(p)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeeds, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Recursive resynthesis equivalence harness: for a stream of seeded random
// circuits, the recursive decomposition subsystem (with the shared NPN
// cache) must produce a netlist SAT-provably equivalent to the original —
// under every engine. A failure prints the reproducing seed.
// ---------------------------------------------------------------------------

using testutil::circuits_equivalent;

/// Seeded random circuit, rotating through the generator families so the
/// harness exercises SOP-style, DAG-style and structured cones.
aig::Aig harness_circuit(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b9ULL + 12345);
  switch (seed % 4) {
    case 0:
      return benchgen::random_dag(rng.next_int(3, 6), rng.next_int(6, 24),
                                  rng.next_int(2, 3), rng.next());
    case 1:
      return benchgen::random_sop(rng.next_int(1, 2), rng.next_int(1, 2),
                                  rng.next_int(1, 2), rng.next_int(2, 3),
                                  rng.next_int(2, 4), rng.next());
    case 2:
      return benchgen::random_dag(rng.next_int(4, 7), rng.next_int(10, 30),
                                  2, rng.next());
    default:
      return benchgen::merge({benchgen::parity_tree(rng.next_int(3, 5)),
                              benchgen::random_dag(rng.next_int(3, 5),
                                                   rng.next_int(4, 12), 1,
                                                   rng.next())});
  }
}

class ResynthEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ResynthEquivalence, RecursiveTreesStayEquivalentForAllEngines) {
  const int seed = GetParam();
  const aig::Aig circ = harness_circuit(seed);
  DecCache cache;  // shared across engines: hits must not break equivalence
  for (Engine engine :
       {Engine::kMg, Engine::kQbfDisjoint, Engine::kQbfCombined}) {
    SynthesisOptions opts;
    opts.engine = engine;
    opts.cache = &cache;
    opts.per_node.optimum.call_timeout_s = 2.0;
    const CircuitResynthResult r = run_circuit_resynth(
        circ, "harness", opts, /*budget_s=*/60.0, {}, /*verify=*/true);
    EXPECT_TRUE(r.all_verified)
        << "per-PO miter failed; engine=" << to_string(engine)
        << " reproducing seed=" << seed;
    EXPECT_TRUE(circuits_equivalent(circ, r.network))
        << "netlist miter failed; engine=" << to_string(engine)
        << " reproducing seed=" << seed;
  }
}

// >= 50 seeded random circuits in CI (acceptance floor of the harness).
INSTANTIATE_TEST_SUITE_P(FiftySeeds, ResynthEquivalence,
                         ::testing::Range(0, 50));

TEST(ResynthSuite, EveryBundledCircuitVerifiesForAllEngines) {
  // The CLI-level acceptance property: `step resynth` on every bundled
  // benchmark circuit terminates with a netlist SAT-proven equivalent to
  // the input, under each engine, with the shared cache on.
  for (const benchgen::BenchCircuit& c :
       benchgen::standard_suite(benchgen::SuiteScale::kTiny)) {
    for (Engine engine :
         {Engine::kMg, Engine::kQbfDisjoint, Engine::kQbfCombined}) {
      DecCache cache;
      SynthesisOptions opts;
      opts.engine = engine;
      opts.pick_best_op = true;
      opts.cache = &cache;
      opts.per_node.optimum.call_timeout_s = 1.0;
      opts.per_node.po_budget_s = 5.0;
      const CircuitResynthResult r = run_circuit_resynth(
          c.aig, c.name, opts, /*budget_s=*/60.0, {}, /*verify=*/true);
      EXPECT_TRUE(r.all_verified)
          << c.name << " under " << to_string(engine);
      EXPECT_TRUE(circuits_equivalent(c.aig, r.network))
          << c.name << " under " << to_string(engine);
    }
  }
}

// ---------- MG's simulation-filtered seed scan on wide cones -----------------

// The unfiltered scan: one SAT check per pair in (j, l) order.
MgSeed plain_seed_scan(RelaxationSolver& rs) {
  const int n = rs.matrix().n;
  MgSeed seed;
  for (int j = 0; j < n && seed.j < 0; ++j) {
    for (int l = j + 1; l < n; ++l) {
      Partition p;
      p.cls.assign(n, VarClass::kC);
      p.cls[j] = VarClass::kA;
      p.cls[l] = VarClass::kB;
      if (rs.is_valid(p)) {
        seed.j = j;
        seed.l = l;
        break;
      }
    }
  }
  seed.exhausted = seed.j < 0;
  return seed;
}

TEST(MgSeedFilter, RefutesOnlyInvalidPairsAndKeepsTheSeed) {
  Rng rng(0xf117);
  int refuted_total = 0, exhausted = 0, found = 0;
  for (int iter = 0; iter < 24; ++iter) {
    const int n = rng.next_int(aig::kTtMaxSupport + 1, aig::kTtMaxSupport + 6);
    const GateOp op = static_cast<GateOp>(iter % 3);
    // Hamming thresholds (every sixth cone, under OR) have no OR
    // bi-decomposition; the other cones mostly do.
    const Cone cone =
        iter % 6 == 3
            ? extract_po_cone(benchgen::hamming_ge(n / 2, n / 4), 0)
        : iter % 2 == 0 ? testutil::decomposable_cone(n, op, rng).cone
                        : testutil::random_cone(n, 3 * n, rng.next());
    // Every fourth OR/AND cone is care-constrained: every row the filter
    // uses must then be a care row.
    std::optional<CareSet> care;
    if (iter % 4 == 1 && op != GateOp::kXor) {
      const Cone c = testutil::random_cone(cone.n(), 2 * n, rng.next());
      care.emplace();
      care->aig = c.aig;
      care->root = c.root;
    }
    const RelaxationMatrix m =
        build_relaxation_matrix(cone, op, care ? &*care : nullptr);
    RelaxationSolver filtered(m);
    std::vector<std::pair<int, int>> refuted;
    const MgSeed seed = MgDecomposer(filtered).seed_scan(nullptr, &refuted);
    RelaxationSolver plain(m);
    const MgSeed want = plain_seed_scan(plain);
    SCOPED_TRACE(::testing::Message() << to_string(op) << " n " << cone.n()
                                      << " iter " << iter);
    EXPECT_EQ(seed.j, want.j);
    EXPECT_EQ(seed.l, want.l);
    EXPECT_EQ(seed.exhausted, want.exhausted);
    EXPECT_FALSE(seed.timed_out);
    for (const auto& [j, l] : refuted) {
      Partition p;
      p.cls.assign(cone.n(), VarClass::kC);
      p.cls[j] = VarClass::kA;
      p.cls[l] = VarClass::kB;
      EXPECT_FALSE(plain.is_valid(p)) << "refuted pair " << j << "," << l;
    }
    refuted_total += static_cast<int>(refuted.size());
    exhausted += seed.exhausted ? 1 : 0;
    found += seed.j >= 0 ? 1 : 0;
  }
  // The sample exercises both verdicts and the filter itself.
  EXPECT_GT(refuted_total, 0);
  EXPECT_GT(exhausted, 0);
  EXPECT_GT(found, 0);
}

TEST(MgSeedFilter, WideConeAnswersAreThreadCountInvariant) {
  const aig::Aig circ = benchgen::merge(
      {benchgen::comparator(10), benchgen::majority(21),
       benchgen::random_sop(10, 10, 4, 3, 16, 0x5eed),
       benchgen::random_dag(24, 300, 4, 0xdac)});
  for (const GateOp op : {GateOp::kOr, GateOp::kAnd, GateOp::kXor}) {
    SCOPED_TRACE(to_string(op));
    DecomposeOptions opts;
    opts.engine = Engine::kMg;
    opts.op = op;
    opts.po_budget_s = 60.0;
    const CircuitRunResult seq = run_circuit(circ, "wide", opts, 600.0, {1});
    const CircuitRunResult par = run_circuit(circ, "wide", opts, 600.0, {4});
    ASSERT_EQ(seq.pos.size(), par.pos.size());
    int wide = 0;
    for (std::size_t i = 0; i < seq.pos.size(); ++i) {
      EXPECT_EQ(seq.pos[i].status, par.pos[i].status) << "po " << i;
      EXPECT_EQ(seq.pos[i].sat_calls, par.pos[i].sat_calls) << "po " << i;
      EXPECT_EQ(seq.pos[i].metrics.shared, par.pos[i].metrics.shared)
          << "po " << i;
      EXPECT_EQ(seq.pos[i].metrics.imbalance, par.pos[i].metrics.imbalance)
          << "po " << i;
      if (seq.pos[i].support > aig::kTtMaxSupport) ++wide;
    }
    EXPECT_GT(wide, 0);
  }
}

}  // namespace
}  // namespace step::core
