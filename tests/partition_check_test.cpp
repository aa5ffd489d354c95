#include "core/partition_check.h"

#include <gtest/gtest.h>

#include "aig/support.h"
#include "core/extract.h"
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
    const RelaxationTable table(m);
    bool any = false;
    for (int j = 0; j < n; ++j) {
      for (int l = j + 1; l < n; ++l) {
        Partition p;
        p.cls.assign(n, VarClass::kC);
        p.cls[j] = VarClass::kA;
        p.cls[l] = VarClass::kB;
        const bool oracle = check_partition_exhaustive(cone, op, p, c);
        ASSERT_EQ(table.pair_valid(j, l), oracle)
            << to_string(op) << " seed=" << seed << " iter=" << iter
            << " care=" << with_care << " pair=" << j << "," << l;
        any = any || oracle;
      }
    }
    EXPECT_EQ(table.any_pair_valid(), any)
        << to_string(op) << " seed=" << seed << " iter=" << iter;
    // MG itself: a seed exists iff some pair is valid. Every op runs on
    // the truth table with no SAT call.
    RelaxationSolver rs(m);
    const PartitionSearchResult r = MgDecomposer(rs).find_partition();
    EXPECT_EQ(r.found, any);
    EXPECT_EQ(r.sat_calls, 0);
    if (!any) EXPECT_TRUE(r.exhausted);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, SeedPairAgreement,
    ::testing::Values(OpSeed{GateOp::kOr, 0}, OpSeed{GateOp::kOr, 1},
                      OpSeed{GateOp::kAnd, 0}, OpSeed{GateOp::kAnd, 1},
                      OpSeed{GateOp::kXor, 0}, OpSeed{GateOp::kXor, 1}));

// ---------- exhaustive oracle: early-exit orbits vs the full loop ----------

/// The oracle's OR loop before it learned to stop early: both orbits of
/// every care onset row are enumerated in full, XA's first.
bool full_orbit_or_valid(const std::vector<std::uint64_t>& tt,
                         const std::vector<std::uint64_t>& care, int n,
                         const Partition& p, bool complement) {
  auto fv = [&](std::size_t r) { return aig::tt_bit(tt, r) != complement; };
  auto in_care = [&](std::size_t r) {
    return care.empty() || aig::tt_bit(care, r);
  };
  std::vector<int> a_pos, b_pos;
  for (int j = 0; j < n; ++j) {
    if (p.cls[j] == VarClass::kA) a_pos.push_back(j);
    if (p.cls[j] == VarClass::kB) b_pos.push_back(j);
  }
  auto all_on = [&](std::size_t r, const std::vector<int>& pos) {
    bool all = true;
    for (std::size_t combo = 0; combo < (std::size_t{1} << pos.size());
         ++combo) {
      std::size_t rr = r;
      for (std::size_t j = 0; j < pos.size(); ++j) {
        const std::size_t bit = std::size_t{1} << pos[j];
        rr = ((combo >> j) & 1U) ? (rr | bit) : (rr & ~bit);
      }
      if (in_care(rr) && !fv(rr)) all = false;
    }
    return all;
  };
  for (std::size_t r = 0; r < (std::size_t{1} << n); ++r) {
    if (!in_care(r) || !fv(r)) continue;
    if (all_on(r, a_pos)) continue;
    if (!all_on(r, b_pos)) return false;
  }
  return true;
}

TEST(PartitionCheck, ExhaustiveOracleMatchesFullOrbitLoop) {
  Rng rng(8675309);
  for (int iter = 0; iter < 120; ++iter) {
    const int n = rng.next_int(2, 10);
    const Cone cone =
        iter % 2 == 0
            ? testutil::random_tt_cone(n, rng)
            : testutil::random_cone(n, rng.next_int(n, 4 * n), rng.next());
    const GateOp op = rng.next_bool() ? GateOp::kOr : GateOp::kAnd;
    const bool with_care = iter % 3 == 0;
    const CareSet care = testutil::random_care(n, rng, 0.6);
    std::vector<std::uint32_t> sup(n);
    for (int i = 0; i < n; ++i) sup[i] = i;
    const std::vector<std::uint64_t> tt =
        aig::truth_table(cone.aig, cone.root, sup);
    const std::vector<std::uint64_t> ct =
        with_care ? aig::truth_table(care.aig, care.root, sup)
                  : std::vector<std::uint64_t>{};
    for (int k = 0; k < 8; ++k) {
      const Partition p = testutil::random_partition(n, rng);
      EXPECT_EQ(check_partition_exhaustive(cone, op, p,
                                           with_care ? &care : nullptr),
                full_orbit_or_valid(tt, ct, n, p, op == GateOp::kAnd))
          << to_string(op) << " " << p.to_string() << " care=" << with_care;
    }
  }
}

// ---------- truth-table tier vs the SAT oracle ------------------------------

/// SAT validity of a group state: α/β control true = group dropped.
bool sat_state_valid(RelaxationSolver& rs, int n, std::uint32_t alpha_dropped,
                     std::uint32_t beta_dropped) {
  sat::LitVec assumptions;
  for (int i = 0; i < n; ++i) {
    assumptions.push_back(
        sat::mk_lit(rs.alpha_var(i), ((alpha_dropped >> i) & 1U) == 0));
    assumptions.push_back(
        sat::mk_lit(rs.beta_var(i), ((beta_dropped >> i) & 1U) == 0));
  }
  return rs.solver().solve(assumptions) == sat::Result::kUnsat;
}

/// Table validity of a group state (Sα, Sβ as bit masks over the
/// inputs). OR/AND: on ∧ ∃Sα·off ∧ ∃Sβ·off = 0. XOR: no input of Sα ∩ Sβ
/// is dependent and no i ∈ Sα interacts with an input of Sβ.
bool table_state_valid(const RelaxationTable& t, std::uint32_t alpha_dropped,
                       std::uint32_t beta_dropped) {
  if (t.op() == GateOp::kXor) {
    if ((alpha_dropped & beta_dropped & t.xor_dependent()) != 0) return false;
    for (int i = 0; i < t.n(); ++i) {
      if (((alpha_dropped >> i) & 1U) != 0 &&
          (t.xor_interacting(i) & beta_dropped) != 0) {
        return false;
      }
    }
    return true;
  }
  const std::vector<std::uint64_t> ea = t.exists_off(alpha_dropped);
  const std::vector<std::uint64_t> eb = t.exists_off(beta_dropped);
  for (std::size_t w = 0; w < t.words(); ++w) {
    if ((t.on()[w] & ea[w] & eb[w]) != 0) return false;
  }
  return true;
}

class TableTierFuzz : public ::testing::TestWithParam<OpSeed> {};

TEST_P(TableTierFuzz, AgreesWithSatOnStatesMgAndExtraction) {
  const auto [op, seed] = GetParam();
  Rng rng(seed * 7919 + 3);
  for (int iter = 0; iter < 24; ++iter) {
    int n = rng.next_int(2, 12);
    Cone cone;
    if (iter % 4 == 2) {
      cone = testutil::random_tt_cone(n, rng);
    } else if (iter % 4 == 3 && n >= 4) {
      cone = testutil::decomposable_cone(n, op, rng).cone;
    } else {
      cone = testutil::random_cone(n, rng.next_int(n, 4 * n), rng.next());
    }
    // Irrelevant inputs: f is unchanged, the table gains variables.
    if (iter % 5 == 4) {
      for (int k = rng.next_int(1, 2); k > 0; --k) cone.aig.add_input();
      n = cone.n();
    }
    const bool with_care = iter % 2 == 1;
    const CareSet care = testutil::random_care(n, rng, 0.6);
    const CareSet* c = with_care ? &care : nullptr;
    const std::string where = std::string(to_string(op)) + " seed=" +
                              std::to_string(seed) + " iter=" +
                              std::to_string(iter) +
                              " care=" + std::to_string(with_care);
    const RelaxationMatrix m = build_relaxation_matrix(cone, op, c);
    RelaxationSolver rs(m);
    const RelaxationTable table(cone, op, c);
    const RelaxationTable from_matrix(m);
    ASSERT_EQ(table.on(), from_matrix.on()) << where;
    ASSERT_EQ(table.off(), from_matrix.off()) << where;

    // Random group states, "both groups dropped" included.
    for (int k = 0; k < 16; ++k) {
      std::uint32_t a = 0, b = 0;
      for (int i = 0; i < n; ++i) {
        if (rng.next_int(0, 2) == 0) a |= 1U << i;
        if (rng.next_int(0, 2) == 0) b |= 1U << i;
      }
      ASSERT_EQ(table_state_valid(table, a, b), sat_state_valid(rs, n, a, b))
          << where << " alpha=" << a << " beta=" << b;
    }

    // Table MG finds a seed iff some pair is SAT-valid.
    bool sat_any = false;
    for (int j = 0; j < n && !sat_any; ++j) {
      for (int l = j + 1; l < n && !sat_any; ++l) {
        sat_any = sat_state_valid(rs, n, 1U << j, 1U << l);
      }
    }

    // Table MG: its partition and its final group state are SAT-valid, and
    // the state is a group MUS: dropping any group it keeps is SAT.
    MgGroupState st;
    const PartitionSearchResult r = mg_on_table(table, nullptr, &st);
    EXPECT_EQ(r.sat_calls, 0);
    EXPECT_EQ(r.found, sat_any) << where;
    EXPECT_EQ(r.found, table.any_pair_valid()) << where;
    if (!r.found) {
      EXPECT_TRUE(r.exhausted) << where;
      continue;
    }
    ASSERT_TRUE(r.partition.non_trivial()) << where;
    EXPECT_TRUE(rs.is_valid(r.partition))
        << where << " " << r.partition.to_string();
    ASSERT_TRUE(sat_state_valid(rs, n, st.alpha_dropped, st.beta_dropped))
        << where;
    for (int i = 0; i < n; ++i) {
      if (((st.alpha_dropped >> i) & 1U) == 0) {
        EXPECT_FALSE(sat_state_valid(rs, n, st.alpha_dropped | (1U << i),
                                     st.beta_dropped))
            << where << " alpha group " << i << " is not necessary";
      }
      if (((st.beta_dropped >> i) & 1U) == 0) {
        EXPECT_FALSE(sat_state_valid(rs, n, st.alpha_dropped,
                                     st.beta_dropped | (1U << i)))
            << where << " beta group " << i << " is not necessary";
      }
    }

    // Table-built fA/fB pass the SAT miter; fA ignores XB, fB ignores XA.
    const ExtractedFunctions fns =
        extract_functions(cone, op, r.partition, c, &table);
    EXPECT_TRUE(miter_equivalent_on_care(cone.aig, cone.root, fns.aig,
                                         fns.combined, c))
        << where;
    EXPECT_TRUE(verify_decomposition(cone, fns, c)) << where;
    ExtractedFunctions wrong = fns;  // differs from f on every care row
    wrong.combined = aig::lnot(fns.combined);
    EXPECT_FALSE(verify_decomposition(cone, wrong, c)) << where;
    for (const std::uint32_t i : aig::structural_support(fns.aig, fns.fa)) {
      EXPECT_NE(r.partition.cls[i], VarClass::kB) << where;
    }
    for (const std::uint32_t i : aig::structural_support(fns.aig, fns.fb)) {
      EXPECT_NE(r.partition.cls[i], VarClass::kA) << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, TableTierFuzz,
    ::testing::Values(OpSeed{GateOp::kOr, 0}, OpSeed{GateOp::kOr, 1},
                      OpSeed{GateOp::kAnd, 0}, OpSeed{GateOp::kAnd, 1},
                      OpSeed{GateOp::kXor, 0}, OpSeed{GateOp::kXor, 1}));

TEST(TableTier, EquivalenceTablesAgreeWithMiter) {
  // roots_equivalent_on_care decides ≤ 16 inputs from tables; the SAT
  // miter is the oracle. Pairs are equal, equal on care only, or random.
  Rng rng(4711);
  for (int iter = 0; iter < 60; ++iter) {
    const int n = rng.next_int(1, 12);
    const Cone a = testutil::random_cone(n, rng.next_int(n, 3 * n), rng.next());
    std::vector<std::uint32_t> sup(n);
    for (int i = 0; i < n; ++i) sup[i] = i;
    std::vector<std::uint64_t> tt = aig::truth_table(a.aig, a.root, sup);
    const CareSet care = testutil::random_care(n, rng, 0.7);
    const std::vector<std::uint64_t> ct =
        aig::truth_table(care.aig, care.root, sup);
    const int kind = iter % 3;
    if (kind == 1) {  // flip some don't-care rows
      for (std::size_t w = 0; w < tt.size(); ++w) tt[w] ^= rng.next() & ~ct[w];
    } else if (kind == 2) {
      for (auto& w : tt) w ^= rng.next() & rng.next();
    }
    if (n < 6) tt[0] &= (1ULL << (1U << n)) - 1;
    Cone b;
    std::vector<aig::Lit> in(n);
    for (int i = 0; i < n; ++i) in[i] = b.aig.add_input();
    b.root = aig::build_from_tt(b.aig, tt, in);
    for (const CareSet* c : {static_cast<const CareSet*>(nullptr), &care}) {
      EXPECT_EQ(roots_equivalent_on_care(a.aig, a.root, b.aig, b.root, c),
                miter_equivalent_on_care(a.aig, a.root, b.aig, b.root, c))
          << "iter " << iter << " care=" << (c != nullptr);
    }
  }
}

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
