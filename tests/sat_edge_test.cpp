// Edge-case and behavioural tests for the SAT solver beyond the oracle
// cross-checks in sat_test.cpp.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sat/solver.h"

namespace step::sat {
namespace {

TEST(SatEdge, EmptyClauseMakesSolverUnusable) {
  Solver s;
  (void)s.new_var();
  EXPECT_FALSE(s.add_clause(std::span<const Lit>{}));
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.solve(), Result::kUnsat);
  // Further clauses are rejected without crashing.
  EXPECT_FALSE(s.add_clause({mk_lit(0)}));
}

TEST(SatEdge, AddClauseAfterSolveIsIncremental) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause({mk_lit(a), mk_lit(b)});
  ASSERT_EQ(s.solve(), Result::kSat);
  s.add_clause({~mk_lit(a)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(b), Lbool::kTrue);
  s.add_clause({~mk_lit(b)});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatEdge, NewVarAfterSolve) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({mk_lit(a)});
  ASSERT_EQ(s.solve(), Result::kSat);
  const Var b = s.new_var();
  s.add_clause({~mk_lit(a), ~mk_lit(b)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(b), Lbool::kFalse);
}

TEST(SatEdge, PolarityHintSteersFreeVariables) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({mk_lit(a), mk_lit(b)});  // leaves both nearly free
  s.set_polarity_hint(a, true);
  s.set_polarity_hint(b, true);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(a), Lbool::kTrue);
  EXPECT_EQ(s.model_value(b), Lbool::kTrue);
}

TEST(SatEdge, StatsAdvance) {
  Rng rng(1);
  Solver s;
  for (int i = 0; i < 20; ++i) s.new_var();
  for (int c = 0; c < 90; ++c) {
    LitVec cl;
    for (int j = 0; j < 3; ++j) {
      cl.push_back(mk_lit(rng.next_int(0, 19), rng.next_bool()));
    }
    s.add_clause(cl);
  }
  (void)s.solve();
  const Solver::Stats& st = s.stats();
  EXPECT_GT(st.decisions, 0u);
  EXPECT_GT(st.propagations, 0u);
}

TEST(SatEdge, ManySolveCallsAreStable) {
  // Alternating assumption polarities over many rounds must keep giving
  // consistent answers (regression guard for trail/watch corruption).
  Rng rng(2);
  Solver s;
  const int nv = 12;
  for (int i = 0; i < nv; ++i) s.new_var();
  for (int c = 0; c < 30; ++c) {
    LitVec cl;
    for (int j = 0; j < 3; ++j) {
      cl.push_back(mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
    }
    s.add_clause(cl);
  }
  Result first_free = s.solve();
  for (int round = 0; round < 50; ++round) {
    LitVec assume{mk_lit(round % nv, (round / nv) % 2 == 0)};
    (void)s.solve(assume);
    EXPECT_EQ(s.solve(), first_free);  // the free query never changes
  }
}

TEST(SatEdge, AssumptionOnlyVariables) {
  // Assumptions over variables that appear in no clause.
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const LitVec assume{mk_lit(a), ~mk_lit(b)};
  ASSERT_EQ(s.solve(assume), Result::kSat);
  EXPECT_EQ(s.model_value(a), Lbool::kTrue);
  EXPECT_EQ(s.model_value(b), Lbool::kFalse);
}

TEST(SatEdge, DuplicateAssumptions) {
  Solver s;
  const Var a = s.new_var();
  const LitVec assume{mk_lit(a), mk_lit(a), mk_lit(a)};
  EXPECT_EQ(s.solve(assume), Result::kSat);
}

TEST(SatEdge, UnitClausePersistsAcrossSolves) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause({mk_lit(a)});
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(s.solve(), Result::kSat);
    EXPECT_EQ(s.model_value(a), Lbool::kTrue);
    const LitVec nb{~mk_lit(b)};
    ASSERT_EQ(s.solve(nb), Result::kSat);
    EXPECT_EQ(s.model_value(a), Lbool::kTrue);
  }
}

TEST(SatEdge, DbReductionFiresAndPreservesCorrectness) {
  // A tiny learnt budget forces clause-database reduction mid-search;
  // pigeonhole must still be refuted.
  SolverOptions o;
  o.max_learnts_floor = 20.0;
  o.reduce_interval = 50;  // schedule reductions aggressively
  o.reduce_min_local = 0;  // …even while the local tier is small
  Solver s(o);
  constexpr int kHoles = 6;
  Var p[kHoles + 1][kHoles];
  for (auto& row : p) {
    for (Var& v : row) v = s.new_var();
  }
  for (auto& row : p) {
    LitVec c;
    for (Var v : row) c.push_back(mk_lit(v));
    s.add_clause(c);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int i = 0; i <= kHoles; ++i) {
      for (int j = i + 1; j <= kHoles; ++j) {
        s.add_clause({~mk_lit(p[i][h]), ~mk_lit(p[j][h])});
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.stats().db_reductions, 0u);
}

TEST(SatEdge, DbReductionAgreesWithBruteForceOnSatInstances) {
  Rng rng(4711);
  for (int iter = 0; iter < 15; ++iter) {
    const int nv = rng.next_int(6, 10);
    SolverOptions tiny;
    tiny.max_learnts_floor = 4.0;
    Solver constrained(tiny);
    Solver reference;
    for (int i = 0; i < nv; ++i) {
      constrained.new_var();
      reference.new_var();
    }
    for (int c = 0; c < nv * 4; ++c) {
      LitVec cl;
      for (int j = 0; j < 3; ++j) {
        cl.push_back(mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
      }
      constrained.add_clause(cl);
      reference.add_clause(cl);
    }
    EXPECT_EQ(constrained.solve(), reference.solve());
  }
}

TEST(SatEdge, XorChainUnsat) {
  // x1 ^ x2, x2 ^ x3, ..., plus parity contradiction: a classic family
  // stressing learning on long implication chains.
  const int n = 12;
  Solver s;
  std::vector<Var> x(n);
  for (auto& v : x) v = s.new_var();
  auto add_xor = [&](Var u, Var v, bool value) {
    // u ^ v = value as two clauses each direction.
    s.add_clause({mk_lit(u, false), mk_lit(v, !value)});
    s.add_clause({mk_lit(u, true), mk_lit(v, value)});
  };
  for (int i = 0; i + 1 < n; ++i) add_xor(x[i], x[i + 1], true);
  // Chain forces x0 != x1 != ... alternating; closing constraint breaks it.
  add_xor(x[0], x[n - 1], (n - 1) % 2 == 0);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatEdge, DuplicateAssumptionsPushLevelsPastVarCount) {
  // Every already-satisfied assumption opens a dummy decision level, so a
  // repeated assumption literal drives the decision level past num_vars;
  // conflicts analyzed up there must not overrun the LBD level stamps
  // (regression: heap overflow in compute_lbd, caught under ASan).
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var(),
            d = s.new_var();
  s.add_clause({mk_lit(b), mk_lit(c)});
  s.add_clause({mk_lit(b), ~mk_lit(c)});
  s.add_clause({~mk_lit(b), mk_lit(d)});
  s.add_clause({~mk_lit(b), ~mk_lit(d)});  // UNSAT independent of a
  const LitVec assumps(12, mk_lit(a));     // 11 dummy levels past level 1
  EXPECT_EQ(s.solve(assumps), Result::kUnsat);
  EXPECT_TRUE(s.conflict_core().empty());  // refutation needs no assumption
}

}  // namespace
}  // namespace step::sat
