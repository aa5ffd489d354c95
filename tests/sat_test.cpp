#include "sat/solver.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "sat/dimacs.h"

namespace step::sat {
namespace {

// ---------- helpers ----------------------------------------------------------

/// Brute-force satisfiability over clause lists (reference oracle).
bool brute_force_sat(int num_vars, const std::vector<LitVec>& clauses) {
  for (std::uint64_t m = 0; m < (1ULL << num_vars); ++m) {
    bool all = true;
    for (const LitVec& c : clauses) {
      bool sat_c = false;
      for (Lit l : c) {
        const bool v = ((m >> var(l)) & 1ULL) != 0;
        if (v != sign(l)) {
          sat_c = true;
          break;
        }
      }
      if (!sat_c) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

std::vector<LitVec> random_cnf(int num_vars, int num_clauses, int width,
                               Rng& rng) {
  std::vector<LitVec> clauses;
  for (int i = 0; i < num_clauses; ++i) {
    LitVec c;
    for (int j = 0; j < width; ++j) {
      c.push_back(mk_lit(rng.next_int(0, num_vars - 1), rng.next_bool()));
    }
    clauses.push_back(c);
  }
  return clauses;
}

Solver make_solver(int num_vars, const std::vector<LitVec>& clauses,
                   bool proof = false) {
  SolverOptions opts;
  opts.proof_logging = proof;
  Solver s(opts);
  for (int i = 0; i < num_vars; ++i) s.new_var();
  for (const LitVec& c : clauses) s.add_clause(c);
  return s;
}

bool model_satisfies(const Solver& s, const std::vector<LitVec>& clauses) {
  for (const LitVec& c : clauses) {
    bool ok = false;
    for (Lit l : c) {
      if (s.model_value(l) == Lbool::kTrue) ok = true;
    }
    if (!ok) return false;
  }
  return true;
}

// ---------- basic behaviour ---------------------------------------------------

TEST(SatBasic, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatBasic, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  s.add_clause({mk_lit(v)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(mk_lit(v)), Lbool::kTrue);
}

TEST(SatBasic, ContradictingUnits) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(v)}));
  EXPECT_FALSE(s.add_clause({~mk_lit(v)}));
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_FALSE(s.is_ok());
}

TEST(SatBasic, BinaryImplicationChain) {
  Solver s;
  std::vector<Var> v(20);
  for (auto& x : v) x = s.new_var();
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    s.add_clause({~mk_lit(v[i]), mk_lit(v[i + 1])});
  }
  s.add_clause({mk_lit(v[0])});
  ASSERT_EQ(s.solve(), Result::kSat);
  for (Var x : v) EXPECT_EQ(s.model_value(x), Lbool::kTrue);
}

TEST(SatBasic, PigeonHole3x2IsUnsat) {
  // 3 pigeons, 2 holes: p[i][h].
  Solver s;
  Var p[3][2];
  for (auto& row : p) {
    for (Var& x : row) x = s.new_var();
  }
  for (auto& row : p) s.add_clause({mk_lit(row[0]), mk_lit(row[1])});
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        s.add_clause({~mk_lit(p[i][h]), ~mk_lit(p[j][h])});
      }
    }
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatBasic, TautologicalClauseIgnored) {
  Solver s;
  const Var v = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(v), ~mk_lit(v)}));
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatBasic, DuplicateLiteralsCollapse) {
  Solver s;
  const Var v = s.new_var();
  const Var w = s.new_var();
  s.add_clause({mk_lit(v), mk_lit(v), ~mk_lit(w), mk_lit(v)});
  s.add_clause({mk_lit(w)});
  s.add_clause({~mk_lit(v), mk_lit(w)});
  ASSERT_EQ(s.solve(), Result::kSat);
}

// ---------- assumptions -------------------------------------------------------

TEST(SatAssumptions, AssumptionForcesPolarity) {
  Solver s;
  const Var v = s.new_var();
  const LitVec pos{mk_lit(v)};
  const LitVec neg{~mk_lit(v)};
  ASSERT_EQ(s.solve(pos), Result::kSat);
  EXPECT_EQ(s.model_value(mk_lit(v)), Lbool::kTrue);
  ASSERT_EQ(s.solve(neg), Result::kSat);
  EXPECT_EQ(s.model_value(mk_lit(v)), Lbool::kFalse);
}

TEST(SatAssumptions, CoreIsSubsetOfAssumptions) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause({~mk_lit(a), ~mk_lit(b)});  // a & b incompatible
  const LitVec assumptions{mk_lit(a), mk_lit(b), mk_lit(c)};
  ASSERT_EQ(s.solve(assumptions), Result::kUnsat);
  const LitVec& core = s.conflict_core();
  EXPECT_FALSE(core.empty());
  for (Lit l : core) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
              assumptions.end());
  }
  // c is irrelevant and must not appear.
  EXPECT_EQ(std::find(core.begin(), core.end(), mk_lit(c)), core.end());
}

TEST(SatAssumptions, CoreItselfUnsat) {
  Solver s;
  std::vector<Var> v(6);
  for (auto& x : v) x = s.new_var();
  // v0..v2 one-hot XOR-ish constraints that conflict with all-true.
  s.add_clause({~mk_lit(v[0]), ~mk_lit(v[1]), ~mk_lit(v[2])});
  s.add_clause({~mk_lit(v[3]), mk_lit(v[0])});
  LitVec assumptions;
  for (Var x : v) assumptions.push_back(mk_lit(x));
  ASSERT_EQ(s.solve(assumptions), Result::kUnsat);
  const LitVec core = s.conflict_core();
  // Re-solving under just the core stays UNSAT.
  EXPECT_EQ(s.solve(core), Result::kUnsat);
}

TEST(SatAssumptions, IncrementalSolvesAlternate) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause({mk_lit(a), mk_lit(b)});
  for (int round = 0; round < 10; ++round) {
    const LitVec na{~mk_lit(a)};
    ASSERT_EQ(s.solve(na), Result::kSat);
    EXPECT_EQ(s.model_value(mk_lit(b)), Lbool::kTrue);
    const LitVec nb{~mk_lit(b)};
    ASSERT_EQ(s.solve(nb), Result::kSat);
    EXPECT_EQ(s.model_value(mk_lit(a)), Lbool::kTrue);
  }
}

TEST(SatAssumptions, ConflictingAssumptionsDetected) {
  Solver s;
  const Var a = s.new_var();
  const LitVec both{mk_lit(a), ~mk_lit(a)};
  EXPECT_EQ(s.solve(both), Result::kUnsat);
}

// ---------- budgets ----------------------------------------------------------

TEST(SatBudget, ZeroConflictBudgetReturnsUnknownOnHardInstance) {
  // A formula that needs at least one conflict: pigeonhole 4x3.
  SolverOptions opts;
  Solver s(opts);
  Var p[4][3];
  for (auto& row : p) {
    for (Var& x : row) x = s.new_var();
  }
  for (auto& row : p) {
    s.add_clause({mk_lit(row[0]), mk_lit(row[1]), mk_lit(row[2])});
  }
  for (int h = 0; h < 3; ++h) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        s.add_clause({~mk_lit(p[i][h]), ~mk_lit(p[j][h])});
      }
    }
  }
  EXPECT_EQ(s.solve_limited({}, 0, nullptr), Result::kUnknown);
  // And solvable without the budget.
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatBudget, ExpiredDeadlineReturnsUnknown) {
  Solver s;
  Var p[5][4];
  for (auto& row : p) {
    for (Var& x : row) x = s.new_var();
  }
  for (auto& row : p) {
    s.add_clause({mk_lit(row[0]), mk_lit(row[1]), mk_lit(row[2]), mk_lit(row[3])});
  }
  for (int h = 0; h < 4; ++h) {
    for (int i = 0; i < 5; ++i) {
      for (int j = i + 1; j < 5; ++j) {
        s.add_clause({~mk_lit(p[i][h]), ~mk_lit(p[j][h])});
      }
    }
  }
  const Deadline expired(1e-9);
  const Result r = s.solve_limited({}, -1, &expired);
  EXPECT_EQ(r, Result::kUnknown);
}

// ---------- inprocessing schedule --------------------------------------------

TEST(SatInprocess, OneShotSolveSkipsRoundIncrementalSolveRunsOne) {
  // Pigeonhole 8x7 guarded by an activation literal: UNSAT under the
  // assumption `act`, so the solver stays usable for a second call.
  Solver s;
  const Lit act = mk_lit(s.new_var());
  constexpr int kHoles = 7;
  Var p[kHoles + 1][kHoles];
  for (auto& row : p) {
    for (Var& x : row) x = s.new_var();
  }
  int clauses = 0;
  for (auto& row : p) {
    LitVec c{~act};
    for (Var x : row) c.push_back(mk_lit(x));
    s.add_clause(c);
    ++clauses;
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int i = 0; i <= kHoles; ++i) {
      for (int j = i + 1; j <= kHoles; ++j) {
        s.add_clause({~act, ~mk_lit(p[i][h]), ~mk_lit(p[j][h])});
        ++clauses;
      }
    }
  }
  ASSERT_GE(clauses, 64);

  // A fresh solver's first solve goes straight to search.
  const LitVec on{act};
  ASSERT_EQ(s.solve(on), Result::kUnsat);
  EXPECT_EQ(s.stats().inprocess_rounds, 0u);
  const auto min_conflicts =
      static_cast<std::uint64_t>(SolverOptions{}.inprocess_min_conflicts);
  ASSERT_GE(s.stats().conflicts, min_conflicts);

  // The next incremental call is due for a round.
  ASSERT_EQ(s.solve(on), Result::kUnsat);
  EXPECT_EQ(s.stats().inprocess_rounds, 1u);
}

// ---------- randomized cross-check against brute force -----------------------

class SatRandom : public ::testing::TestWithParam<int> {};

TEST_P(SatRandom, AgreesWithBruteForce3Cnf) {
  Rng rng(GetParam() * 7919 + 13);
  for (int iter = 0; iter < 40; ++iter) {
    const int nv = rng.next_int(3, 10);
    const int nc = rng.next_int(2, 45);
    const auto clauses = random_cnf(nv, nc, 3, rng);
    Solver s = make_solver(nv, clauses);
    const Result got = s.solve();
    const bool expect_sat = brute_force_sat(nv, clauses);
    ASSERT_EQ(got, expect_sat ? Result::kSat : Result::kUnsat)
        << "seed=" << GetParam() << " iter=" << iter;
    if (got == Result::kSat) {
      EXPECT_TRUE(model_satisfies(s, clauses));
    }
  }
}

TEST_P(SatRandom, AgreesWithBruteForceMixedWidth) {
  Rng rng(GetParam() * 104729 + 7);
  for (int iter = 0; iter < 25; ++iter) {
    const int nv = rng.next_int(2, 9);
    const int nc = rng.next_int(1, 35);
    std::vector<LitVec> clauses;
    for (int i = 0; i < nc; ++i) {
      const int w = rng.next_int(1, 4);
      LitVec c;
      for (int j = 0; j < w; ++j) {
        c.push_back(mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
      }
      clauses.push_back(c);
    }
    Solver s = make_solver(nv, clauses);
    const bool expect_sat = brute_force_sat(nv, clauses);
    ASSERT_EQ(s.solve(), expect_sat ? Result::kSat : Result::kUnsat);
  }
}

TEST_P(SatRandom, AssumptionCoresAreSound) {
  Rng rng(GetParam() * 31 + 5);
  for (int iter = 0; iter < 20; ++iter) {
    const int nv = rng.next_int(4, 9);
    const auto clauses = random_cnf(nv, rng.next_int(5, 30), 3, rng);
    Solver s = make_solver(nv, clauses);
    LitVec assumptions;
    for (int v = 0; v < nv; ++v) {
      if (rng.next_bool()) assumptions.push_back(mk_lit(v, rng.next_bool()));
    }
    if (s.solve(assumptions) == Result::kUnsat) {
      // The core must itself be unsatisfiable with the clauses.
      const LitVec core = s.conflict_core();
      std::vector<LitVec> with_core = clauses;
      for (Lit l : core) with_core.push_back({l});
      EXPECT_FALSE(brute_force_sat(nv, with_core));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandom, ::testing::Range(0, 8));

// ---------- proof logging -----------------------------------------------------

TEST(SatProof, EmptyClauseReplaysEmpty) {
  SolverOptions opts;
  opts.proof_logging = true;
  Solver s(opts);
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause({mk_lit(a), mk_lit(b)});
  s.add_clause({mk_lit(a), ~mk_lit(b)});
  s.add_clause({~mk_lit(a), mk_lit(b)});
  s.add_clause({~mk_lit(a), ~mk_lit(b)});
  ASSERT_EQ(s.solve(), Result::kUnsat);
  ASSERT_NE(s.proof().empty_clause(), kProofIdUndef);
  EXPECT_TRUE(s.proof().replay_clause(s.proof().empty_clause()).empty());
}

class SatProofRandom : public ::testing::TestWithParam<int> {};

TEST_P(SatProofRandom, RefutationsReplayToEmptyClause) {
  Rng rng(GetParam() * 6271 + 3);
  int checked = 0;
  for (int iter = 0; iter < 60 && checked < 12; ++iter) {
    const int nv = rng.next_int(3, 9);
    const auto clauses = random_cnf(nv, rng.next_int(12, 50), 3, rng);
    if (brute_force_sat(nv, clauses)) continue;
    Solver s = make_solver(nv, clauses, /*proof=*/true);
    ASSERT_EQ(s.solve(), Result::kUnsat);
    ASSERT_NE(s.proof().empty_clause(), kProofIdUndef);
    const LitVec replay = s.proof().replay_clause(s.proof().empty_clause());
    EXPECT_TRUE(replay.empty())
        << "replayed clause has " << replay.size() << " literals";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatProofRandom, ::testing::Range(0, 6));

// ---------- dimacs ------------------------------------------------------------

TEST(Dimacs, ParsesSimpleFormula) {
  const auto f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(f.num_vars, 3);
  ASSERT_EQ(f.clauses.size(), 2u);
  EXPECT_EQ(f.clauses[0], (LitVec{mk_lit(0), mk_lit(1, true)}));
}

TEST(Dimacs, RoundTrip) {
  Rng rng(99);
  DimacsFormula f;
  f.num_vars = 7;
  for (int i = 0; i < 12; ++i) {
    LitVec c;
    for (int j = 0; j < 3; ++j) {
      c.push_back(mk_lit(rng.next_int(0, 6), rng.next_bool()));
    }
    f.clauses.push_back(c);
  }
  const DimacsFormula g = parse_dimacs(write_dimacs(f));
  EXPECT_EQ(g.num_vars, f.num_vars);
  EXPECT_EQ(g.clauses, f.clauses);
}

TEST(Dimacs, RejectsUnterminatedClause) {
  EXPECT_THROW(parse_dimacs("p cnf 2 1\n1 2\n"), std::runtime_error);
}

TEST(Dimacs, ClauseAcrossLines) {
  const auto f = parse_dimacs("1 2\n-3 0\n");
  ASSERT_EQ(f.clauses.size(), 1u);
  EXPECT_EQ(f.clauses[0].size(), 3u);
}

}  // namespace
}  // namespace step::sat
