#include "cnf/cardinality.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "sat/solver.h"

namespace step::cnf {
namespace {

using sat::Lbool;
using sat::Lit;
using sat::LitVec;
using sat::mk_lit;
using sat::Result;
using sat::Solver;
using sat::Var;

// ---------- cardinality: exhaustive model counting -----------------------------

/// Counts models of the constraint over the n base variables by repeatedly
/// solving + blocking the projection onto the base variables.
int count_projected_models(Solver& s, const std::vector<Var>& base) {
  int models = 0;
  while (s.solve() == Result::kSat) {
    ++models;
    LitVec block;
    for (Var v : base) {
      block.push_back(mk_lit(v, s.model_value(v) == Lbool::kTrue));
    }
    s.add_clause(block);
    if (models > 4096) break;  // runaway guard
  }
  return models;
}

int binomial_sum_at_most(int n, int k) {
  // sum_{i=0..k} C(n,i)
  long long sum = 0, c = 1;
  for (int i = 0; i <= n; ++i) {
    if (i <= k) sum += c;
    c = c * (n - i) / (i + 1);
  }
  return static_cast<int>(sum);
}

struct AmkCase {
  int n, k;
};

class AtMostK : public ::testing::TestWithParam<AmkCase> {};

TEST_P(AtMostK, ModelCountMatchesBinomialSum) {
  const auto [n, k] = GetParam();
  Solver s;
  std::vector<Var> base;
  LitVec lits;
  for (int i = 0; i < n; ++i) {
    base.push_back(s.new_var());
    lits.push_back(mk_lit(base[i]));
  }
  SolverSink sink(s);
  at_most_k(sink, lits, k);
  EXPECT_EQ(count_projected_models(s, base), binomial_sum_at_most(n, k))
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AtMostK,
    ::testing::Values(AmkCase{1, 0}, AmkCase{2, 1}, AmkCase{3, 1}, AmkCase{3, 2},
                      AmkCase{4, 0}, AmkCase{4, 2}, AmkCase{5, 1}, AmkCase{5, 3},
                      AmkCase{6, 2}, AmkCase{6, 5}, AmkCase{7, 3}, AmkCase{8, 4}));

TEST(Cardinality, AtMostKTrivialWhenKGeqN) {
  Solver s;
  LitVec lits;
  std::vector<Var> base;
  for (int i = 0; i < 4; ++i) {
    base.push_back(s.new_var());
    lits.push_back(mk_lit(base[i]));
  }
  SolverSink sink(s);
  at_most_k(sink, lits, 4);
  EXPECT_EQ(count_projected_models(s, base), 16);
}

TEST(Cardinality, AtMostNegativeKIsUnsat) {
  Solver s;
  LitVec lits{mk_lit(s.new_var())};
  SolverSink sink(s);
  at_most_k(sink, lits, -1);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Cardinality, AtLeastKCounts) {
  Solver s;
  std::vector<Var> base;
  LitVec lits;
  for (int i = 0; i < 5; ++i) {
    base.push_back(s.new_var());
    lits.push_back(mk_lit(base[i]));
  }
  SolverSink sink(s);
  at_least_k(sink, lits, 3);
  // #models = C(5,3)+C(5,4)+C(5,5) = 10+5+1.
  EXPECT_EQ(count_projected_models(s, base), 16);
}

TEST(Cardinality, AtLeastOneAndPairwiseAtMostOne) {
  Solver s;
  std::vector<Var> base;
  LitVec lits;
  for (int i = 0; i < 6; ++i) {
    base.push_back(s.new_var());
    lits.push_back(mk_lit(base[i]));
  }
  SolverSink sink(s);
  at_least_one(sink, lits);
  at_most_one_pairwise(sink, lits);
  EXPECT_EQ(count_projected_models(s, base), 6);  // exactly-one
}

TEST(Cardinality, DiffAtMostKEnumerates) {
  // #models of (sum a) - (sum b) <= 1 over 3+3 free vars.
  Solver s;
  std::vector<Var> base;
  LitVec a, b;
  for (int i = 0; i < 3; ++i) {
    base.push_back(s.new_var());
    a.push_back(mk_lit(base.back()));
  }
  for (int i = 0; i < 3; ++i) {
    base.push_back(s.new_var());
    b.push_back(mk_lit(base.back()));
  }
  SolverSink sink(s);
  diff_at_most_k(sink, a, b, 1);
  int expect = 0;
  for (int m = 0; m < 64; ++m) {
    const int ca = __builtin_popcount(m & 7);
    const int cb = __builtin_popcount((m >> 3) & 7);
    if (ca - cb <= 1) ++expect;
  }
  EXPECT_EQ(count_projected_models(s, base), expect);
}

TEST(Cardinality, DiffNonNegativeEnumerates) {
  Solver s;
  std::vector<Var> base;
  LitVec a, b;
  for (int i = 0; i < 3; ++i) {
    base.push_back(s.new_var());
    a.push_back(mk_lit(base.back()));
  }
  for (int i = 0; i < 2; ++i) {
    base.push_back(s.new_var());
    b.push_back(mk_lit(base.back()));
  }
  SolverSink sink(s);
  diff_non_negative(sink, a, b);
  int expect = 0;
  for (int m = 0; m < 32; ++m) {
    const int ca = __builtin_popcount(m & 7);
    const int cb = __builtin_popcount((m >> 3) & 3);
    if (ca - cb >= 0) ++expect;
  }
  EXPECT_EQ(count_projected_models(s, base), expect);
}

// ---------- incremental counter --------------------------------------------

/// Enumerates every input pattern under the bound-k assumption set:
/// SAT exactly when popcount <= k. Exercises both enforcement (no pattern
/// above the bound survives) and extendability (no pattern within the
/// bound is cut off), without mutating the solver between bounds.
void check_bound_on_live_solver(Solver& s, const IncrementalCounter& tot,
                                const std::vector<Var>& base, int k) {
  for (int m = 0; m < (1 << base.size()); ++m) {
    LitVec assume;
    tot.assume_at_most(k, assume);
    for (std::size_t j = 0; j < base.size(); ++j) {
      assume.push_back(mk_lit(base[j], ((m >> j) & 1) == 0));
    }
    const bool expect = k >= 0 && __builtin_popcount(m) <= k;
    EXPECT_EQ(s.solve(assume), expect ? Result::kSat : Result::kUnsat)
        << "k=" << k << " pattern=" << m;
  }
}

TEST(IncrementalCounter, MonotoneTighteningOnOneSolver) {
  for (const int n : {1, 2, 5, 6}) {
    Solver s;
    std::vector<Var> base;
    LitVec lits;
    for (int i = 0; i < n; ++i) {
      base.push_back(s.new_var());
      lits.push_back(mk_lit(base[i]));
    }
    SolverSink sink(s);
    const IncrementalCounter tot(sink, lits);
    ASSERT_EQ(tot.size(), n);
    // One encoding, every bound: tighten from k >= n (no assumptions)
    // through k = 0 (all outputs assumed false) to the infeasible k = -1,
    // then loosen again — learned clauses must never leak across bounds.
    for (int k = n + 1; k >= -1; --k) {
      check_bound_on_live_solver(s, tot, base, k);
    }
    check_bound_on_live_solver(s, tot, base, n / 2);
  }
}

TEST(IncrementalCounter, MixedPolarityInputs) {
  // The finder's difference bounds track lists like alpha ∪ ¬beta; the
  // counter must count satisfied *literals*, not positive variables.
  Solver s;
  std::vector<Var> base;
  for (int i = 0; i < 4; ++i) base.push_back(s.new_var());
  const LitVec lits = {mk_lit(base[0]), ~mk_lit(base[1]), mk_lit(base[2]),
                       ~mk_lit(base[3])};
  SolverSink sink(s);
  const IncrementalCounter tot(sink, lits);
  for (int k = 4; k >= 0; --k) {
    for (int m = 0; m < 16; ++m) {
      LitVec assume;
      tot.assume_at_most(k, assume);
      int count = 0;
      for (int j = 0; j < 4; ++j) {
        const bool v = ((m >> j) & 1) != 0;
        assume.push_back(mk_lit(base[j], !v));
        const bool negated = j == 1 || j == 3;
        if (v != negated) ++count;
      }
      EXPECT_EQ(s.solve(assume), count <= k ? Result::kSat : Result::kUnsat)
          << "k=" << k << " pattern=" << m;
    }
  }
}

TEST(IncrementalCounter, UnsatCoreNamesStrongestRefutedBound) {
  // Three of five inputs are forced true; refuting "at most 1" must yield
  // a core naming output o_3 (sum forced >= 3), not merely o_2 — the
  // signal the optimum search uses to raise its lower bound past k+1.
  Solver s;
  std::vector<Var> base;
  LitVec lits;
  for (int i = 0; i < 5; ++i) {
    base.push_back(s.new_var());
    lits.push_back(mk_lit(base[i]));
  }
  SolverSink sink(s);
  const IncrementalCounter tot(sink, lits);
  for (int i = 0; i < 3; ++i) s.add_clause({lits[i]});

  LitVec assume;
  tot.assume_at_most(1, assume);
  ASSERT_EQ(s.solve(assume), Result::kUnsat);
  const LitVec& core = s.conflict_core();
  int min_output = 0;
  for (int j = 1; j <= tot.size(); ++j) {
    if (std::find(core.begin(), core.end(), ~tot.output(j)) != core.end()) {
      min_output = j;
      break;
    }
  }
  EXPECT_EQ(min_output, 3);
}

TEST(Tseitin, ConeEncodingMatchesSimulation) {
  Rng rng(7);
  for (int iter = 0; iter < 25; ++iter) {
    // Random 4-input AIG cone.
    aig::Aig a;
    std::vector<aig::Lit> pool;
    for (int i = 0; i < 4; ++i) pool.push_back(a.add_input());
    for (int g = 0; g < 20; ++g) {
      const aig::Lit f0 =
          pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
      const aig::Lit f1 =
          pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
      pool.push_back(a.land(f0, f1));
    }
    const aig::Lit root = pool.back() ^ (rng.next_bool() ? 1u : 0u);

    Solver s;
    std::vector<Lit> in_sat(4);
    for (auto& l : in_sat) l = mk_lit(s.new_var());
    SolverSink sink(s);
    const Lit r = encode_cone(a, root, in_sat, sink);

    // For every input assignment the SAT encoding must agree with
    // simulation under assumptions.
    std::vector<std::uint64_t> stim(4);
    for (int j = 0; j < 4; ++j) stim[j] = (0xffffULL / 3) << j;  // varied
    for (int m = 0; m < 16; ++m) {
      LitVec assume;
      std::vector<std::uint64_t> bits(4);
      for (int j = 0; j < 4; ++j) {
        const bool v = ((m >> j) & 1) != 0;
        bits[j] = v ? ~0ULL : 0;
        assume.push_back(v ? in_sat[j] : ~in_sat[j]);
      }
      const bool expect = (aig::simulate_cone(a, root, bits) & 1ULL) != 0;
      assume.push_back(expect ? ~r : r);  // assume the wrong value
      EXPECT_EQ(s.solve(assume), Result::kUnsat);
      assume.back() = expect ? r : ~r;  // and the right one
      EXPECT_EQ(s.solve(assume), Result::kSat);
    }
  }
}

TEST(Tseitin, ConstantRoot) {
  aig::Aig a;
  (void)a.add_input();
  Solver s;
  SolverSink sink(s);
  const Lit t = encode_cone(a, aig::kLitTrue, {mk_lit(s.new_var())}, sink);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(t), Lbool::kTrue);
}

TEST(Tseitin, AssertValueForcesRoot) {
  aig::Aig a;
  const aig::Lit x = a.add_input();
  const aig::Lit y = a.add_input();
  const aig::Lit f = a.land(x, y);
  Solver s;
  std::vector<Lit> in_sat{mk_lit(s.new_var()), mk_lit(s.new_var())};
  SolverSink sink(s);
  encode_cone_assert(a, f, in_sat, sink, true);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.model_value(in_sat[0]), Lbool::kTrue);
  EXPECT_EQ(s.model_value(in_sat[1]), Lbool::kTrue);
}

TEST(VecSinkTest, CollectsClauses) {
  VecSink sink(10);
  const Var v = sink.new_var();
  EXPECT_EQ(v, 10);
  sink.add_binary(mk_lit(v), ~mk_lit(v));
  ASSERT_EQ(sink.clauses().size(), 1u);
  EXPECT_EQ(sink.clauses()[0].size(), 2u);
}

}  // namespace
}  // namespace step::cnf
