#include "itp/interpolant.h"

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "common/rng.h"

namespace step::itp {
namespace {

using sat::Lit;
using sat::LitVec;
using sat::mk_lit;
using sat::Result;
using sat::Solver;
using sat::SolverOptions;

SolverOptions proof_options() {
  SolverOptions o;
  o.proof_logging = true;
  return o;
}

void add_vars(Solver& s, int num_vars) {
  for (int i = 0; i < num_vars; ++i) s.new_var();
}

bool clause_satisfied(const LitVec& c, std::uint64_t m) {
  for (Lit l : c) {
    if ((((m >> sat::var(l)) & 1ULL) != 0) != sat::sign(l)) return true;
  }
  return false;
}

bool all_satisfied(const std::vector<LitVec>& cs, std::uint64_t m) {
  for (const LitVec& c : cs) {
    if (!clause_satisfied(c, m)) return false;
  }
  return true;
}

/// Checks the two Craig properties by brute force over all assignments:
///   every model of A satisfies I;  no model of B satisfies I.
void check_interpolant(int num_vars, const std::vector<LitVec>& a_clauses,
                       const std::vector<LitVec>& b_clauses) {
  Solver s(proof_options());
  add_vars(s, num_vars);
  for (const LitVec& c : a_clauses) s.add_clause(c, kTagA);
  for (const LitVec& c : b_clauses) s.add_clause(c, kTagB);
  ASSERT_EQ(s.solve(), Result::kUnsat);

  // Shared variables get AIG inputs; everything else stays unmapped.
  std::vector<char> in_a(num_vars, 0), in_b(num_vars, 0);
  for (const LitVec& c : a_clauses) {
    for (Lit l : c) in_a[sat::var(l)] = 1;
  }
  for (const LitVec& c : b_clauses) {
    for (Lit l : c) in_b[sat::var(l)] = 1;
  }
  aig::Aig dst;
  std::vector<aig::Lit> shared_map(s.num_vars(), aig::kLitInvalid);
  std::vector<int> shared_vars;
  for (int v = 0; v < num_vars; ++v) {
    if (in_a[v] && in_b[v]) {
      shared_map[v] = dst.add_input();
      shared_vars.push_back(v);
    }
  }
  const aig::Lit itp = build_interpolant(s, dst, shared_map);

  auto eval_itp = [&](std::uint64_t m) {
    std::vector<std::uint64_t> stim(dst.num_inputs(), 0);
    for (std::size_t j = 0; j < shared_vars.size(); ++j) {
      stim[j] = ((m >> shared_vars[j]) & 1ULL) ? ~0ULL : 0;
    }
    return (aig::simulate_cone(dst, itp, stim) & 1ULL) != 0;
  };

  for (std::uint64_t m = 0; m < (1ULL << num_vars); ++m) {
    if (all_satisfied(a_clauses, m)) {
      EXPECT_TRUE(eval_itp(m)) << "A-model " << m << " violates A => I";
    }
    if (all_satisfied(b_clauses, m)) {
      EXPECT_FALSE(eval_itp(m)) << "B-model " << m << " violates I & B unsat";
    }
  }
}

TEST(Interpolant, SingleSharedVariable) {
  // A = {x}, B = {¬x}: the interpolant must be exactly x.
  check_interpolant(1, {{mk_lit(0)}}, {{~mk_lit(0)}});
}

TEST(Interpolant, AAloneUnsatGivesFalse) {
  Solver s(proof_options());
  add_vars(s, 1);
  s.add_clause({mk_lit(0)}, kTagA);
  s.add_clause({~mk_lit(0)}, kTagA);
  ASSERT_EQ(s.solve(), Result::kUnsat);
  aig::Aig dst;
  const aig::Lit itp =
      build_interpolant(s, dst, std::vector<aig::Lit>(1, aig::kLitInvalid));
  EXPECT_EQ(itp, aig::kLitFalse);
}

TEST(Interpolant, BAloneUnsatGivesTrue) {
  Solver s(proof_options());
  add_vars(s, 1);
  s.add_clause({mk_lit(0)}, kTagB);
  s.add_clause({~mk_lit(0)}, kTagB);
  ASSERT_EQ(s.solve(), Result::kUnsat);
  aig::Aig dst;
  const aig::Lit itp =
      build_interpolant(s, dst, std::vector<aig::Lit>(1, aig::kLitInvalid));
  EXPECT_EQ(itp, aig::kLitTrue);
}

TEST(Interpolant, ChainThroughLocalVariables) {
  // A: a, a->s;  B: s->b, ¬b.  Shared: s. Interpolant must be s.
  // vars: 0=a (A-local), 1=s (shared), 2=b (B-local).
  check_interpolant(3,
                    {{mk_lit(0)}, {~mk_lit(0), mk_lit(1)}},
                    {{~mk_lit(1), mk_lit(2)}, {~mk_lit(2)}});
}

TEST(Interpolant, TwoSharedVariables) {
  // A forces s0 ∧ s1 through a local var; B forbids s0 ∧ s1.
  check_interpolant(
      3, {{mk_lit(2)}, {~mk_lit(2), mk_lit(0)}, {~mk_lit(2), mk_lit(1)}},
      {{~mk_lit(0), ~mk_lit(1)}});
}

class InterpolantRandom : public ::testing::TestWithParam<int> {};

TEST_P(InterpolantRandom, CraigPropertiesHoldOnRandomRefutations) {
  Rng rng(GetParam() * 48611 + 29);
  int checked = 0;
  for (int iter = 0; iter < 120 && checked < 10; ++iter) {
    const int nv = rng.next_int(3, 8);
    std::vector<LitVec> a_cl, b_cl;
    const int nc = rng.next_int(6, 26);
    for (int i = 0; i < nc; ++i) {
      LitVec c;
      const int w = rng.next_int(1, 3);
      for (int j = 0; j < w; ++j) {
        c.push_back(mk_lit(rng.next_int(0, nv - 1), rng.next_bool()));
      }
      (rng.next_bool() ? a_cl : b_cl).push_back(c);
    }
    if (a_cl.empty() || b_cl.empty()) continue;

    // Keep only UNSAT instances.
    bool sat_somewhere = false;
    for (std::uint64_t m = 0; m < (1ULL << nv) && !sat_somewhere; ++m) {
      if (all_satisfied(a_cl, m) && all_satisfied(b_cl, m)) {
        sat_somewhere = true;
      }
    }
    if (sat_somewhere) continue;
    ++checked;
    check_interpolant(nv, a_cl, b_cl);
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpolantRandom, ::testing::Range(0, 10));

}  // namespace
}  // namespace step::itp
