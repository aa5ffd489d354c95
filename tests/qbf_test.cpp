#include "qbf/qbf2.h"

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "common/rng.h"
#include "test_util.h"

namespace step::qbf {
namespace {

using aig::Aig;

/// Brute-force evaluation of ∃outer ∀inner. φ over the matrix truth table.
bool brute_force_exists_forall(const Aig& m, aig::Lit root,
                               const std::vector<std::uint32_t>& outer,
                               const std::vector<std::uint32_t>& inner) {
  const std::size_t no = outer.size(), ni = inner.size();
  std::vector<std::uint64_t> stim(m.num_inputs(), 0);
  for (std::size_t mo = 0; mo < (std::size_t{1} << no); ++mo) {
    bool all_inner = true;
    for (std::size_t mi = 0; mi < (std::size_t{1} << ni) && all_inner; ++mi) {
      for (std::size_t j = 0; j < no; ++j) {
        stim[outer[j]] = ((mo >> j) & 1U) ? ~0ULL : 0;
      }
      for (std::size_t j = 0; j < ni; ++j) {
        stim[inner[j]] = ((mi >> j) & 1U) ? ~0ULL : 0;
      }
      if ((aig::simulate_cone(m, root, stim) & 1ULL) == 0) all_inner = false;
    }
    if (all_inner) return true;
  }
  return false;
}

TEST(Qbf2, TautologyMatrixIsTrue) {
  Aig m;
  const aig::Lit a = m.add_input("a");
  const aig::Lit x = m.add_input("x");
  const aig::Lit root = m.lor(m.lor(a, aig::lnot(a)), x);  // constant-ish true
  ExistsForallSolver s(m, root, {0}, {1});
  EXPECT_EQ(s.solve().status, Qbf2Status::kTrue);
}

TEST(Qbf2, ExistsWitnessReturned) {
  // ∃a ∀x. a ∨ (x ∧ ¬x)  — true with a = 1.
  Aig m;
  const aig::Lit a = m.add_input("a");
  (void)m.add_input("x");
  ExistsForallSolver s(m, a, {0}, {1});
  const Qbf2Result r = s.solve();
  ASSERT_EQ(r.status, Qbf2Status::kTrue);
  EXPECT_EQ(r.outer_model[0], sat::Lbool::kTrue);
}

TEST(Qbf2, XorMatrixIsFalse) {
  // ∃a ∀x. a ⊕ x — false: no a works for both x values.
  Aig m;
  const aig::Lit a = m.add_input("a");
  const aig::Lit x = m.add_input("x");
  ExistsForallSolver s(m, m.lxor(a, x), {0}, {1});
  EXPECT_EQ(s.solve().status, Qbf2Status::kFalse);
}

TEST(Qbf2, ImplicationNeedsBothOuters) {
  // ∃a,b ∀x,y. (x∧y) → (a∧b) requires... (x∧y)→(a∧b) must hold for all
  // x,y, so a=b=1.
  Aig m;
  const aig::Lit a = m.add_input("a");
  const aig::Lit b = m.add_input("b");
  const aig::Lit x = m.add_input("x");
  const aig::Lit y = m.add_input("y");
  const aig::Lit root = m.lor(aig::lnot(m.land(x, y)), m.land(a, b));
  ExistsForallSolver s(m, root, {0, 1}, {2, 3});
  const Qbf2Result r = s.solve();
  ASSERT_EQ(r.status, Qbf2Status::kTrue);
  EXPECT_EQ(r.outer_model[0], sat::Lbool::kTrue);
  EXPECT_EQ(r.outer_model[1], sat::Lbool::kTrue);
}

TEST(Qbf2, SideConstraintsRestrictWitness) {
  // ∃a,b ∀x. (a ∨ b ∨ x) with side constraint ¬a: must pick b.
  Aig m;
  const aig::Lit a = m.add_input("a");
  const aig::Lit b = m.add_input("b");
  const aig::Lit x = m.add_input("x");
  const aig::Lit root = m.lor(m.lor(a, b), x);
  ExistsForallSolver s(m, root, {0, 1}, {2});
  s.abstraction().add_clause({~sat::mk_lit(s.outer_var(0))});
  const Qbf2Result r = s.solve();
  ASSERT_EQ(r.status, Qbf2Status::kTrue);
  EXPECT_EQ(r.outer_model[0], sat::Lbool::kFalse);
  EXPECT_EQ(r.outer_model[1], sat::Lbool::kTrue);
}

TEST(Qbf2, UnsatisfiableSideConstraintsGiveFalse) {
  Aig m;
  const aig::Lit a = m.add_input("a");
  (void)m.add_input("x");
  ExistsForallSolver s(m, a, {0}, {1});
  s.abstraction().add_clause({~sat::mk_lit(s.outer_var(0))});
  EXPECT_EQ(s.solve().status, Qbf2Status::kFalse);
}

TEST(Qbf2, ExpiredDeadlineIsUnknown) {
  Aig m;
  const aig::Lit a = m.add_input("a");
  const aig::Lit x = m.add_input("x");
  ExistsForallSolver s(m, m.lor(a, x), {0}, {1});
  const Deadline expired(1e-9);
  EXPECT_EQ(s.solve(&expired).status, Qbf2Status::kUnknown);
}

class Qbf2Random : public ::testing::TestWithParam<int> {};

TEST_P(Qbf2Random, AgreesWithBruteForce) {
  Rng rng(GetParam() * 131071 + 19);
  // Returns whether the solve Tseitin-encoded a refinement (a cofactor
  // that is not a clause): the only source of abstraction variables past
  // the outer ones.
  auto check = [&](const Aig& m, aig::Lit root,
                   const std::vector<std::uint32_t>& outer,
                   const std::vector<std::uint32_t>& inner, int iter) {
    const bool expect = brute_force_exists_forall(m, root, outer, inner);
    ExistsForallSolver s(m, root, outer, inner);
    const Qbf2Result r = s.solve();
    EXPECT_EQ(r.status, expect ? Qbf2Status::kTrue : Qbf2Status::kFalse)
        << "seed=" << GetParam() << " iter=" << iter;

    if (r.status == Qbf2Status::kTrue) {
      // The returned witness must make the matrix a tautology over inner.
      std::vector<std::uint64_t> stim(m.num_inputs(), 0);
      for (std::size_t j = 0; j < outer.size(); ++j) {
        stim[outer[j]] = r.outer_model[j] == sat::Lbool::kTrue ? ~0ULL : 0;
      }
      for (std::size_t mi = 0; mi < (std::size_t{1} << inner.size()); ++mi) {
        for (std::size_t j = 0; j < inner.size(); ++j) {
          stim[inner[j]] = ((mi >> j) & 1U) ? ~0ULL : 0;
        }
        EXPECT_NE(aig::simulate_cone(m, root, stim) & 1ULL, 0ULL);
      }
    }
    return s.abstraction().num_vars() > static_cast<int>(outer.size());
  };

  for (int iter = 0; iter < 30; ++iter) {
    const int no = rng.next_int(1, 3);
    const int ni = rng.next_int(1, 3);
    Aig m;
    std::vector<aig::Lit> pool;
    std::vector<std::uint32_t> outer, inner;
    for (int i = 0; i < no; ++i) {
      pool.push_back(m.add_input());
      outer.push_back(m.num_inputs() - 1);
    }
    for (int i = 0; i < ni; ++i) {
      pool.push_back(m.add_input());
      inner.push_back(m.num_inputs() - 1);
    }
    for (int g = 0; g < rng.next_int(4, 16); ++g) {
      const aig::Lit f0 =
          pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
      const aig::Lit f1 =
          pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
      pool.push_back(m.land(f0, f1));
    }
    check(m, pool.back() ^ (rng.next_bool() ? 1u : 0u), outer, inner, iter);
  }

  // On these seeds every cofactor of the shapes above is a clause. Four
  // inputs split 2/2 over 6–18 gates also cofactor to other functions, so
  // the refinement's Tseitin branch gets the same brute-force check.
  int tseitin = 0;
  for (int iter = 30; iter < 70; ++iter) {
    const core::Cone c =
        testutil::random_cone(4, rng.next_int(6, 18), rng.next());
    if (check(c.aig, c.root, {0, 1}, {2, 3}, iter)) ++tseitin;
  }
  EXPECT_GT(tseitin, 0) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Qbf2Random, ::testing::Range(0, 10));

}  // namespace
}  // namespace step::qbf
