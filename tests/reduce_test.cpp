#include "core/reduce.h"

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "aig/support.h"
#include "test_util.h"

namespace step::core {
namespace {

TEST(Reduce, DropsStructurallyConnectedButIrrelevantInput) {
  // f = (x & y) | (x & !y) == x.
  Cone c;
  const aig::Lit x = c.aig.add_input("x");
  const aig::Lit y = c.aig.add_input("y");
  c.root = c.aig.lor(c.aig.land(x, y), c.aig.land(x, aig::lnot(y)));

  EXPECT_TRUE(depends_on(c, 0));
  EXPECT_FALSE(depends_on(c, 1));

  std::vector<std::uint32_t> kept;
  const Cone r = reduce_cone(c, &kept);
  EXPECT_EQ(kept, (std::vector<std::uint32_t>{0}));
  ASSERT_EQ(r.n(), 1);
  EXPECT_EQ(r.aig.input_name(0), "x");
  // Function preserved: r == x.
  const auto tt = aig::truth_table(r.aig, r.root, {0});
  EXPECT_EQ(tt[0] & 0b11, 0b10u);
}

TEST(Reduce, TightConeIsUntouched) {
  Cone c;
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  c.root = c.aig.lxor(x, y);
  std::vector<std::uint32_t> kept;
  const Cone r = reduce_cone(c, &kept);
  EXPECT_EQ(r.n(), 2);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(Reduce, ConstantFunctionLosesAllInputs) {
  Cone c;
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  c.root = c.aig.lor(c.aig.land(x, y), aig::lnot(c.aig.land(x, y)));  // true
  const Cone r = reduce_cone(c);
  EXPECT_EQ(r.n(), 0);
  EXPECT_EQ(r.root, aig::kLitTrue);
}

class ReduceRandom : public ::testing::TestWithParam<int> {};

TEST_P(ReduceRandom, MatchesTheOtherPathsOracle) {
  // reduce_cone reads a truth table up to aig::kTtMaxSupport inputs and
  // runs one SAT check per input beyond. Each side is checked against the
  // other: per-input SAT depends_on for the narrow cones, the truth-table
  // functional_support for 17–20-input ones.
  Rng rng(GetParam() * 911 + 5);
  for (int iter = 0; iter < 24; ++iter) {
    const bool wide = iter % 4 == 3;
    const int n = wide ? rng.next_int(aig::kTtMaxSupport + 1, 20)
                       : rng.next_int(2, 8);
    const Cone cone = testutil::random_cone(
        n, wide ? rng.next_int(n, 3 * n) : rng.next_int(3, 24), rng.next());
    std::vector<std::uint32_t> oracle;
    if (wide) {
      oracle = aig::functional_support(cone.aig, cone.root);
    } else {
      for (std::uint32_t i = 0; i < cone.aig.num_inputs(); ++i) {
        if (depends_on(cone, i)) oracle.push_back(i);
      }
    }
    std::vector<std::uint32_t> kept;
    const Cone r = reduce_cone(cone, &kept);
    EXPECT_EQ(kept, oracle) << "seed=" << GetParam() << " iter=" << iter;
    // Function preserved on the surviving support.
    if (r.n() >= 1 && r.n() == static_cast<int>(oracle.size())) {
      const auto tt_red = aig::truth_table(
          r.aig, r.root,
          [&] {
            std::vector<std::uint32_t> all(r.n());
            for (int i = 0; i < r.n(); ++i) all[i] = i;
            return all;
          }());
      const auto tt_orig = aig::truth_table(cone.aig, cone.root, oracle);
      EXPECT_EQ(tt_red, tt_orig);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceRandom, ::testing::Range(0, 6));

}  // namespace
}  // namespace step::core
