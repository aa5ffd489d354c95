#include "core/extract.h"

#include <gtest/gtest.h>

#include "aig/support.h"
#include "core/partition_check.h"
#include "test_util.h"

namespace step::core {
namespace {

Partition make_p(std::initializer_list<char> spec) {
  Partition p;
  for (char ch : spec) {
    p.cls.push_back(ch == 'A' ? VarClass::kA
                              : ch == 'B' ? VarClass::kB : VarClass::kC);
  }
  return p;
}

/// Support of the extracted functions must respect the partition:
/// fa touches only XA ∪ XC, fb only XB ∪ XC.
void expect_supports_respected(const ExtractedFunctions& fns,
                               const Partition& p) {
  for (std::uint32_t i : aig::structural_support(fns.aig, fns.fa)) {
    EXPECT_NE(p.cls[i], VarClass::kB) << "fa reads an XB variable";
  }
  for (std::uint32_t i : aig::structural_support(fns.aig, fns.fb)) {
    EXPECT_NE(p.cls[i], VarClass::kA) << "fb reads an XA variable";
  }
}

/// Exhaustive equivalence of f and the recombination.
void expect_recombines(const Cone& cone, const ExtractedFunctions& fns) {
  EXPECT_TRUE(testutil::equivalent_by_simulation(cone.aig, cone.root, fns.aig,
                                                 fns.combined, cone.n()));
}

/// The checks above for a cone of more than aig::kTtMaxSupport inputs,
/// where fA/fB come from Craig interpolants (OR/AND) and verification
/// runs the SAT miter; recombination is checked by the miter too.
void expect_wide_extraction(const Cone& cone, GateOp op, const Partition& p) {
  ASSERT_GT(cone.n(), aig::kTtMaxSupport);
  const ExtractedFunctions fns = extract_functions(cone, op, p);
  expect_supports_respected(fns, p);
  EXPECT_TRUE(miter_equivalent_on_care(cone.aig, cone.root, fns.aig,
                                       fns.combined, nullptr))
      << to_string(op) << " " << p.to_string();
  EXPECT_TRUE(verify_decomposition(cone, fns));
}

TEST(Extract, OrOfTwoVariables) {
  Cone c;
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  c.root = c.aig.lor(x, y);
  const Partition p = make_p({'A', 'B'});
  const ExtractedFunctions fns = extract_functions(c, GateOp::kOr, p);
  expect_supports_respected(fns, p);
  expect_recombines(c, fns);
  EXPECT_TRUE(verify_decomposition(c, fns));
}

TEST(Extract, AndDuality) {
  Cone c;
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  const aig::Lit z = c.aig.add_input();
  c.root = c.aig.land(c.aig.land(x, y), z);
  const Partition p = make_p({'A', 'A', 'B'});
  ASSERT_TRUE(check_partition_exhaustive(c, GateOp::kAnd, p));
  const ExtractedFunctions fns = extract_functions(c, GateOp::kAnd, p);
  expect_supports_respected(fns, p);
  expect_recombines(c, fns);
  EXPECT_TRUE(verify_decomposition(c, fns));
}

TEST(Extract, XorByCofactoring) {
  Cone c;
  std::vector<aig::Lit> xs;
  for (int i = 0; i < 5; ++i) xs.push_back(c.aig.add_input());
  c.root = c.aig.lxor_many(xs);
  const Partition p = make_p({'A', 'A', 'B', 'B', 'B'});
  ASSERT_TRUE(check_partition_exhaustive(c, GateOp::kXor, p));
  const ExtractedFunctions fns = extract_functions(c, GateOp::kXor, p);
  expect_supports_respected(fns, p);
  expect_recombines(c, fns);
  EXPECT_TRUE(verify_decomposition(c, fns));
}

TEST(Extract, MuxWithSharedSelect) {
  Cone c;
  const aig::Lit s = c.aig.add_input();
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  c.root = c.aig.lmux(s, x, y);
  const Partition p = make_p({'C', 'A', 'B'});
  const ExtractedFunctions fns = extract_functions(c, GateOp::kOr, p);
  expect_supports_respected(fns, p);
  expect_recombines(c, fns);
  EXPECT_TRUE(verify_decomposition(c, fns));
}

struct OpSeed {
  GateOp op;
  int seed;
};

class ExtractRandom : public ::testing::TestWithParam<OpSeed> {};

TEST_P(ExtractRandom, RandomValidPartitionsRecombineExactly) {
  const auto [op, seed] = GetParam();
  Rng rng(seed * 40093 + 9);
  int checked = 0;
  for (int iter = 0; iter < 120 && checked < 15; ++iter) {
    const int n = rng.next_int(2, 7);
    const Cone cone = testutil::random_cone(n, rng.next_int(4, 28), rng.next());
    const Partition p = testutil::random_partition(n, rng);
    if (!p.non_trivial()) continue;
    if (!check_partition_exhaustive(cone, op, p)) continue;
    ++checked;

    const ExtractedFunctions fns = extract_functions(cone, op, p);
    expect_supports_respected(fns, p);
    expect_recombines(cone, fns);
    EXPECT_TRUE(verify_decomposition(cone, fns));
  }
  EXPECT_GT(checked, 4) << "random mix produced too few valid partitions";
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ExtractRandom,
    ::testing::Values(OpSeed{GateOp::kOr, 0}, OpSeed{GateOp::kOr, 1},
                      OpSeed{GateOp::kOr, 2}, OpSeed{GateOp::kAnd, 0},
                      OpSeed{GateOp::kAnd, 1}, OpSeed{GateOp::kAnd, 2},
                      OpSeed{GateOp::kXor, 0}, OpSeed{GateOp::kXor, 1},
                      OpSeed{GateOp::kXor, 2}));

// ---------- above the truth-table tier ---------------------------------------
// OR/AND cones of at most aig::kTtMaxSupport inputs take fA/fB from their
// truth table; the same cases padded with unused inputs take them from
// interpolation.

TEST(ExtractWide, SmallShapesPaddedAboveTheTableTier) {
  Rng rng(4711);
  const int n = aig::kTtMaxSupport + 1;
  {  // OrOfTwoVariables
    Cone c;
    const aig::Lit x = c.aig.add_input();
    const aig::Lit y = c.aig.add_input();
    c.root = c.aig.lor(x, y);
    Partition p = make_p({'A', 'B'});
    testutil::pad_inputs(c, p, n, rng);
    expect_wide_extraction(c, GateOp::kOr, p);
  }
  {  // AndDuality
    Cone c;
    const aig::Lit x = c.aig.add_input();
    const aig::Lit y = c.aig.add_input();
    const aig::Lit z = c.aig.add_input();
    c.root = c.aig.land(c.aig.land(x, y), z);
    Partition p = make_p({'A', 'A', 'B'});
    testutil::pad_inputs(c, p, n, rng);
    ASSERT_TRUE(check_partition(c, GateOp::kAnd, p));
    expect_wide_extraction(c, GateOp::kAnd, p);
  }
  {  // MuxWithSharedSelect
    Cone c;
    const aig::Lit s = c.aig.add_input();
    const aig::Lit x = c.aig.add_input();
    const aig::Lit y = c.aig.add_input();
    c.root = c.aig.lmux(s, x, y);
    Partition p = make_p({'C', 'A', 'B'});
    testutil::pad_inputs(c, p, n, rng);
    expect_wide_extraction(c, GateOp::kOr, p);
  }
}

class ExtractRandomWide : public ::testing::TestWithParam<OpSeed> {};

TEST_P(ExtractRandomWide, RandomValidPartitionsRecombineThroughInterpolation) {
  const auto [op, seed] = GetParam();
  Rng rng(seed * 40093 + 17);
  // ExtractRandom's cones and partitions, padded to 17-20 inputs.
  int checked = 0;
  for (int iter = 0; iter < 120 && checked < 8; ++iter) {
    const int n = rng.next_int(2, 7);
    Cone cone = testutil::random_cone(n, rng.next_int(4, 28), rng.next());
    Partition p = testutil::random_partition(n, rng);
    if (!p.non_trivial()) continue;
    if (!check_partition_exhaustive(cone, op, p)) continue;
    ++checked;
    testutil::pad_inputs(
        cone, p, rng.next_int(aig::kTtMaxSupport + 1, aig::kTtMaxSupport + 4),
        rng);
    expect_wide_extraction(cone, op, p);
  }
  EXPECT_GT(checked, 4) << "random mix produced too few valid partitions";
  // Cones that use most of their 17-20 inputs.
  for (int iter = 0; iter < 3; ++iter) {
    const testutil::DecomposableCone d = testutil::decomposable_cone(
        rng.next_int(aig::kTtMaxSupport + 1, aig::kTtMaxSupport + 4), op, rng);
    expect_wide_extraction(d.cone, op, d.partition);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ExtractRandomWide,
    ::testing::Values(OpSeed{GateOp::kOr, 0}, OpSeed{GateOp::kOr, 1},
                      OpSeed{GateOp::kOr, 2}, OpSeed{GateOp::kAnd, 0},
                      OpSeed{GateOp::kAnd, 1}, OpSeed{GateOp::kAnd, 2}));

TEST(Extract, VerifyRejectsWrongRecombination) {
  // verify_decomposition must actually catch mistakes: feed it a bogus
  // function pair.
  Cone c;
  const aig::Lit x = c.aig.add_input();
  const aig::Lit y = c.aig.add_input();
  c.root = c.aig.lor(x, y);
  ExtractedFunctions bogus;
  const aig::Lit bx = bogus.aig.add_input();
  const aig::Lit by = bogus.aig.add_input();
  bogus.fa = bx;
  bogus.fb = by;
  bogus.combined = bogus.aig.land(bx, by);  // AND instead of OR
  EXPECT_FALSE(verify_decomposition(c, bogus));
}

}  // namespace
}  // namespace step::core
