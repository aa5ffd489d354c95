#include "aig/aig.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "aig/ops.h"
#include "aig/simulate.h"
#include "aig/support.h"
#include "common/rng.h"

namespace step::aig {
namespace {

// ---------- construction / strashing -----------------------------------------

TEST(AigBuild, ConstantsFold) {
  Aig a;
  const Lit x = a.add_input();
  EXPECT_EQ(a.land(kLitFalse, x), kLitFalse);
  EXPECT_EQ(a.land(kLitTrue, x), x);
  EXPECT_EQ(a.land(x, x), x);
  EXPECT_EQ(a.land(x, lnot(x)), kLitFalse);
  EXPECT_EQ(a.num_ands(), 0u);
}

TEST(AigBuild, StructuralHashingSharesNodes) {
  Aig a;
  const Lit x = a.add_input();
  const Lit y = a.add_input();
  const Lit g1 = a.land(x, y);
  const Lit g2 = a.land(y, x);  // commuted
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(a.num_ands(), 1u);
}

TEST(AigBuild, OrAndXorSemantics) {
  Aig a;
  const Lit x = a.add_input();
  const Lit y = a.add_input();
  const Lit o = a.lor(x, y);
  const Lit xo = a.lxor(x, y);
  const Lit m = a.lmux(x, y, lnot(y));  // x ? y : ¬y == xnor(x,y)
  const std::vector<std::uint64_t> in{0b0101, 0b0011};
  EXPECT_EQ(simulate_cone(a, o, in) & 0xf, 0b0111u);
  EXPECT_EQ(simulate_cone(a, xo, in) & 0xf, 0b0110u);
  EXPECT_EQ(simulate_cone(a, m, in) & 0xf, 0b1001u);
}

TEST(AigBuild, MuxTruthTable) {
  Aig a;
  const Lit s = a.add_input();
  const Lit t = a.add_input();
  const Lit e = a.add_input();
  const Lit m = a.lmux(s, t, e);
  const std::vector<std::uint32_t> support{0, 1, 2};
  const auto tt = truth_table(a, m, support);
  for (int row = 0; row < 8; ++row) {
    const bool sv = (row & 1) != 0, tv = (row & 2) != 0, ev = (row & 4) != 0;
    EXPECT_EQ(tt_bit(tt, row), sv ? tv : ev) << "row " << row;
  }
}

TEST(AigBuild, ManyInputOps) {
  Aig a;
  std::vector<Lit> xs;
  for (int i = 0; i < 7; ++i) xs.push_back(a.add_input());
  const Lit all = a.land_many(xs);
  const Lit any = a.lor_many(xs);
  const Lit par = a.lxor_many(xs);
  std::vector<std::uint32_t> support;
  for (int i = 0; i < 7; ++i) support.push_back(i);
  const auto t_all = truth_table(a, all, support);
  const auto t_any = truth_table(a, any, support);
  const auto t_par = truth_table(a, par, support);
  for (int row = 0; row < 128; ++row) {
    EXPECT_EQ(tt_bit(t_all, row), row == 127);
    EXPECT_EQ(tt_bit(t_any, row), row != 0);
    EXPECT_EQ(tt_bit(t_par, row), (__builtin_popcount(row) & 1) != 0);
  }
}

TEST(AigBuild, EmptyManyOps) {
  Aig a;
  EXPECT_EQ(a.land_many({}), kLitTrue);
  EXPECT_EQ(a.lor_many({}), kLitFalse);
  EXPECT_EQ(a.lxor_many({}), kLitFalse);
}

// ---------- cone copy / cofactor ----------------------------------------------

TEST(AigOps, CopyConePreservesFunction) {
  Rng rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    Aig src;
    std::vector<Lit> pool;
    for (int i = 0; i < 5; ++i) pool.push_back(src.add_input());
    for (int g = 0; g < 30; ++g) {
      const Lit f0 = pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
      const Lit f1 = pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
      pool.push_back(src.land(f0, f1));
    }
    const Lit root = pool.back() ^ (rng.next_bool() ? 1u : 0u);

    Aig dst;
    std::vector<Lit> map;
    for (int i = 0; i < 5; ++i) map.push_back(dst.add_input());
    const Lit croot = copy_cone(src, root, dst, map);

    std::vector<std::uint64_t> stim(5);
    for (auto& w : stim) w = rng.next();
    EXPECT_EQ(simulate_cone(src, root, stim), simulate_cone(dst, croot, stim));
  }
}

TEST(AigOps, CofactorFixesInputs) {
  Aig src;
  const Lit x = src.add_input("x");
  const Lit y = src.add_input("y");
  const Lit z = src.add_input("z");
  const Lit f = src.lor(src.land(x, y), src.land(lnot(x), z));  // mux(x,y,z)

  Aig dst;
  std::vector<Lit> free_map{kLitInvalid, dst.add_input("y"), dst.add_input("z")};
  // x <- 1: f becomes y.
  const Lit f1 = cofactor(src, f, dst, {1, -1, -1}, free_map);
  EXPECT_EQ(f1, free_map[1]);
  // x <- 0: f becomes z.
  const Lit f0 = cofactor(src, f, dst, {0, -1, -1}, free_map);
  EXPECT_EQ(f0, free_map[2]);
}

TEST(AigOps, CofactorToConstant) {
  Aig src;
  const Lit x = src.add_input();
  const Lit y = src.add_input();
  const Lit f = src.land(x, y);
  Aig dst;
  const Lit yd = dst.add_input();
  const Lit c = cofactor(src, f, dst, {0, -1}, {kLitInvalid, yd});
  EXPECT_EQ(c, kLitFalse);
  const Lit c1 = cofactor(src, f, dst, {1, -1}, {kLitInvalid, yd});
  EXPECT_EQ(c1, yd);
}

TEST(AigOps, ExtractConeCreatesMinimalInputs) {
  Aig src;
  const Lit x = src.add_input("x");
  (void)src.add_input("unused");
  const Lit z = src.add_input("z");
  const Lit f = src.land(x, lnot(z));
  src.add_output(f, "f");

  Aig dst;
  std::vector<std::uint32_t> used;
  std::vector<Lit> created;
  const Lit r = extract_cone(src, f, dst, used, created);
  EXPECT_EQ(dst.num_inputs(), 2u);
  EXPECT_EQ(used, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(dst.input_name(0), "x");
  EXPECT_EQ(dst.input_name(1), "z");
  const std::vector<std::uint64_t> stim{0b0101, 0b0011};
  EXPECT_EQ(simulate_cone(dst, r, stim) & 0xf, 0b0101u & ~0b0011u & 0xf);
}

// ---------- support ------------------------------------------------------------

TEST(AigSupport, StructuralSupportOfCone) {
  Aig a;
  const Lit x = a.add_input();
  (void)a.add_input();
  const Lit z = a.add_input();
  const Lit f = a.lor(x, z);
  EXPECT_EQ(structural_support(a, f), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_TRUE(structural_support(a, kLitTrue).empty());
}

TEST(AigSupport, FunctionalTighterThanStructural) {
  Aig a;
  const Lit x = a.add_input();
  const Lit y = a.add_input();
  // f = (x & y) | (x & !y) == x: y is structurally but not semantically in.
  const Lit f = a.lor(a.land(x, y), a.land(x, lnot(y)));
  EXPECT_EQ(structural_support(a, f), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(functional_support(a, f), (std::vector<std::uint32_t>{0}));
}

// ---------- simulation ----------------------------------------------------------

TEST(AigSim, OutputsFollowDrivers) {
  Aig a;
  const Lit x = a.add_input();
  const Lit y = a.add_input();
  a.add_output(a.land(x, y), "and");
  a.add_output(lnot(a.land(x, y)), "nand");
  const auto out = simulate(a, {0b1100, 0b1010});
  EXPECT_EQ(out[0] & 0xf, 0b1000u);
  EXPECT_EQ(out[1] & 0xf, 0b0111u);
}

TEST(AigSim, TruthTableWideSupport) {
  // 8-input AND: single 1 at the top row of a 256-row table.
  Aig a;
  std::vector<Lit> xs;
  std::vector<std::uint32_t> support;
  for (int i = 0; i < 8; ++i) {
    xs.push_back(a.add_input());
    support.push_back(i);
  }
  const auto tt = truth_table(a, a.land_many(xs), support);
  ASSERT_EQ(tt.size(), tt_words(8));
  for (int row = 0; row < 256; ++row) {
    EXPECT_EQ(tt_bit(tt, row), row == 255);
  }
}

/// Random table over n variables, masked to its 2^n rows. Some variables
/// are made irrelevant (their cofactors copied) and some blocks constant,
/// so the builder's early exits are exercised.
std::vector<std::uint64_t> random_table(int n, Rng& rng) {
  std::vector<std::uint64_t> tt(tt_words(n));
  for (auto& w : tt) w = rng.next();
  const std::size_t rows = std::size_t{1} << n;
  for (int j = 0; j < n; ++j) {
    if (rng.next_int(0, 3) != 0) continue;
    for (std::size_t r = 0; r < rows; ++r) {  // f := f|xj=0
      if ((r >> j) & 1U) {
        const std::size_t r0 = r & ~(std::size_t{1} << j);
        const std::uint64_t bit = (tt[r0 >> 6] >> (r0 & 63)) & 1ULL;
        tt[r >> 6] = (tt[r >> 6] & ~(1ULL << (r & 63))) | (bit << (r & 63));
      }
    }
  }
  if (n >= 8 && rng.next_bool()) {
    const std::uint64_t fill = rng.next_bool() ? ~0ULL : 0ULL;
    for (std::size_t w = 0; w < tt.size() / 2; ++w) tt[w] = fill;
  }
  if (n < 6) tt[0] &= (1ULL << rows) - 1;
  return tt;
}

TEST(AigOps, BuildFromTtSimulatesBackToItsTable) {
  Rng rng(90210);
  for (int iter = 0; iter < 60; ++iter) {
    const int n = iter < 17 ? iter : rng.next_int(0, 16);
    const std::vector<std::uint64_t> tt = random_table(n, rng);
    Aig a;
    std::vector<Lit> inputs(n);
    std::vector<std::uint32_t> support(n);
    for (int i = 0; i < n; ++i) {
      inputs[i] = a.add_input();
      support[i] = i;
    }
    const Lit root = build_from_tt(a, tt, inputs);
    EXPECT_EQ(truth_table(a, root, support), tt) << "n=" << n;
  }
}

TEST(AigOps, BuildFromTtAndOrOfLiteralsTakesOneAndPerLiteralPair) {
  for (int n = 1; n <= 16; ++n) {
    for (const bool is_and : {true, false}) {
      std::vector<std::uint64_t> tt(tt_words(n), is_and ? 0ULL : ~0ULL);
      const std::size_t rows = std::size_t{1} << n;
      // AND: only the all-ones row; OR: every row but the all-zeros one.
      if (is_and) {
        tt[(rows - 1) >> 6] |= 1ULL << ((rows - 1) & 63);
      } else {
        tt[0] &= ~1ULL;
        if (n < 6) tt[0] &= (1ULL << rows) - 1;
      }
      Aig a;
      std::vector<Lit> inputs(n);
      for (int i = 0; i < n; ++i) inputs[i] = a.add_input();
      build_from_tt(a, tt, inputs);
      EXPECT_EQ(a.num_ands(), static_cast<std::uint32_t>(n - 1))
          << (is_and ? "AND" : "OR") << " of " << n;
    }
  }
}

TEST(AigSim, TruthTableMatchesSimulation) {
  // Node-major tables against word-level simulation of the whole AIG on
  // random rows: complemented and constant roots, supports that are
  // supersets of the cone's (in shuffled order, with indices the AIG
  // does not have), 2 to 16 variables.
  Rng rng(31337);
  for (int iter = 0; iter < 40; ++iter) {
    Aig a;
    const int num_inputs = rng.next_int(2, 18);
    std::vector<Lit> pool;
    for (int i = 0; i < num_inputs; ++i) pool.push_back(a.add_input());
    const int gates = rng.next_int(1, 120);
    for (int g = 0; g < gates; ++g) {
      const Lit f0 = pool[rng.next_below(pool.size())] ^ (rng.next() & 1U);
      const Lit f1 = pool[rng.next_below(pool.size())] ^ (rng.next() & 1U);
      pool.push_back(a.land(f0, f1));
    }
    Lit root = pool[rng.next_below(pool.size())] ^ (rng.next() & 1U);
    if (iter % 10 == 9) root = rng.next_bool() ? kLitTrue : kLitFalse;
    std::vector<std::uint32_t> support = structural_support(a, root);
    if (support.size() > 16) continue;
    // Pad with inputs outside the cone (and one the AIG lacks) up to 16.
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(num_inputs) + 1 && support.size() < 16;
         ++i) {
      if (std::find(support.begin(), support.end(), i) == support.end() &&
          rng.next_bool()) {
        support.push_back(i);
      }
    }
    for (std::size_t k = support.size(); k > 1; --k) {
      std::swap(support[k - 1], support[rng.next_below(k)]);
    }
    const int n = static_cast<int>(support.size());
    const std::vector<std::uint64_t> tt = truth_table(a, root, support);
    ASSERT_EQ(tt.size(), tt_words(static_cast<std::size_t>(n)));
    // 64 random rows per simulation word.
    for (int round = 0; round < 4; ++round) {
      std::vector<std::size_t> rows(64);
      for (auto& r : rows) r = rng.next_below(std::size_t{1} << n);
      std::vector<std::uint64_t> words(static_cast<std::size_t>(num_inputs));
      for (auto& w : words) w = rng.next();  // inputs outside the support
      for (int j = 0; j < n; ++j) {
        if (support[j] >= static_cast<std::uint32_t>(num_inputs)) continue;
        std::uint64_t w = 0;
        for (int lane = 0; lane < 64; ++lane) {
          w |= static_cast<std::uint64_t>((rows[lane] >> j) & 1U) << lane;
        }
        words[support[j]] = w;
      }
      const std::uint64_t sim = simulate_cone(a, root, words);
      for (int lane = 0; lane < 64; ++lane) {
        ASSERT_EQ(tt_bit(tt, rows[lane]), ((sim >> lane) & 1ULL) != 0)
            << "iter " << iter << " n=" << n << " row " << rows[lane];
      }
    }
  }
}

}  // namespace
}  // namespace step::aig
