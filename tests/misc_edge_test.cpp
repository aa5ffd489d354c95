// Remaining edge coverage: AIG naming/identity corners, cardinality
// boundaries, MUS option paths, relaxation matrix structure, benchgen
// input validation.

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "benchgen/generators.h"
#include "cnf/cardinality.h"
#include "core/partition_check.h"
#include "core/relaxation.h"
#include "mus/group_mus.h"
#include "test_util.h"

namespace step {
namespace {

// ---------- AIG corners -------------------------------------------------------

TEST(AigEdge, DefaultAndCustomNames) {
  aig::Aig a;
  const aig::Lit x = a.add_input();
  const aig::Lit y = a.add_input("custom");
  EXPECT_EQ(a.input_name(0), "x0");
  EXPECT_EQ(a.input_name(1), "custom");
  a.add_output(a.land(x, y));
  a.add_output(y, "named");
  EXPECT_EQ(a.output_name(0), "y0");
  EXPECT_EQ(a.output_name(1), "named");
  a.set_input_name(0, "renamed");
  a.set_output_name(0, "renamed_out");
  EXPECT_EQ(a.input_name(0), "renamed");
  EXPECT_EQ(a.output_name(0), "renamed_out");
}

TEST(AigEdge, SetOutputRedirectsDriver) {
  aig::Aig a;
  const aig::Lit x = a.add_input();
  const std::uint32_t o = a.add_output(x, "f");
  a.set_output(o, aig::lnot(x));
  const auto out = aig::simulate(a, {0b01});
  EXPECT_EQ(out[0] & 0b11, 0b10u);
}

TEST(AigEdge, ConeSizeCountsSharedNodesOnce) {
  aig::Aig a;
  const aig::Lit x = a.add_input();
  const aig::Lit y = a.add_input();
  const aig::Lit g = a.land(x, y);
  const aig::Lit h = a.land(g, aig::lnot(g));  // folds to const: no new node
  EXPECT_EQ(h, aig::kLitFalse);
  const aig::Lit top = a.land(g, x);
  EXPECT_EQ(a.cone_size(top), 2u);
  EXPECT_EQ(a.cone_size(g), 1u);
  EXPECT_EQ(a.cone_size(x), 0u);
}

TEST(AigEdge, StrashDeterminism) {
  // Same construction sequence => identical node ids and counts.
  auto build = [] {
    aig::Aig a;
    std::vector<aig::Lit> xs;
    for (int i = 0; i < 6; ++i) xs.push_back(a.add_input());
    a.add_output(a.lxor_many(xs));
    a.add_output(a.land_many(xs));
    return a;
  };
  const aig::Aig a = build();
  const aig::Aig b = build();
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.output(0), b.output(0));
  EXPECT_EQ(a.output(1), b.output(1));
}

// ---------- cardinality boundaries ---------------------------------------------

TEST(CardinalityEdge, AtLeastKBoundaries) {
  using sat::mk_lit;
  {
    sat::Solver s;
    sat::LitVec lits{mk_lit(s.new_var()), mk_lit(s.new_var())};
    cnf::SolverSink sink(s);
    cnf::at_least_k(sink, lits, 0);  // no-op
    EXPECT_EQ(s.solve(), sat::Result::kSat);
  }
  {
    sat::Solver s;
    sat::LitVec lits{mk_lit(s.new_var()), mk_lit(s.new_var())};
    cnf::SolverSink sink(s);
    cnf::at_least_k(sink, lits, 2);  // both forced
    ASSERT_EQ(s.solve(), sat::Result::kSat);
    EXPECT_EQ(s.model_value(lits[0]), sat::Lbool::kTrue);
    EXPECT_EQ(s.model_value(lits[1]), sat::Lbool::kTrue);
  }
  {
    sat::Solver s;
    sat::LitVec lits{mk_lit(s.new_var())};
    cnf::SolverSink sink(s);
    cnf::at_least_k(sink, lits, 2);  // impossible
    EXPECT_EQ(s.solve(), sat::Result::kUnsat);
  }
}

TEST(CardinalityEdge, DiffAtMostNegativeK) {
  // sum(a) - sum(b) <= -1 over 2+2 vars: needs strictly more b than a.
  using sat::mk_lit;
  sat::Solver s;
  sat::LitVec a{mk_lit(s.new_var()), mk_lit(s.new_var())};
  sat::LitVec b{mk_lit(s.new_var()), mk_lit(s.new_var())};
  cnf::SolverSink sink(s);
  cnf::diff_at_most_k(sink, a, b, -1);
  ASSERT_EQ(s.solve(), sat::Result::kSat);
  int ca = 0, cb = 0;
  for (sat::Lit l : a) ca += s.model_value(l) == sat::Lbool::kTrue;
  for (sat::Lit l : b) cb += s.model_value(l) == sat::Lbool::kTrue;
  EXPECT_LE(ca - cb, -1);
  // And forcing all of a true makes it UNSAT (2 - cb <= -1 impossible).
  const sat::LitVec assume{a[0], a[1]};
  EXPECT_EQ(s.solve(assume), sat::Result::kUnsat);
}

// ---------- MUS option paths ----------------------------------------------------

TEST(MusEdge, InterchangeableGroupsStillMinimal) {
  sat::Solver s;
  const sat::Var x = s.new_var();
  const sat::Var e0 = s.new_var(), e1 = s.new_var(), e2 = s.new_var();
  s.add_clause({sat::mk_lit(x), ~sat::mk_lit(e0)});
  s.add_clause({~sat::mk_lit(x), ~sat::mk_lit(e1)});
  s.add_clause({sat::mk_lit(x), ~sat::mk_lit(e2)});  // redundant with e0
  mus::GroupMusExtractor ex(
      s, {sat::mk_lit(e0), sat::mk_lit(e1), sat::mk_lit(e2)});
  const mus::GroupMusResult r = ex.extract();
  EXPECT_TRUE(r.minimal);
  ASSERT_EQ(r.mus.size(), 2u);
  // Group 1 (¬x) is always necessary; exactly one of the interchangeable
  // x-groups {0, 2} completes the MUS.
  EXPECT_NE(std::find(r.mus.begin(), r.mus.end(), 1), r.mus.end());
  const bool has0 = std::find(r.mus.begin(), r.mus.end(), 0) != r.mus.end();
  const bool has2 = std::find(r.mus.begin(), r.mus.end(), 2) != r.mus.end();
  EXPECT_NE(has0, has2);
}

TEST(MusEdge, ConflictBudgetTruncates) {
  sat::Solver s;
  // Build a moderately hard UNSAT core so a 0-conflict budget cannot prove
  // anything: pigeonhole guarded by one selector per pigeon clause.
  sat::Var p[4][3];
  for (auto& row : p) {
    for (sat::Var& v : row) v = s.new_var();
  }
  std::vector<sat::Lit> enable;
  for (auto& row : p) {
    const sat::Var e = s.new_var();
    enable.push_back(sat::mk_lit(e));
    s.add_clause({sat::mk_lit(row[0]), sat::mk_lit(row[1]), sat::mk_lit(row[2]),
                  ~sat::mk_lit(e)});
  }
  for (int h = 0; h < 3; ++h) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        s.add_clause({~sat::mk_lit(p[i][h]), ~sat::mk_lit(p[j][h])});
      }
    }
  }
  mus::GroupMusOptions opts;
  opts.conflict_budget = 0;
  mus::GroupMusExtractor ex(s, enable, opts);
  const mus::GroupMusResult r = ex.extract();
  EXPECT_FALSE(r.minimal);           // budget prevented the baseline proof
  EXPECT_EQ(r.mus.size(), enable.size());  // conservative: keeps everything
}

// ---------- relaxation matrix structure ------------------------------------------

TEST(RelaxationEdge, MatrixShapePerOp) {
  const core::Cone cone = testutil::random_cone(4, 10, 31);
  const auto m_or = core::build_relaxation_matrix(cone, core::GateOp::kOr);
  EXPECT_EQ(m_or.n, 4);
  EXPECT_EQ(m_or.x.size(), 4u);
  EXPECT_TRUE(m_or.xppp.empty());
  EXPECT_EQ(m_or.aig.num_inputs(), 5u * 4u);  // x, x', x'', alpha, beta

  const auto m_xor = core::build_relaxation_matrix(cone, core::GateOp::kXor);
  EXPECT_EQ(m_xor.xppp.size(), 4u);
  EXPECT_EQ(m_xor.aig.num_inputs(), 6u * 4u);  // + x'''
}

TEST(RelaxationEdge, AllAlphaAssignmentInvalidatesEverything) {
  // alpha_i = beta_i = 0 for all i means X = X' = X'': Φ reduces to
  // f ∧ ¬f — unsatisfiable, i.e. the "all shared" pseudo-partition is
  // always "valid"; it is the non-triviality constraint that excludes it.
  const core::Cone cone = testutil::random_cone(3, 8, 17);
  const auto m = core::build_relaxation_matrix(cone, core::GateOp::kOr);
  core::RelaxationSolver rs(m);
  core::Partition all_c;
  all_c.cls.assign(3, core::VarClass::kC);
  EXPECT_TRUE(rs.is_valid(all_c));
  EXPECT_FALSE(all_c.non_trivial());
}

// ---------- benchgen validation ---------------------------------------------------

TEST(BenchgenEdge, HammingThresholdSemantics) {
  const aig::Aig h = benchgen::hamming_ge(4, 2);
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      std::vector<std::uint64_t> stim(8);
      for (int i = 0; i < 4; ++i) {
        stim[i] = ((a >> i) & 1) ? ~0ULL : 0;
        stim[4 + i] = ((b >> i) & 1) ? ~0ULL : 0;
      }
      const bool expect = __builtin_popcount(a ^ b) >= 2;
      EXPECT_EQ((aig::simulate(h, stim)[0] & 1) != 0, expect);
    }
  }
}

TEST(BenchgenEdge, MuxTreeSelectsExhaustively) {
  const aig::Aig m = benchgen::mux_tree(3);
  for (int sel = 0; sel < 8; ++sel) {
    for (int word = 0; word < 256; word += 85) {
      std::vector<std::uint64_t> stim(11);
      for (int d = 0; d < 8; ++d) stim[d] = ((word >> d) & 1) ? ~0ULL : 0;
      for (int sbit = 0; sbit < 3; ++sbit) {
        stim[8 + sbit] = ((sel >> sbit) & 1) ? ~0ULL : 0;
      }
      EXPECT_EQ((aig::simulate(m, stim)[0] & 1) != 0, ((word >> sel) & 1) != 0);
    }
  }
}

TEST(BenchgenEdge, RandomSopRespectsIntendedPartition) {
  // Every PO of random_sop must accept the generator's intended partition
  // (A group | B group | C shared).
  const int na = 4, nb = 4, nc = 2;
  const aig::Aig circ = benchgen::random_sop(na, nb, nc, 6, 5, 0x1234);
  for (std::uint32_t po = 0; po < circ.num_outputs(); ++po) {
    std::vector<std::uint32_t> orig;
    const core::Cone cone = core::extract_po_cone(circ, po, &orig);
    if (cone.n() < 2) continue;
    core::Partition p;
    bool has_a = false, has_b = false;
    for (std::uint32_t in : orig) {
      if (in < static_cast<std::uint32_t>(na)) {
        p.cls.push_back(core::VarClass::kA);
        has_a = true;
      } else if (in < static_cast<std::uint32_t>(na + nb)) {
        p.cls.push_back(core::VarClass::kB);
        has_b = true;
      } else {
        p.cls.push_back(core::VarClass::kC);
      }
    }
    if (!has_a || !has_b) continue;  // PO fell entirely on one side
    EXPECT_TRUE(core::check_partition_exhaustive(cone, core::GateOp::kOr, p))
        << "po " << po;
  }
}

}  // namespace
}  // namespace step
