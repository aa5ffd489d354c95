// DRAT round-trip: solve with the shipped solver, its tiered deletion forced
// to fire constantly, while recording the clausal trace, then replay the
// trace through the in-repo forward RUP checker (sat/proof.h) against the
// original formula.
// UNSAT runs must end in a verified empty clause *including* every
// deletion line; SAT runs must still be valid derivation logs.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sat/dimacs.h"
#include "sat/proof.h"
#include "sat/solver.h"

namespace step::sat {
namespace {

/// Configuration that exercises every trace-emitting mechanism quickly.
SolverOptions drat_config() {
  SolverOptions o;
  o.drat_logging = true;
  o.reduce_interval = 50;      // tiered deletions mid-search
  o.reduce_min_local = 0;      // …even from a small local tier
  o.max_learnts_floor = 16.0;  // …and via the size backstop
  return o;
}

struct Instance {
  int num_vars = 0;
  std::vector<LitVec> clauses;
};

Instance pigeonhole(int holes) {
  Instance inst;
  inst.num_vars = (holes + 1) * holes;
  auto p = [&](int pigeon, int hole) {
    return mk_lit(static_cast<Var>(pigeon * holes + hole));
  };
  for (int i = 0; i <= holes; ++i) {
    LitVec c;
    for (int h = 0; h < holes; ++h) c.push_back(p(i, h));
    inst.clauses.push_back(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i <= holes; ++i) {
      for (int j = i + 1; j <= holes; ++j) {
        inst.clauses.push_back({~p(i, h), ~p(j, h)});
      }
    }
  }
  return inst;
}

/// Solves in two incremental episodes (half the clauses, solve, rest,
/// solve) so the second search starts from a database with deletions.
Result solve_logged(const Instance& inst, Solver& s) {
  for (int i = 0; i < inst.num_vars; ++i) s.new_var();
  const std::size_t half = inst.clauses.size() / 2;
  bool alive = true;
  for (std::size_t c = 0; c < half && alive; ++c) {
    alive = s.add_clause(inst.clauses[c]);
  }
  if (alive) s.solve();
  for (std::size_t c = half; c < inst.clauses.size() && s.is_ok(); ++c) {
    s.add_clause(inst.clauses[c]);
  }
  return s.solve();
}

void expect_checked_unsat(const Instance& inst) {
  Solver s(drat_config());
  ASSERT_EQ(solve_logged(inst, s), Result::kUnsat);
  ASSERT_FALSE(s.drat().empty());
  const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.proved_unsat) << "no empty clause derived";
}

TEST(Drat, PigeonholeWithDeletionChecks) {
  for (int holes = 3; holes <= 5; ++holes) {
    SCOPED_TRACE(holes);
    expect_checked_unsat(pigeonhole(holes));
  }
}

TEST(Drat, TraceContainsDeletionLines) {
  // The point of DRAT over plain RUP logs: deletions are recorded, and
  // the checker honours them. Pigeonhole-5 reliably triggers the tiered
  // reduce_db.
  Solver s(drat_config());
  ASSERT_EQ(solve_logged(pigeonhole(5), s), Result::kUnsat);
  bool has_delete = false;
  for (const DratLine& l : s.drat().lines()) has_delete |= l.is_delete;
  EXPECT_TRUE(has_delete);
  EXPECT_GT(s.stats().db_reductions, 0u);
  EXPECT_NE(s.drat().to_text().find("d "), std::string::npos);
}

TEST(Drat, RandomUnsatInstances) {
  Rng rng(99);
  int checked = 0;
  for (int round = 0; round < 40 && checked < 8; ++round) {
    Instance inst;
    inst.num_vars = rng.next_int(6, 10);
    // Over-constrained random 3-CNF: mostly UNSAT at ratio 6.
    for (int c = 0; c < inst.num_vars * 6; ++c) {
      LitVec cl;
      for (int j = 0; j < 3; ++j) {
        cl.push_back(
            mk_lit(rng.next_int(0, inst.num_vars - 1), rng.next_bool()));
      }
      inst.clauses.push_back(cl);
    }
    Solver probe;  // defaults; answer only
    for (int i = 0; i < inst.num_vars; ++i) probe.new_var();
    for (const LitVec& c : inst.clauses) probe.add_clause(c);
    if (probe.solve() != Result::kUnsat) continue;
    SCOPED_TRACE(round);
    expect_checked_unsat(inst);
    ++checked;
  }
  EXPECT_GE(checked, 3) << "generator produced too few UNSAT instances";
}

TEST(Drat, SatRunsProduceValidDerivationLogs) {
  // A satisfiable instance: every addition (learnts, level-0-stripped
  // inputs) must still be RUP; no empty clause appears.
  Rng rng(7);
  Instance inst;
  inst.num_vars = 12;
  for (int c = 0; c < 30; ++c) {
    LitVec cl;
    for (int j = 0; j < 3; ++j) {
      cl.push_back(mk_lit(rng.next_int(0, inst.num_vars - 1), rng.next_bool()));
    }
    inst.clauses.push_back(cl);
  }
  Solver s(drat_config());
  const Result res = solve_logged(inst, s);
  ASSERT_EQ(res, Result::kSat);
  const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.proved_unsat);
}

TEST(Drat, CheckerRejectsBogusTraces) {
  // Sanity of the checker itself: a non-implied addition and a deletion
  // of an absent clause must both be rejected.
  Instance inst;
  inst.num_vars = 3;
  inst.clauses = {{mk_lit(0), mk_lit(1)}};
  {
    DratTrace t;
    const LitVec bogus = {mk_lit(2)};
    t.add(bogus);
    const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, t);
    EXPECT_FALSE(r.ok);
  }
  {
    DratTrace t;
    const LitVec absent = {mk_lit(0), mk_lit(2)};
    t.del(absent);
    const DratCheckResult r = check_drat(inst.num_vars, inst.clauses, t);
    EXPECT_FALSE(r.ok);
  }
}

TEST(Drat, DimacsRoundTripOfCheckedFormula) {
  // The DRAT artifacts are exchanged as DIMACS + trace text; make sure a
  // formula survives the write/parse cycle and still checks.
  const Instance inst = pigeonhole(4);
  DimacsFormula f;
  f.num_vars = inst.num_vars;
  f.clauses = inst.clauses;
  const DimacsFormula parsed = parse_dimacs(write_dimacs(f));
  ASSERT_EQ(parsed.num_vars, inst.num_vars);
  ASSERT_EQ(parsed.clauses.size(), inst.clauses.size());
  Solver s(drat_config());
  Instance round;
  round.num_vars = parsed.num_vars;
  round.clauses = parsed.clauses;
  ASSERT_EQ(solve_logged(round, s), Result::kUnsat);
  const DratCheckResult r = check_drat(round.num_vars, round.clauses, s.drat());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.proved_unsat);
}

}  // namespace
}  // namespace step::sat
