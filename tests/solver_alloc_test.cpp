// Heap-allocation budget of solver set-up. Every decomposed cone builds
// four fresh one-shot solvers (relaxation check, two interpolation
// queries, verification miter), so their construction cost is mostly
// allocator traffic. This executable replaces the global operator new with
// a counting one and pins two facts:
//  - Solver::add_clause reuses member scratch buffers: once the clause
//    arena and the watch lists have room, adding a clause allocates
//    nothing;
//  - building the RelaxationSolver of one epfl_decoder(14) cone stays
//    within 1,000 heap allocations (extraction and verification of the
//    same cone have budgets too).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "benchgen/epfl.h"
#include "core/extract.h"
#include "core/relaxation.h"
#include "sat/solver.h"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace step {
namespace {

/// Heap allocations made while running `fn`.
template <typename Fn>
long allocations_during(Fn&& fn) {
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(SolverAlloc, CounterSeesVectorGrowth) {
  EXPECT_GE(allocations_during([] {
              std::vector<int> v;
              for (int i = 0; i < 100; ++i) v.push_back(i);
            }),
            7);
}

void add_clause_workload(const sat::SolverOptions& opts) {
  sat::Solver s(opts);
  const sat::Var a = s.new_var(), b = s.new_var(), c = s.new_var(),
                 d = s.new_var(), z = s.new_var();
  ASSERT_TRUE(s.add_clause({sat::mk_lit(z, true)}));  // z false at level 0
  const sat::Lit la = sat::mk_lit(a), lb = sat::mk_lit(b, true),
                 lc = sat::mk_lit(c), ld = sat::mk_lit(d, true),
                 lz = sat::mk_lit(z);
  // Long clauses (watch lists), binaries (binary lists), a duplicate
  // literal and a level-0-false literal (the strip path).
  const std::vector<sat::LitVec> shapes = {
      {la, lb, lc}, {lb, lc, ld}, {la, ld}, {lc, la, lc, ld}, {lz, la, lb, ld}};
  constexpr int kRounds = 2000;
  int allocating_adds = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (const sat::LitVec& cl : shapes) {
      if (allocations_during([&] { s.add_clause(cl); }) > 0) ++allocating_adds;
    }
  }
  // Only the geometric growth of the arena, the clause list and the watch
  // lists may allocate: O(log n) of the 10,000 adds, never one per add.
  EXPECT_LE(allocating_adds, 100) << "of " << kRounds * shapes.size();

  // Once every container has headroom, an add over the same literals is
  // allocation-free. The arena and the lists doubled past 2,000 rounds,
  // so a few more rounds fit.
  long extra = 0;
  for (int r = 0; r < 4; ++r) {
    for (const sat::LitVec& cl : shapes) {
      extra += allocations_during([&] { s.add_clause(cl); });
    }
  }
  EXPECT_EQ(extra, 0);
}

TEST(SolverAlloc, AddClauseOverExistingLiteralsAllocatesNothing) {
  add_clause_workload({});
}

TEST(SolverAlloc, AddClauseWithProofLoggingAllocatesOnlyToGrow) {
  sat::SolverOptions o;
  o.proof_logging = true;
  add_clause_workload(o);
}

TEST(SolverAlloc, DecoderConeRelaxationSolverStaysUnderBudget) {
  const aig::Aig dec = benchgen::epfl_decoder(14);
  const core::Cone cone = core::extract_po_cone(dec, 0);
  ASSERT_EQ(cone.n(), 15);
  const core::RelaxationMatrix m =
      core::build_relaxation_matrix(cone, core::GateOp::kAnd);
  const long n = allocations_during([&] { core::RelaxationSolver rs(m); });
  // One allocation per add_clause call or per watch list would cost
  // several thousand here (269 variables, ~580 clauses).
  EXPECT_LE(n, 1000);
  RecordProperty("relaxation_solver_allocations", static_cast<int>(n));
}

TEST(SolverAlloc, DecoderConeExtractAndVerifyStayUnderBudget) {
  const aig::Aig dec = benchgen::epfl_decoder(14);
  const core::Cone cone = core::extract_po_cone(dec, 0);
  core::Partition p;
  p.cls.assign(15, core::VarClass::kB);
  p.cls[0] = core::VarClass::kA;
  core::ExtractedFunctions fns;
  const long ne = allocations_during(
      [&] { fns = core::extract_functions(cone, core::GateOp::kAnd, p); });
  bool ok = false;
  const long nv = allocations_during(
      [&] { ok = core::verify_decomposition(cone, fns); });
  EXPECT_TRUE(ok);
  // Two proof-logging solvers plus the fA/fB AIG, and one miter solver;
  // a vector per proof node or per watch list would cost thousands.
  EXPECT_LE(ne, 500);
  EXPECT_LE(nv, 200);
  RecordProperty("extract_allocations", static_cast<int>(ne));
  RecordProperty("verify_allocations", static_cast<int>(nv));
}

}  // namespace
}  // namespace step
