#pragma once

#include "aig/ops.h"
#include "aig/simulate.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "core/bidec_types.h"
#include "core/care.h"
#include "sat/solver.h"

namespace step::testutil {

/// SAT miter: every output of `a` equals the same-index output of `b`
/// (over shared, positionally identified inputs).
inline bool circuits_equivalent(const aig::Aig& a, const aig::Aig& b) {
  if (a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs()) {
    return false;
  }
  sat::Solver solver;
  std::vector<sat::Lit> in(a.num_inputs());
  for (auto& l : in) l = sat::mk_lit(solver.new_var());
  cnf::SolverSink sink(solver);
  sat::LitVec any_diff;
  for (std::uint32_t o = 0; o < a.num_outputs(); ++o) {
    const sat::Lit la = cnf::encode_cone(a, a.output(o), in, sink);
    const sat::Lit lb = cnf::encode_cone(b, b.output(o), in, sink);
    // d <-> la xor lb
    const sat::Lit d = sat::mk_lit(solver.new_var());
    sink.add_ternary(~d, la, lb);
    sink.add_ternary(~d, ~la, ~lb);
    sink.add_ternary(d, ~la, lb);
    sink.add_ternary(d, la, ~lb);
    any_diff.push_back(d);
  }
  solver.add_clause(any_diff);
  return solver.solve() == sat::Result::kUnsat;
}

/// Random single-output cone with exactly n inputs, all structurally used
/// or not — callers that need full support should retry or accept subsets.
inline core::Cone random_cone(int n, int gates, std::uint64_t seed) {
  Rng rng(seed);
  core::Cone cone;
  std::vector<aig::Lit> pool;
  for (int i = 0; i < n; ++i) pool.push_back(cone.aig.add_input());
  for (int g = 0; g < gates; ++g) {
    const aig::Lit f0 =
        pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
    const aig::Lit f1 =
        pool[rng.next_below(pool.size())] ^ (rng.next_bool() ? 1u : 0u);
    pool.push_back(cone.aig.land(f0, f1));
  }
  cone.root = pool.back() ^ (rng.next_bool() ? 1u : 0u);
  return cone;
}

/// Random single-output cone over n inputs built from a uniformly random
/// truth table (n <= 20): dense functions, mostly not bi-decomposable.
inline core::Cone random_tt_cone(int n, Rng& rng) {
  std::vector<std::uint64_t> tt(aig::tt_words(n));
  for (auto& w : tt) w = rng.next();
  core::Cone cone;
  std::vector<aig::Lit> inputs(n);
  for (int i = 0; i < n; ++i) inputs[i] = cone.aig.add_input();
  cone.root = aig::build_from_tt(cone.aig, tt, inputs);
  return cone;
}

/// Random non-empty care set over n inputs as an explicit truth table.
inline core::CareSet random_care(int n, Rng& rng,
                                 double keep_probability = 0.7) {
  const std::size_t rows = std::size_t{1} << n;
  std::vector<std::uint64_t> tt(aig::tt_words(n), 0);
  bool any = false;
  for (std::size_t r = 0; r < rows; ++r) {
    if (rng.next_double() < keep_probability) {
      tt[r >> 6] |= 1ULL << (r & 63);
      any = true;
    }
  }
  if (!any) tt[0] |= 1ULL;  // keep at least one care minterm
  core::CareSet care;
  std::vector<aig::Lit> inputs(n);
  for (int i = 0; i < n; ++i) inputs[i] = care.aig.add_input();
  care.root = aig::build_from_tt(care.aig, tt, inputs);
  return care;
}

/// Random partition over n positions (may be trivial).
inline core::Partition random_partition(int n, Rng& rng) {
  core::Partition p;
  p.cls.resize(n);
  for (int i = 0; i < n; ++i) {
    p.cls[i] = static_cast<core::VarClass>(rng.next_int(0, 2));
  }
  return p;
}

/// A cone with its known bi-decomposition.
struct DecomposableCone {
  core::Cone cone;
  core::Partition partition;
};

/// g(X1) <op> h(X2) over n >= 4 inputs, with h = n/2, X1 = x0..x(h+1) and
/// X2 = xh..x(n-1): decomposable by construction under XA = x0..x(h-1),
/// XC = {xh, x(h+1)} and XB the rest. g and h are 3h random AND/OR gates
/// each over their inputs.
inline DecomposableCone decomposable_cone(int n, core::GateOp op, Rng& rng) {
  auto random_logic = [&](aig::Aig& a, std::vector<aig::Lit> pool,
                          int gates) {
    for (int g = 0; g < gates; ++g) {
      const aig::Lit f0 = pool[rng.next_below(pool.size())] ^ (rng.next() & 1U);
      const aig::Lit f1 = pool[rng.next_below(pool.size())] ^ (rng.next() & 1U);
      pool.push_back(rng.next_bool() ? a.land(f0, f1) : a.lor(f0, f1));
    }
    return pool.back();
  };
  DecomposableCone d;
  std::vector<aig::Lit> xs;
  for (int i = 0; i < n; ++i) xs.push_back(d.cone.aig.add_input());
  const int half = n / 2;
  const std::vector<aig::Lit> left(xs.begin(), xs.begin() + half + 2);
  const std::vector<aig::Lit> right(xs.begin() + half, xs.end());
  const aig::Lit g = random_logic(d.cone.aig, left, 3 * half);
  const aig::Lit h = random_logic(d.cone.aig, right, 3 * half);
  d.cone.root = op == core::GateOp::kOr    ? d.cone.aig.lor(g, h)
                : op == core::GateOp::kAnd ? d.cone.aig.land(g, h)
                                           : d.cone.aig.lxor(g, h);
  d.partition.cls.assign(n, core::VarClass::kB);
  for (int i = 0; i < half + 2; ++i) {
    d.partition.cls[i] = i < half ? core::VarClass::kA : core::VarClass::kC;
  }
  return d;
}

/// Adds unused inputs to `cone` (and random classes for them to `p`)
/// until it has n inputs: validity and f are unchanged, but the cone no
/// longer fits the truth-table tier once n > aig::kTtMaxSupport.
inline void pad_inputs(core::Cone& cone, core::Partition& p, int n,
                       Rng& rng) {
  while (cone.n() < n) {
    cone.aig.add_input();
    p.cls.push_back(static_cast<core::VarClass>(rng.next_int(0, 2)));
  }
}

/// Exhaustive check that two literals in (possibly different) AIGs with
/// the same number of inputs compute the same function (n <= 16).
inline bool equivalent_by_simulation(const aig::Aig& a1, aig::Lit r1,
                                     const aig::Aig& a2, aig::Lit r2, int n) {
  std::vector<std::uint32_t> support(n);
  for (int i = 0; i < n; ++i) support[i] = i;
  return aig::truth_table(a1, r1, support) == aig::truth_table(a2, r2, support);
}

}  // namespace step::testutil
