#include "core/extract.h"

#include <utility>

#include "aig/ops.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"
#include "itp/interpolant.h"
#include "sat/solver.h"

namespace step::core {

namespace {

/// One interpolation query: encodes the three labelled cone copies,
/// refutes, and replays the proof into `dst` over `dst_inputs`.
/// `vars_hint` bounds the variables the query will create.
struct ItpQuery {
  explicit ItpQuery(int vars_hint) : solver(proof_options()) {
    solver.reserve_vars(vars_hint);
  }

  static sat::SolverOptions proof_options() {
    sat::SolverOptions o;
    o.proof_logging = true;
    return o;
  }

  sat::Solver solver;

  std::vector<sat::Lit> fresh_vars(int count) {
    std::vector<sat::Lit> v(count);
    for (int i = 0; i < count; ++i) v[i] = sat::mk_lit(solver.new_var());
    return v;
  }

  void assert_cone(const aig::Aig& a, aig::Lit root,
                   const std::vector<sat::Lit>& map, bool value, int tag) {
    cnf::SolverSink sink(solver, tag);
    cnf::encode_cone_assert(a, root, map, sink, value);
  }
};

/// Variables of one Tseitin copy of an AIG's logic (one per AND, plus a
/// constant), as a reserve_vars() hint.
int encoding_vars(const aig::Aig& a) {
  return static_cast<int>(a.num_ands()) + 1;
}

/// OR extraction of `root` (within cone.aig) under partition p, writing
/// fa and fb into `dst` whose inputs are already created. With a
/// non-trivial care set (the partition is only valid on the care
/// minterms), every cone copy is additionally constrained to the care set
/// — the queries stay refutable and the interpolants implement f on care.
std::pair<aig::Lit, aig::Lit> or_extract(
    const Cone& cone, aig::Lit root, const Partition& p, aig::Aig& dst,
    const std::vector<aig::Lit>& dst_inputs, const CareSet* care) {
  const int n = cone.n();
  if (care_is_trivial(care)) care = nullptr;
  auto in_class = [&](int i, VarClass c) { return p.cls[i] == c; };
  auto assert_care = [&](ItpQuery& q, const std::vector<sat::Lit>& map,
                         int tag) {
    if (care != nullptr) q.assert_cone(care->aig, care->root, map, true, tag);
  };

  const int care_copy_vars = care != nullptr ? encoding_vars(care->aig) : 0;

  // ---- Query 1: fA over XA ∪ XC ------------------------------------------
  aig::Lit fa;
  {
    ItpQuery q(3 * n + 3 * (encoding_vars(cone.aig) + care_copy_vars));
    const std::vector<sat::Lit> v1 = q.fresh_vars(n);
    std::vector<sat::Lit> map2(v1), map3(v1);
    for (int i = 0; i < n; ++i) {
      if (in_class(i, VarClass::kA)) map2[i] = sat::mk_lit(q.solver.new_var());
      if (in_class(i, VarClass::kB)) map3[i] = sat::mk_lit(q.solver.new_var());
    }
    // A-part: care(X) ∧ f(X) ∧ care(X') ∧ ¬f(XA', XB, XC);
    // B-part: care(X'') ∧ ¬f(XA, XB', XC).
    q.assert_cone(cone.aig, root, v1, true, itp::kTagA);
    q.assert_cone(cone.aig, root, map2, false, itp::kTagA);
    assert_care(q, v1, itp::kTagA);
    assert_care(q, map2, itp::kTagA);
    q.assert_cone(cone.aig, root, map3, false, itp::kTagB);
    assert_care(q, map3, itp::kTagB);
    const sat::Result r = q.solver.solve();
    STEP_CHECK(r == sat::Result::kUnsat);  // partition must be valid (on care)

    std::vector<aig::Lit> shared_map(q.solver.num_vars(), aig::kLitInvalid);
    for (int i = 0; i < n; ++i) {
      if (!in_class(i, VarClass::kB)) {
        shared_map[sat::var(v1[i])] = dst_inputs[i];
      }
    }
    fa = itp::build_interpolant(q.solver, dst, shared_map);
  }

  // ---- Query 2: fB over XB ∪ XC ------------------------------------------
  aig::Lit fb;
  {
    ItpQuery q(2 * n + 2 * (encoding_vars(cone.aig) + care_copy_vars) +
               encoding_vars(dst));
    const std::vector<sat::Lit> w1 = q.fresh_vars(n);
    std::vector<sat::Lit> map2(w1);
    for (int i = 0; i < n; ++i) {
      if (in_class(i, VarClass::kA)) map2[i] = sat::mk_lit(q.solver.new_var());
    }
    // A-part: care(X) ∧ f(X) ∧ ¬fA(XA, XC);
    // B-part: care(X') ∧ ¬f(XA', XB, XC).
    q.assert_cone(cone.aig, root, w1, true, itp::kTagA);
    // fa depends on XA ∪ XC only.
    q.assert_cone(dst, fa, w1, false, itp::kTagA);
    assert_care(q, w1, itp::kTagA);
    q.assert_cone(cone.aig, root, map2, false, itp::kTagB);
    assert_care(q, map2, itp::kTagB);
    const sat::Result r = q.solver.solve();
    STEP_CHECK(r == sat::Result::kUnsat);

    std::vector<aig::Lit> shared_map(q.solver.num_vars(), aig::kLitInvalid);
    for (int i = 0; i < n; ++i) {
      if (!in_class(i, VarClass::kA)) {
        shared_map[sat::var(w1[i])] = dst_inputs[i];
      }
    }
    fb = itp::build_interpolant(q.solver, dst, shared_map);
  }
  return {fa, fb};
}

}  // namespace

ExtractedFunctions extract_functions(const Cone& cone, GateOp op,
                                     const Partition& p, const CareSet* care) {
  STEP_CHECK(p.size() == cone.n());
  ExtractedFunctions out;
  std::vector<aig::Lit> inputs(cone.n());
  for (int i = 0; i < cone.n(); ++i) {
    inputs[i] = out.aig.add_input(cone.aig.input_name(i));
  }

  switch (op) {
    case GateOp::kOr: {
      auto [fa, fb] = or_extract(cone, cone.root, p, out.aig, inputs, care);
      out.fa = fa;
      out.fb = fb;
      out.combined = out.aig.lor(fa, fb);
      break;
    }
    case GateOp::kAnd: {
      // f = ¬(¬fA' ∨ ¬fB') where (fA', fB') OR-decompose ¬f.
      auto [ga, gb] =
          or_extract(cone, aig::lnot(cone.root), p, out.aig, inputs, care);
      out.fa = aig::lnot(ga);
      out.fb = aig::lnot(gb);
      out.combined = out.aig.land(out.fa, out.fb);
      break;
    }
    case GateOp::kXor: {
      // fA = f|XB←0, fB = f|XA←0 ⊕ f|XA←0,XB←0 (fixing the reference
      // points a* = b* = 0; correct by the 4-point XOR criterion).
      std::vector<int> zero_b(cone.n(), -1), zero_a(cone.n(), -1),
          zero_ab(cone.n(), -1);
      for (int i = 0; i < cone.n(); ++i) {
        if (p.cls[i] == VarClass::kB) zero_b[i] = 0;
        if (p.cls[i] == VarClass::kA) zero_a[i] = 0;
        if (p.cls[i] != VarClass::kC) zero_ab[i] = 0;
      }
      out.fa = aig::cofactor(cone.aig, cone.root, out.aig, zero_b, inputs);
      const aig::Lit part1 =
          aig::cofactor(cone.aig, cone.root, out.aig, zero_a, inputs);
      const aig::Lit part2 =
          aig::cofactor(cone.aig, cone.root, out.aig, zero_ab, inputs);
      out.fb = out.aig.lxor(part1, part2);
      out.combined = out.aig.lxor(out.fa, out.fb);
      break;
    }
  }

  out.aig.add_output(out.fa, "fa");
  out.aig.add_output(out.fb, "fb");
  out.aig.add_output(out.combined, "combined");
  return out;
}

bool verify_decomposition(const Cone& cone, const ExtractedFunctions& fns,
                          const CareSet* care) {
  return roots_equivalent_on_care(cone.aig, cone.root, fns.aig, fns.combined,
                                  care);
}

bool cones_equivalent(const Cone& a, const Cone& b) {
  return cones_equivalent_on_care(a, b, nullptr);
}

}  // namespace step::core
