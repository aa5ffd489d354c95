#pragma once

#include <optional>

#include "core/bidec_types.h"
#include "core/care.h"
#include "core/relaxation.h"

namespace step::core {

/// The decomposed sub-functions, hosted in one AIG whose inputs mirror the
/// cone's inputs (same order/names):
///   fa       — fA(XA, XC): structurally supported only by XA ∪ XC
///   fb       — fB(XB, XC): structurally supported only by XB ∪ XC
///   combined — fa <OP> fb (the reconstruction of f)
/// The AIG registers these as outputs 0, 1, 2 for convenient IO.
struct ExtractedFunctions {
  aig::Aig aig;
  aig::Lit fa = aig::kLitFalse;
  aig::Lit fb = aig::kLitFalse;
  aig::Lit combined = aig::kLitFalse;
};

/// Computes fA and fB for a *valid* partition (callers establish validity
/// first; an invalid partition trips a STEP_CHECK via the interpolation
/// engine's UNSAT requirement).
///
/// OR/AND cones of at most aig::kTtMaxSupport inputs are first built from
/// the cone's RelaxationTable (`table`, or one built here): fA = ¬∃XB·off
/// and fB = ¬∃XA·off through aig::build_from_tt (for AND, off = f ∧ care
/// and fA = ∃XB·off, fB = ∃XA·off by duality). These are kept when
/// |fA| + |fB| (ANDs in each cone) is at most the cone's own AND count;
/// otherwise, and for wider cones, the functions are interpolants:
///
/// OR: two sequential Craig interpolation queries (Section III.B /
/// Lee-Jiang-Hung):
///   fA = ITP( f(X) ∧ ¬f(XA',XB,XC) ,  ¬f(XA,XB',XC) )     over XA ∪ XC
///   fB = ITP( f(X) ∧ ¬fA(XA,XC)    ,  ¬f(XA',XB,XC) )     over XB ∪ XC
/// AND: duality — OR-extraction of ¬f, both results complemented.
/// XOR: cofactoring — fA = f|XB←0,  fB = f|XA←0 ⊕ f|XA←0,XB←0.
///
/// A non-trivial `care` (partition validated on the care set only) is
/// conjoined onto every cone copy of the interpolation queries, which
/// keeps them refutable and yields fA/fB correct *on the care set*:
/// fa <OP> fb ≡ f on every care minterm, free elsewhere. XOR partitions
/// are exact by construction, so cofactoring needs no care handling.
/// A given `table` must be the cone's own, built for `op` and `care`; one
/// built here is charged to `mem` (the cone's account) while it lives.
ExtractedFunctions extract_functions(const Cone& cone, GateOp op,
                                     const Partition& p,
                                     const CareSet* care = nullptr,
                                     const RelaxationTable* table = nullptr,
                                     MemTracker* mem = nullptr);

/// Check that f ≡ fa <OP> fb, restricted to the care minterms when `care`
/// is non-trivial (roots_equivalent_on_care: tables of f, of the
/// recombination and of care up to aig::kTtMaxSupport inputs, a SAT miter
/// above). f is recomputed from the cone, so the check does not trust
/// the tables extraction read.
bool verify_decomposition(const Cone& cone, const ExtractedFunctions& fns,
                          const CareSet* care = nullptr);

/// True iff two cones with the same input count (inputs identified
/// positionally) compute the same function: tables up to
/// aig::kTtMaxSupport inputs, a SAT miter above.
bool cones_equivalent(const Cone& a, const Cone& b);

}  // namespace step::core
