#pragma once

#include <optional>
#include <vector>

#include "aig/window.h"
#include "core/bidec_types.h"

namespace step::core {

/// Care set of an incompletely specified function: a Boolean function
/// hosted in its own AIG whose inputs mirror (positionally) the inputs of
/// the cone it accompanies. Minterms where `root` is false are don't-cares
/// — the decomposition may change the function there. The two sources are
/// circuit windows (satisfiability don't-cares of a structural cut, see
/// aig/window.h) and the recursion's sibling gates (observability
/// don't-cares: under f = fA OR fB, fA is unobservable wherever fB is 1).
///
/// APIs take `const CareSet*`; nullptr — or a constant-true root — means
/// the exact, completely specified semantics everywhere.
struct CareSet {
  aig::Aig aig;
  aig::Lit root = aig::kLitTrue;

  bool trivial() const { return root == aig::kLitTrue; }
};

inline bool care_is_trivial(const CareSet* care) {
  return care == nullptr || care->trivial();
}

/// The window's care function as a standalone CareSet (the window hosts
/// function and care in one AIG; decomposition wants them separable).
CareSet care_of_window(const aig::Window& win);

/// base ∧ cond (or base ∧ ¬cond), all over the same n input positions;
/// null/trivial base acts as constant true.
CareSet care_and_cone(const CareSet* base, const aig::Aig& cond_aig,
                      aig::Lit cond, bool negate_cond, int n);

/// Care set a child of one bi-decomposition step must honour: the parent's
/// care restricted by the sibling's observability don't-cares. Under
/// f = fA OR fB, fA is unobservable wherever fB is 1, so child 0 gets
/// care ∧ ¬fB; child 1 is rebuilt *after* child 0, so it must stay exact
/// wherever the rebuilt fA can be 0 — conservatively care ∧ (¬fA ∨ fB),
/// using only the original extraction (the rebuilt fA can differ from fA
/// only where fB is 1). AND is the dual; XOR has no gate-induced
/// don't-cares (both operands are always observable), so children inherit
/// the parent care unchanged. The sequential assignment keeps the two
/// children compatible — rebuilding both against the *original* sibling
/// can lose a minterm on both sides at once.
CareSet child_care(const CareSet* base, const aig::Aig& fns_aig, aig::Lit fa,
                   aig::Lit fb, GateOp op, int child, int n);

/// Existential projection onto the kept input positions: ∃dropped. care,
/// re-hosted over kept.size() inputs (position j reads old position
/// kept[j]). This is what makes a parent's care set reusable after the
/// child cone's support shrinks. Returns nullopt when more than
/// `max_quantified` inputs would be quantified or the intermediate AIG
/// explodes — callers then fall back to exact semantics, which is sound.
std::optional<CareSet> care_project(const CareSet& care,
                                    const std::vector<std::uint32_t>& kept,
                                    int max_quantified);

/// SAT check: is f constant on the care set? Returns the constant when so
/// (an empty care set reports constant false), nullopt otherwise.
std::optional<bool> constant_on_care(const Cone& cone, const CareSet& care);

/// a ≡ b on every care minterm, inputs identified positionally (as in
/// cones_equivalent()). Decided as roots_equivalent_on_care() decides it.
bool cones_equivalent_on_care(const Cone& a, const Cone& b,
                              const CareSet* care);

/// The same check over two roots, so callers need not copy an AIG into a
/// Cone. When no AIG has more than aig::kTtMaxSupport inputs it compares
/// truth tables on the care set; otherwise it runs
/// miter_equivalent_on_care().
bool roots_equivalent_on_care(const aig::Aig& a, aig::Lit root_a,
                              const aig::Aig& b, aig::Lit root_b,
                              const CareSet* care);

/// SAT miter of the same check, at any size. `a` fixes the input count.
/// Like Cones, the AIGs should hold little beyond the roots' logic: their
/// sizes size the solver.
bool miter_equivalent_on_care(const aig::Aig& a, aig::Lit root_a,
                              const aig::Aig& b, aig::Lit root_b,
                              const CareSet* care);

}  // namespace step::core
