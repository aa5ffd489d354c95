#pragma once

#include <vector>

#include "core/bidec_types.h"

namespace step::core {

/// Semantic support reduction of a cone: drops every input on which the
/// function does not actually depend (structural support is an
/// over-approximation — e.g. `(x & y) | (x & !y)` reaches y but ignores
/// it). Cones of at most aig::kTtMaxSupport inputs are decided from one
/// truth table (aig::functional_support: ≤ 1024 words, each cofactor pair
/// compared a word at a time); wider cones cost one SAT equivalence check
/// of the two cofactors per input (depends_on), which scales where truth
/// tables cannot.
///
/// Irrelevant inputs matter to bi-decomposition: they inflate ||X|| (and
/// thus distort εD/εB), enlarge the QBF quantifier prefix, and can only
/// ever land in XA/XB as noise. ABC performs the same cleanup before
/// decomposing.
///
/// Returns the reduced cone; `kept`, when non-null, receives the original
/// input positions that survive (ascending).
Cone reduce_cone(const Cone& cone, std::vector<std::uint32_t>* kept = nullptr);

/// True iff the function of `cone` semantically depends on input `i`
/// (SAT check: f|xi=0 XOR f|xi=1 satisfiable).
bool depends_on(const Cone& cone, std::uint32_t i);

}  // namespace step::core
