#pragma once

#include <vector>

#include "aig/aig.h"

namespace step::aig {

/// Input indices (ascending) that the cone of `root` structurally reaches.
std::vector<std::uint32_t> structural_support(const Aig& a, Lit root);

/// Semantic support over a candidate structural support: input j belongs
/// iff the two cofactors on j differ, compared a word at a time over the
/// cone's truth table. Exact but exponential in support size, so
/// restricted to supports <= 20; core::reduce_cone takes it for cones of
/// at most kTtMaxSupport inputs.
std::vector<std::uint32_t> functional_support(const Aig& a, Lit root);

}  // namespace step::aig
