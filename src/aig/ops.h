#pragma once

#include <vector>

#include "aig/aig.h"

namespace step::aig {

/// Copies the cone of `root` from `src` into `dst`, mapping src input i to
/// the dst literal `input_map[i]` (which may be a constant — this is how
/// cofactoring works — or any dst literal — this is how composition works).
/// Inputs outside the cone need no mapping (kLitInvalid allowed).
/// Structural hashing in dst folds constants, so cofactored cones shrink.
Lit copy_cone(const Aig& src, Lit root, Aig& dst,
              const std::vector<Lit>& input_map);

/// Copies the cone of `root` into `dst`, creating one fresh dst input per
/// src input the cone actually depends on (in src input order). Appends
/// created input literals to `created_inputs` aligned with `used_inputs`,
/// which receives the src input indices.
Lit extract_cone(const Aig& src, Lit root, Aig& dst,
                 std::vector<std::uint32_t>& used_inputs,
                 std::vector<Lit>& created_inputs);

/// Builds in `dst` the XOR (miter) of two functions of the *same* dst
/// inputs: `a` and `b` are dst literals. SAT(miter) iff a != b somewhere.
inline Lit miter(Aig& dst, Lit a, Lit b) { return dst.lxor(a, b); }

/// Cofactor of `root` w.r.t. a partial input assignment: `assignment[i]`
/// is 0 (force false), 1 (force true) or -1 (keep input i free).
Lit cofactor(const Aig& src, Lit root, Aig& dst,
             const std::vector<int>& assignment,
             const std::vector<Lit>& free_input_map);

/// Builds the function of a packed truth table (bit r = value on row r,
/// row bit j = value of inputs[j]) into `dst` by Shannon expansion on the
/// highest variable; strashing folds shared cofactors. inputs.size() <= 20.
/// A variable the function ignores costs no node, and a cofactor pair
/// with a constant child costs one AND, so an AND or OR of k literals
/// takes k − 1 ANDs. Used by the don't-care windows (care sets are
/// enumerated as tables), by table-based extraction of fA/fB (core/
/// extract.h) and by tests that need arbitrary functions as AIGs.
Lit build_from_tt(Aig& dst, const std::vector<std::uint64_t>& tt,
                  const std::vector<Lit>& inputs);

/// Structural dead-node elimination ("sweep"): returns a copy of `src`
/// holding only the ANDs reachable from its outputs. All inputs survive
/// in order (the interface is part of the circuit's identity, used or
/// not), outputs keep order, names and polarities, and live ANDs are
/// copied verbatim without re-strashing — the result is functionally
/// identical and lint-clean of AIG-DANGLING findings. Speculative
/// construction (mux/xor expansions partially folded by strash) is the
/// usual source of the dead nodes this removes.
Aig sweep_dead(const Aig& src);

}  // namespace step::aig
