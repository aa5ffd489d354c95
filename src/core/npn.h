#pragma once

#include <cstdint>
#include <vector>

#include "aig/simulate.h"

namespace step::core {

/// NPN canonicalization of truth tables — the keying scheme of the
/// decomposition cache (core/dec_cache.h). Two functions are NPN-equivalent
/// when one becomes the other under some input permutation, input
/// negations, and output negation; a bi-decomposition tree of one
/// instantiates the other by rewiring inputs and complementing edges, so
/// the cache stores one tree per NPN class.
///
/// Exact canonicalization enumerates all n!·2^n·2 transforms and keeps the
/// lexicographically smallest table, which is practical for the small
/// supports where truth tables are cheap (kNpnMaxSupport). The cost is one
/// row-by-row permuted table per permutation (n! · 2^n row lookups); each
/// of the 2^n input negations is then a single in-word flip
/// (aig::tt_flip_word) of a previously built candidate, so at n = 6 a call
/// is ~46k row lookups plus ~46k word flips. Wider functions are keyed by
/// their own truth table under the identity transform (see dec_cache).

/// Largest support for which exact NPN canonicalization is enumerated
/// (6! · 2^6 · 2 = 92160 candidate transforms, one 64-bit word each).
constexpr int kNpnMaxSupport = 6;

/// Packed truth table as produced by aig::truth_table(): bit r of the
/// table is the function value on input row r.
using TruthTable = std::vector<std::uint64_t>;

/// An NPN transform instantiating a canonical function c as a concrete
/// function f over the same n variables:
///   f(x_0..x_{n-1}) = output_neg XOR c(y_0..y_{n-1})
///   where y_j = x_{perm[j]} XOR input_neg_j.
/// I.e. canonical variable j reads concrete variable perm[j], complemented
/// when bit j of input_neg is set.
struct NpnTransform {
  std::vector<std::uint8_t> perm;
  std::uint32_t input_neg = 0;
  bool output_neg = false;

  bool operator==(const NpnTransform&) const = default;
};

struct NpnCanonical {
  TruthTable tt;          ///< canonical representative of the class
  NpnTransform transform; ///< instantiates tt back into the input function
};

/// Identity transform over n variables.
NpnTransform npn_identity(int n);

/// Applies `t` to a canonical table: returns the table of
///   f(x) = t.output_neg XOR c(y),  y_j = x_{t.perm[j]} XOR t.input_neg_j.
/// This is the instantiation direction: npn_apply(canon.tt, n,
/// canon.transform) recovers the original function.
TruthTable npn_apply(const TruthTable& c, int n, const NpnTransform& t);

/// Exact canonical form: the lexicographically smallest table over all
/// transforms, with a transform satisfying
///   npn_apply(result.tt, n, result.transform) == f.
/// Requires n <= kNpnMaxSupport.
NpnCanonical npn_canonicalize(const TruthTable& f, int n);

/// Brute-force NPN equivalence — the reference oracle for tests: true iff
/// some transform maps g onto f. Requires n <= kNpnMaxSupport.
bool npn_equivalent(const TruthTable& f, const TruthTable& g, int n);

/// Variable wiring that instantiates a function f (stored with canonical
/// transform `to_f`) as an NPN-equivalent function g (canonical transform
/// `to_g`, same canonical table):
///   g(x) = output_neg XOR f(z),  z_i = x_{var[i]} XOR neg_i.
/// I.e. f-variable i is driven by g-variable var[i], complemented when bit
/// i of neg is set. This is how a cached tree over f is rewired to
/// implement g. (`var` is int-wide to match DecTreeNode::inputs, which it
/// is copied into on a cache hit.)
struct NpnVarMap {
  std::vector<int> var;
  std::uint32_t neg = 0;
  bool output_neg = false;
};

NpnVarMap npn_compose(const NpnTransform& to_f, const NpnTransform& to_g);

}  // namespace step::core
