#include "aig/ops.h"

#include <algorithm>

namespace step::aig {

namespace {

/// Iterative post-order copy shared by the public entry points.
/// `map_input` returns the dst literal for a src input node.
template <typename MapInput>
Lit copy_cone_impl(const Aig& src, Lit root, Aig& dst, MapInput map_input) {
  std::vector<Lit> memo(src.num_nodes(), kLitInvalid);
  memo[0] = kLitFalse;

  std::vector<std::uint32_t> stack{node_of(root)};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    if (memo[n] != kLitInvalid) {
      stack.pop_back();
      continue;
    }
    if (src.is_input(n)) {
      memo[n] = map_input(n);
      STEP_CHECK(memo[n] != kLitInvalid);
      stack.pop_back();
      continue;
    }
    const std::uint32_t c0 = node_of(src.fanin0(n));
    const std::uint32_t c1 = node_of(src.fanin1(n));
    bool ready = true;
    if (memo[c0] == kLitInvalid) {
      stack.push_back(c0);
      ready = false;
    }
    if (memo[c1] == kLitInvalid) {
      stack.push_back(c1);
      ready = false;
    }
    if (!ready) continue;
    const Lit f0 = lit_with_sign(memo[c0], is_complemented(src.fanin0(n)) !=
                                               is_complemented(memo[c0]));
    const Lit f1 = lit_with_sign(memo[c1], is_complemented(src.fanin1(n)) !=
                                               is_complemented(memo[c1]));
    memo[n] = dst.land(f0, f1);
    stack.pop_back();
  }
  const Lit m = memo[node_of(root)];
  return is_complemented(root) ? lnot(m) : m;
}

}  // namespace

Lit copy_cone(const Aig& src, Lit root, Aig& dst,
              const std::vector<Lit>& input_map) {
  return copy_cone_impl(src, root, dst, [&](std::uint32_t n) {
    const int idx = src.input_index(n);
    STEP_CHECK(idx >= 0 && idx < static_cast<int>(input_map.size()));
    return input_map[idx];
  });
}

Lit extract_cone(const Aig& src, Lit root, Aig& dst,
                 std::vector<std::uint32_t>& used_inputs,
                 std::vector<Lit>& created_inputs) {
  // First find the support so inputs are created in src input order.
  std::vector<char> in_support(src.num_inputs(), 0);
  std::vector<char> visited(src.num_nodes(), 0);
  std::vector<std::uint32_t> stack{node_of(root)};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (visited[n]) continue;
    visited[n] = 1;
    if (src.is_input(n)) {
      in_support[src.input_index(n)] = 1;
    } else if (src.is_and(n)) {
      stack.push_back(node_of(src.fanin0(n)));
      stack.push_back(node_of(src.fanin1(n)));
    }
  }
  std::vector<Lit> input_map(src.num_inputs(), kLitInvalid);
  for (std::uint32_t i = 0; i < src.num_inputs(); ++i) {
    if (!in_support[i]) continue;
    used_inputs.push_back(i);
    const Lit dl = dst.add_input(src.input_name(i));
    created_inputs.push_back(dl);
    input_map[i] = dl;
  }
  return copy_cone(src, root, dst, input_map);
}

Lit cofactor(const Aig& src, Lit root, Aig& dst,
             const std::vector<int>& assignment,
             const std::vector<Lit>& free_input_map) {
  return copy_cone_impl(src, root, dst, [&](std::uint32_t n) {
    const int idx = src.input_index(n);
    STEP_CHECK(idx >= 0 && idx < static_cast<int>(assignment.size()));
    if (assignment[idx] == 0) return kLitFalse;
    if (assignment[idx] == 1) return kLitTrue;
    STEP_CHECK(idx < static_cast<int>(free_input_map.size()));
    return free_input_map[idx];
  });
}

namespace {

/// Shannon expansion of a packed table, one variable per level. A block
/// of rows that is constant, or whose halves are equal, stops the
/// descent early, so a function that ignores some variables costs
/// nothing for them.
class TtBuilder {
 public:
  TtBuilder(Aig& dst, const std::vector<std::uint64_t>& tt,
            const std::vector<Lit>& inputs)
      : dst_(dst), tt_(tt), inputs_(inputs) {}

  /// The function of rows [base, base + 2^var) over inputs[0..var).
  Lit build(std::size_t var, std::size_t base) {
    const std::size_t half = var == 0 ? 0 : std::size_t{1} << (var - 1);
    if (var <= 6) {
      const std::size_t rows = std::size_t{1} << var;
      const std::uint64_t mask = rows == 64 ? ~0ULL : (1ULL << rows) - 1;
      const std::uint64_t bits = (tt_[base >> 6] >> (base & 63)) & mask;
      if (bits == 0) return kLitFalse;
      if (bits == mask) return kLitTrue;
      const std::uint64_t half_mask = (1ULL << half) - 1;
      if ((bits & half_mask) == ((bits >> half) & half_mask)) {
        return build(var - 1, base);
      }
    } else {
      const std::size_t w0 = base >> 6;
      const std::size_t nw = std::size_t{1} << (var - 6);
      bool all0 = true, all1 = true;
      for (std::size_t w = w0; w < w0 + nw && (all0 || all1); ++w) {
        all0 = all0 && tt_[w] == 0;
        all1 = all1 && tt_[w] == ~0ULL;
      }
      if (all0) return kLitFalse;
      if (all1) return kLitTrue;
      const auto lo = tt_.begin() + static_cast<std::ptrdiff_t>(w0);
      const auto mid = lo + static_cast<std::ptrdiff_t>(nw / 2);
      if (std::equal(lo, mid, mid)) return build(var - 1, base);
    }
    const Lit lo = build(var - 1, base);
    const Lit hi = build(var - 1, base + half);
    return combine(inputs_[var - 1], hi, lo);
  }

 private:
  /// x ? hi : lo, with constant and complementary children folded into a
  /// single AND / OR (one AND node) or an XOR instead of a full mux.
  Lit combine(Lit x, Lit hi, Lit lo) {
    if (lo == hi) return lo;
    if (lo == kLitFalse) return dst_.land(x, hi);
    if (hi == kLitFalse) return dst_.land(lnot(x), lo);
    if (lo == kLitTrue) return dst_.lor(lnot(x), hi);
    if (hi == kLitTrue) return dst_.lor(x, lo);
    if (lo == lnot(hi)) return dst_.lxor(x, lo);
    return dst_.lmux(x, hi, lo);
  }

  Aig& dst_;
  const std::vector<std::uint64_t>& tt_;
  const std::vector<Lit>& inputs_;
};

}  // namespace

Lit build_from_tt(Aig& dst, const std::vector<std::uint64_t>& tt,
                  const std::vector<Lit>& inputs) {
  const std::size_t n = inputs.size();
  STEP_CHECK(n <= 20);
  STEP_CHECK(tt.size() >= (n >= 6 ? (std::size_t{1} << (n - 6)) : 1));
  return TtBuilder(dst, tt, inputs).build(n, 0);
}

Aig sweep_dead(const Aig& src) {
  // Live = in the fanin cone of some output. Node ids are topologically
  // ordered (fanins precede fanouts), so one reverse sweep marks the
  // transitive cone.
  std::vector<bool> live(src.num_nodes(), false);
  for (std::uint32_t o = 0; o < src.num_outputs(); ++o) {
    live[node_of(src.output(o))] = true;
  }
  for (std::uint32_t node = src.num_nodes(); node-- > 1;) {
    if (src.is_and(node) && live[node]) {
      live[node_of(src.fanin0(node))] = true;
      live[node_of(src.fanin1(node))] = true;
    }
  }

  Aig dst;
  std::vector<Lit> map(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  for (std::uint32_t i = 0; i < src.num_inputs(); ++i) {
    map[src.input_node(i)] = dst.add_input(src.input_name(i));
  }
  auto mapped = [&](Lit l) {
    return lit_with_sign(map[node_of(l)], is_complemented(l));
  };
  for (std::uint32_t node = 1; node < src.num_nodes(); ++node) {
    if (!src.is_and(node) || !live[node]) continue;
    // Verbatim copy (no re-strashing): live structure is preserved
    // exactly, only the dead nodes disappear.
    map[node] = dst.add_raw_and(mapped(src.fanin0(node)),
                                mapped(src.fanin1(node)));
  }
  for (std::uint32_t o = 0; o < src.num_outputs(); ++o) {
    dst.add_output(mapped(src.output(o)), src.output_name(o));
  }
  return dst;
}

}  // namespace step::aig
