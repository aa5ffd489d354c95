#include "core/npn.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "common/check.h"

namespace step::core {

namespace {

inline void set_bit(TruthTable& tt, std::size_t row, bool v) {
  if (v) tt[row >> 6] |= 1ULL << (row & 63);
}

/// Row of the concrete input vector x that transform `t` pairs with row
/// `y_row` of the canonical input vector y: x_{perm[j]} = y_j XOR neg_j.
inline std::size_t x_row_of(std::size_t y_row, int n, const NpnTransform& t) {
  std::size_t x = 0;
  for (int j = 0; j < n; ++j) {
    const bool yj = ((y_row >> j) & 1U) != 0;
    const bool neg = ((t.input_neg >> j) & 1U) != 0;
    if (yj != neg) x |= std::size_t{1} << t.perm[j];
  }
  return x;
}

/// `w` with variable j < 6 negated: aig::tt_flip_word's in-word case,
/// without its partner-word branch, on a word held by value.
inline std::uint64_t flip_var(std::uint64_t w, int j) {
  const int s = 1 << j;
  const std::uint64_t m = aig::kTtVarMask[j];
  return ((w & m) >> s) | ((w << s) & m);
}

/// `w` with variables i < k exchanged: one delta swap moving the rows
/// with x_i = 1, x_k = 0 onto their partners with x_i = 0, x_k = 1.
inline std::uint64_t swap_vars(std::uint64_t w, int i, int k) {
  const int delta = (1 << k) - (1 << i);
  const std::uint64_t m = aig::kTtVarMask[i] & ~aig::kTtVarMask[k];
  const std::uint64_t t = ((w >> delta) ^ w) & m;
  return w ^ t ^ (t << delta);
}

/// Lanes of npn_canonicalize's negation walk: all negations of x0..x2.
constexpr int kLanes = 8;

/// Bit offset of position j in a packed n-position permutation key.
inline int nibble(int n, int j) { return 4 * (n - 1 - j); }

/// `key` with the nibbles at bit offsets a and b exchanged.
inline std::uint32_t swap_nibbles(std::uint32_t key, int a, int b) {
  const std::uint32_t t = ((key >> a) ^ (key >> b)) & 0xF;
  return key ^ (t << a) ^ (t << b);
}

/// Plain changes (Steinhaus–Johnson–Trotter): the n! − 1 adjacent
/// transpositions that walk every permutation of n items once; entry s
/// swaps positions s and s + 1.
std::vector<std::uint8_t> plain_change_swaps(int n) {
  std::vector<int> item(n), dir(n, -1);  // dir indexed by item: -1 = left
  std::iota(item.begin(), item.end(), 0);
  std::vector<std::uint8_t> swaps;
  for (;;) {
    // The largest item facing a smaller neighbour moves.
    int pos = -1;
    for (int i = 0; i < n; ++i) {
      const int to = i + dir[item[i]];
      if (to >= 0 && to < n && item[to] < item[i] &&
          (pos < 0 || item[i] > item[pos])) {
        pos = i;
      }
    }
    if (pos < 0) return swaps;
    const int moved = item[pos];
    const int to = pos + dir[moved];
    std::swap(item[pos], item[to]);
    swaps.push_back(static_cast<std::uint8_t>(std::min(pos, to)));
    for (int larger = moved + 1; larger < n; ++larger) dir[larger] *= -1;
  }
}

const std::array<std::vector<std::uint8_t>, kNpnMaxSupport + 1>&
plain_changes() {
  static const auto table = [] {
    std::array<std::vector<std::uint8_t>, kNpnMaxSupport + 1> t;
    for (int n = 0; n <= kNpnMaxSupport; ++n) t[n] = plain_change_swaps(n);
    return t;
  }();
  return table;
}

/// The table of y ↦ f(x) with x_{perm[j]} = y_j, by at most n − 1 swaps.
std::uint64_t permute(std::uint64_t w, int n,
                      const std::vector<std::uint8_t>& perm) {
  std::uint8_t at[kNpnMaxSupport] = {0, 1, 2, 3, 4, 5};  // variable at k
  for (int j = 0; j < n; ++j) {
    int k = j;
    while (at[k] != perm[j]) ++k;
    if (k == j) continue;
    w = swap_vars(w, j, k);
    std::swap(at[j], at[k]);
  }
  return w;
}

}  // namespace

NpnTransform npn_identity(int n) {
  NpnTransform t;
  t.perm.resize(n);
  std::iota(t.perm.begin(), t.perm.end(), std::uint8_t{0});
  return t;
}

TruthTable npn_apply(const TruthTable& c, int n, const NpnTransform& t) {
  STEP_CHECK(static_cast<int>(t.perm.size()) == n);
  const std::size_t rows = std::size_t{1} << n;
  TruthTable f(aig::tt_words(n), 0);
  for (std::size_t y = 0; y < rows; ++y) {
    set_bit(f, x_row_of(y, n, t), t.output_neg != aig::tt_bit(c, y));
  }
  return f;
}

NpnCanonical npn_canonicalize(const TruthTable& f, int n) {
  STEP_CHECK(n >= 0 && n <= kNpnMaxSupport);
  const std::size_t rows = std::size_t{1} << n;
  const std::uint64_t mask = rows >= 64 ? ~0ULL : (1ULL << rows) - 1;
  const std::uint64_t fw = f[0] & mask;

  // Phase 1: the minimum word of the orbit, and the lexicographically
  // first permutation whose negations reach it. Plain changes walk every
  // permutation by adjacent swaps; for each one a Gray-code walk visits
  // every input negation by single flips. Where a walk ends does not
  // matter: the negation walk of the next permutation covers the same
  // words from any negation. `key` packs the permutation one nibble per
  // position, first position highest, so integer order is lexicographic.
  std::uint64_t w = fw;
  std::uint32_t key = 0;
  for (int j = 0; j < n; ++j) {
    key |= static_cast<std::uint32_t>(j) << nibble(n, j);
  }
  std::uint64_t best = mask;
  std::uint32_t best_key = key;
  auto scan_negations = [&] {
    // Eight independent lanes (negations of x0..x2) share one Gray walk
    // over the rest, so the flips of a step do not wait on each other.
    std::uint64_t v[kLanes], lo[kLanes], hi[kLanes];
    v[0] = w;
    for (int k = 1; k < kLanes; ++k) {
      const int j = std::countr_zero(static_cast<unsigned>(k));
      v[k] = j < n ? flip_var(v[k & (k - 1)], j) : v[k & (k - 1)];
    }
    for (int k = 0; k < kLanes; ++k) lo[k] = hi[k] = v[k];
    const std::uint32_t steps = n > 3 ? 1U << (n - 3) : 1U;
    for (std::uint32_t i = 1; i < steps; ++i) {
      const int j = 3 + std::countr_zero(i);
      for (int k = 0; k < kLanes; ++k) {
        v[k] = flip_var(v[k], j);
        lo[k] = std::min(lo[k], v[k]);
        hi[k] = std::max(hi[k], v[k]);
      }
    }
    w = v[0];
    std::uint64_t min_w = lo[0], max_w = hi[0];
    for (int k = 1; k < kLanes; ++k) {
      min_w = std::min(min_w, lo[k]);
      max_w = std::max(max_w, hi[k]);
    }
    // The smallest output-negated word is the complement of the largest.
    const std::uint64_t m = std::min(min_w, max_w ^ mask);
    if (m < best || (m == best && key < best_key)) {
      best = m;
      best_key = key;
    }
  };
  scan_negations();
  for (const std::uint8_t j : plain_changes()[n]) {
    w = swap_vars(w, j, j + 1);
    key = swap_nibbles(key, nibble(n, j + 1), nibble(n, j));
    scan_negations();
  }

  // Phase 2: within that permutation, the first input negation, then
  // output negation, reaching the minimum — the transform a scan of all
  // n!·2^n·2 candidates in that order would report first.
  NpnCanonical out;
  out.tt.assign(1, best);
  NpnTransform& t = out.transform;
  t.perm.resize(n);
  for (int j = 0; j < n; ++j) t.perm[j] = (best_key >> nibble(n, j)) & 0xF;
  std::uint64_t cand[1U << kNpnMaxSupport];
  cand[0] = permute(fw, n, t.perm);
  std::uint32_t neg = 0;
  while (cand[neg] != best && (cand[neg] ^ mask) != best) {
    ++neg;
    STEP_CHECK(neg < rows);  // phase 1's permutation reaches `best`
    cand[neg] = flip_var(cand[neg & (neg - 1)], std::countr_zero(neg));
  }
  t.input_neg = neg;
  t.output_neg = cand[neg] != best;
  return out;
}

bool npn_equivalent(const TruthTable& f, const TruthTable& g, int n) {
  STEP_CHECK(n >= 0 && n <= kNpnMaxSupport);
  NpnTransform t = npn_identity(n);
  const std::uint32_t neg_limit = 1U << n;
  do {
    for (t.input_neg = 0; t.input_neg < neg_limit; ++t.input_neg) {
      for (int o = 0; o <= 1; ++o) {
        t.output_neg = o != 0;
        if (npn_apply(g, n, t) == f) return true;
      }
    }
  } while (std::next_permutation(t.perm.begin(), t.perm.end()));
  return false;
}

NpnVarMap npn_compose(const NpnTransform& to_f, const NpnTransform& to_g) {
  const int n = static_cast<int>(to_f.perm.size());
  STEP_CHECK(static_cast<int>(to_g.perm.size()) == n);
  NpnVarMap m;
  m.var.resize(n);
  for (int j = 0; j < n; ++j) {
    m.var[to_f.perm[j]] = to_g.perm[j];
    const bool neg = (((to_f.input_neg >> j) & 1U) != 0) !=
                     (((to_g.input_neg >> j) & 1U) != 0);
    if (neg) m.neg |= 1U << to_f.perm[j];
  }
  m.output_neg = to_f.output_neg != to_g.output_neg;
  return m;
}

}  // namespace step::core
