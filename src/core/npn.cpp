#include "core/npn.h"

#include <algorithm>
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

  NpnCanonical best;
  NpnTransform t = npn_identity(n);
  const std::uint32_t neg_limit = 1U << n;
  const std::uint64_t fw = f[0];
  // x_row[y]: concrete row of canonical row y under the current
  // permutation; cand[neg]: the candidate word of input negation `neg`
  // before any output negation.
  std::size_t x_row[1U << kNpnMaxSupport];
  std::uint64_t cand[1U << kNpnMaxSupport];
  x_row[0] = 0;
  bool found = false;
  std::uint64_t best_word = 0;
  do {
    // Since x_{perm[j]} = y_j XOR neg_j, candidate row y reads the
    // permuted table at y XOR neg: build the permuted table once (each row
    // one bit away from a smaller one), then each negation is one in-word
    // flip away from a smaller one.
    std::uint64_t permuted = fw & 1ULL;
    for (std::size_t y = 1; y < rows; ++y) {
      x_row[y] = x_row[y & (y - 1)] |
                 std::size_t{1} << t.perm[std::countr_zero(y)];
      permuted |= ((fw >> x_row[y]) & 1ULL) << y;
    }
    cand[0] = permuted;
    for (std::uint32_t neg = 1; neg < neg_limit; ++neg) {
      cand[neg] = aig::tt_flip_word(&cand[neg & (neg - 1)], 0,
                                    std::countr_zero(neg));
    }
    for (std::uint32_t neg = 0; neg < neg_limit; ++neg) {
      for (int o = 0; o <= 1; ++o) {
        const std::uint64_t c = o != 0 ? ~cand[neg] & mask : cand[neg];
        if (!found || c < best_word) {
          found = true;
          best_word = c;
          best.transform.perm = t.perm;
          best.transform.input_neg = neg;
          best.transform.output_neg = o != 0;
        }
      }
    }
  } while (std::next_permutation(t.perm.begin(), t.perm.end()));
  best.tt.assign(1, best_word);
  return best;
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
