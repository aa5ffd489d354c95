// Exhaustive correctness of the NPN canonicalization that keys the
// decomposition cache: canon(f) == canon(g) must hold exactly when f and
// g are NPN-equivalent, the canonical transform must round-trip, and the
// composed rewiring used on cache hits must reproduce the query function.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "common/rng.h"
#include "core/npn.h"

namespace step::core {
namespace {

TruthTable tt_of(std::uint64_t bits, int n) {
  const std::size_t rows = std::size_t{1} << n;
  const std::uint64_t mask = rows >= 64 ? ~0ULL : (1ULL << rows) - 1;
  return TruthTable{bits & mask};
}

/// Reference canonical form: minimum of the brute-force orbit.
TruthTable orbit_min(const TruthTable& f, int n) {
  TruthTable best;
  NpnTransform t = npn_identity(n);
  const std::uint32_t neg_limit = 1U << n;
  do {
    for (t.input_neg = 0; t.input_neg < neg_limit; ++t.input_neg) {
      for (int o = 0; o <= 1; ++o) {
        t.output_neg = o != 0;
        // npn_apply enumerates the orbit: every g with g = t(f) for some t
        // (the transform set is a group, so apply and "unapply" orbits
        // coincide).
        TruthTable g = npn_apply(f, n, t);
        if (best.empty() || g < best) best = std::move(g);
      }
    }
  } while (std::next_permutation(t.perm.begin(), t.perm.end()));
  return best;
}

/// Reference canonicalizer: the row-by-row enumeration the flip-based
/// npn_canonicalize replaced. Same permutation / input_neg / output_neg
/// order and the same strict-< tie-break, so both must return the same
/// table *and* the same transform.
NpnCanonical reference_canonicalize(const TruthTable& f, int n) {
  const std::size_t rows = std::size_t{1} << n;
  const std::uint64_t mask = rows >= 64 ? ~0ULL : (1ULL << rows) - 1;
  NpnCanonical best;
  NpnTransform t = npn_identity(n);
  const std::uint32_t neg_limit = 1U << n;
  std::vector<std::uint32_t> perm_row(rows);
  const std::uint64_t fw = f[0];
  do {
    for (std::size_t r = 0; r < rows; ++r) {
      std::uint32_t x = 0;
      for (int j = 0; j < n; ++j) {
        if ((r >> j) & 1U) x |= 1U << t.perm[j];
      }
      perm_row[r] = x;
    }
    for (t.input_neg = 0; t.input_neg < neg_limit; ++t.input_neg) {
      std::uint64_t word = 0;
      for (std::size_t y = 0; y < rows; ++y) {
        word |= ((fw >> perm_row[y ^ t.input_neg]) & 1ULL) << y;
      }
      for (int o = 0; o <= 1; ++o) {
        t.output_neg = o != 0;
        const std::uint64_t cand = t.output_neg ? ~word & mask : word;
        if (best.tt.empty() || cand < best.tt[0]) {
          best.tt.assign(1, cand);
          best.transform = t;
        }
      }
    }
  } while (std::next_permutation(t.perm.begin(), t.perm.end()));
  return best;
}

void expect_same_as_reference(const TruthTable& f, int n) {
  const NpnCanonical got = npn_canonicalize(f, n);
  const NpnCanonical want = reference_canonicalize(f, n);
  ASSERT_EQ(got.tt, want.tt) << "n=" << n << " f=" << f[0];
  ASSERT_EQ(got.transform, want.transform) << "n=" << n << " f=" << f[0];
}

TEST(NpnReference, BitIdenticalOnEveryTableUpToFourInputs) {
  for (int n = 0; n <= 4; ++n) {
    const std::uint64_t functions = 1ULL << (1ULL << n);
    for (std::uint64_t bits = 0; bits < functions; ++bits) {
      expect_same_as_reference(tt_of(bits, n), n);
    }
  }
}

TEST(NpnReference, BitIdenticalOnSeededFiveAndSixInputTables) {
  Rng rng(0x5e6);
  for (int i = 0; i < 2000; ++i) {
    const int n = i % 2 == 0 ? 5 : 6;
    // Every other table is sparse, so ties across transforms are common.
    const std::uint64_t bits =
        i % 4 < 2 ? rng.next() : rng.next() & rng.next() & rng.next();
    expect_same_as_reference(tt_of(bits, n), n);
  }
}

/// The table of a function of the input row's popcount: bit k of `spectrum`
/// is the value on rows with k ones.
TruthTable symmetric_table(std::uint32_t spectrum, int n) {
  std::uint64_t bits = 0;
  for (std::size_t r = 0; r < (std::size_t{1} << n); ++r) {
    if ((spectrum >> std::popcount(r)) & 1U) bits |= 1ULL << r;
  }
  return TruthTable{bits};
}

// Tables where many transforms reach the minimum: the transform must still
// be the first one of the enumeration order, not merely a valid one.
TEST(NpnReference, BitIdenticalOnTieHeavyFiveAndSixInputTables) {
  for (int n = 5; n <= 6; ++n) {
    // Every popcount-symmetric table: constants, parity, majority, all
    // thresholds and their complements.
    for (std::uint32_t spectrum = 0; spectrum < (1U << (n + 1)); ++spectrum) {
      expect_same_as_reference(symmetric_table(spectrum, n), n);
    }
    // AND and OR of literals with random phases over random variable sets.
    Rng rng(0x71e5 + n);
    for (int i = 0; i < 48; ++i) {
      std::uint64_t bits = i % 2 == 0 ? ~0ULL : 0;
      for (int v = 0; v < n; ++v) {
        if (!rng.next_bool() && v > 0) continue;
        const std::uint64_t lit =
            rng.next_bool() ? ~aig::kTtVarMask[v] : aig::kTtVarMask[v];
        bits = i % 2 == 0 ? bits & lit : bits | lit;
      }
      expect_same_as_reference(tt_of(bits, n), n);
    }
  }
  // A table resynthesis canonicalizes.
  expect_same_as_reference(TruthTable{0x6996966996696996ULL}, 6);
}

class ExhaustiveN : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveN, CanonEqualsIffNpnEquivalent) {
  const int n = GetParam();
  const std::uint64_t functions = 1ULL << (1ULL << n);
  // canon(f) == canon(g) iff f ~NPN g, via the brute-force reference:
  // equality of orbit minima characterizes NPN equivalence exactly.
  for (std::uint64_t bits = 0; bits < functions; ++bits) {
    const TruthTable f = tt_of(bits, n);
    const NpnCanonical canon = npn_canonicalize(f, n);
    EXPECT_EQ(canon.tt, orbit_min(f, n)) << "n=" << n << " f=" << bits;
  }
}

TEST_P(ExhaustiveN, CanonicalTransformRoundTrips) {
  const int n = GetParam();
  const std::uint64_t functions = 1ULL << (1ULL << n);
  for (std::uint64_t bits = 0; bits < functions; ++bits) {
    const TruthTable f = tt_of(bits, n);
    const NpnCanonical canon = npn_canonicalize(f, n);
    EXPECT_EQ(npn_apply(canon.tt, n, canon.transform), f)
        << "n=" << n << " f=" << bits;
  }
}

TEST_P(ExhaustiveN, ClassCountsMatchKnownValues) {
  const int n = GetParam();
  // Number of NPN classes of n-variable functions: 2 (n=0... counting the
  // two constants as one class under output negation), then 2, 4, 14.
  static const std::map<int, int> kExpected = {{0, 1}, {1, 2}, {2, 4}, {3, 14}};
  const std::uint64_t functions = 1ULL << (1ULL << n);
  std::map<TruthTable, int> classes;
  for (std::uint64_t bits = 0; bits < functions; ++bits) {
    ++classes[npn_canonicalize(tt_of(bits, n), n).tt];
  }
  EXPECT_EQ(static_cast<int>(classes.size()), kExpected.at(n)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SmallSupports, ExhaustiveN, ::testing::Range(0, 4));

TEST(NpnSampledN4, CanonAgreesWithBruteForceOnPairs) {
  // n = 4 is too wide to sweep all 2^16 x 2^16 pairs; sample functions and
  // verify canon equality against the pairwise brute-force oracle.
  Rng rng(0xa4);
  const int n = 4;
  std::vector<TruthTable> sample;
  for (int i = 0; i < 24; ++i) sample.push_back(tt_of(rng.next(), n));
  // Seed some deliberate NPN-equivalent pairs: random transforms of
  // sampled functions.
  const std::size_t base = sample.size();
  for (std::size_t i = 0; i < base; i += 3) {
    NpnTransform t = npn_identity(n);
    for (int s = 0; s < 4; ++s) {
      std::swap(t.perm[rng.next_below(n)], t.perm[rng.next_below(n)]);
    }
    t.input_neg = static_cast<std::uint32_t>(rng.next_below(16));
    t.output_neg = rng.next_bool();
    sample.push_back(npn_apply(sample[i], n, t));
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    for (std::size_t k = i + 1; k < sample.size(); ++k) {
      const bool canon_eq = npn_canonicalize(sample[i], n).tt ==
                            npn_canonicalize(sample[k], n).tt;
      EXPECT_EQ(canon_eq, npn_equivalent(sample[i], sample[k], n))
          << "pair " << i << "," << k;
    }
  }
}

TEST(NpnSampledN4, RoundTripAndIdempotence) {
  Rng rng(7711);
  const int n = 4;
  for (int i = 0; i < 200; ++i) {
    const TruthTable f = tt_of(rng.next(), n);
    const NpnCanonical canon = npn_canonicalize(f, n);
    EXPECT_EQ(npn_apply(canon.tt, n, canon.transform), f);
    // The canonical form is a fixed point.
    EXPECT_EQ(npn_canonicalize(canon.tt, n).tt, canon.tt);
  }
}

TEST(NpnCompose, RewiresStoredFunctionOntoQuery) {
  // The cache-hit path: f stored, g queried, both in one NPN class. The
  // composed map must turn f into g by input rewiring + negations.
  Rng rng(4242);
  for (int n = 1; n <= 4; ++n) {
    for (int i = 0; i < 50; ++i) {
      const TruthTable f = tt_of(rng.next(), n);
      NpnTransform t = npn_identity(n);
      for (int s = 0; s < 3; ++s) {
        std::swap(t.perm[rng.next_below(n)], t.perm[rng.next_below(n)]);
      }
      t.input_neg = static_cast<std::uint32_t>(rng.next_below(1ULL << n));
      t.output_neg = rng.next_bool();
      const TruthTable g = npn_apply(f, n, t);

      const NpnCanonical cf = npn_canonicalize(f, n);
      const NpnCanonical cg = npn_canonicalize(g, n);
      ASSERT_EQ(cf.tt, cg.tt);
      const NpnVarMap m = npn_compose(cf.transform, cg.transform);

      // Evaluate g via f through the map on every row.
      const std::size_t rows = std::size_t{1} << n;
      for (std::size_t x = 0; x < rows; ++x) {
        std::size_t z = 0;
        for (int v = 0; v < n; ++v) {
          const bool bit = ((x >> m.var[v]) & 1U) != 0;
          const bool neg = ((m.neg >> v) & 1U) != 0;
          if (bit != neg) z |= std::size_t{1} << v;
        }
        const bool via_f = m.output_neg != aig::tt_bit(f, z);
        EXPECT_EQ(via_f, aig::tt_bit(g, x)) << "n=" << n << " row=" << x;
      }
    }
  }
}

}  // namespace
}  // namespace step::core
