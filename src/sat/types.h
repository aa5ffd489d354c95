#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace step::sat {

/// Boolean variable, numbered from 0.
using Var = std::int32_t;
constexpr Var kVarUndef = -1;

/// Literal: variable plus polarity, packed as 2*var + sign.
/// sign == 1 means the negated literal. The packed form indexes watch
/// lists and assignment arrays directly.
struct Lit {
  std::int32_t x = -2;

  constexpr bool operator==(const Lit&) const = default;
  constexpr bool operator<(const Lit& o) const { return x < o.x; }
};

constexpr Lit kLitUndef{-2};

constexpr Lit mk_lit(Var v, bool sign = false) {
  return Lit{(v << 1) | static_cast<std::int32_t>(sign)};
}
constexpr Lit operator~(Lit l) { return Lit{l.x ^ 1}; }
constexpr bool sign(Lit l) { return (l.x & 1) != 0; }
constexpr Var var(Lit l) { return l.x >> 1; }
/// Index usable for watch/assignment arrays: 2*var + sign.
constexpr std::int32_t index(Lit l) { return l.x; }

/// Three-valued logic for partial assignments.
enum class Lbool : std::uint8_t { kTrue = 0, kFalse = 1, kUndef = 2 };

constexpr Lbool mk_lbool(bool b) { return b ? Lbool::kTrue : Lbool::kFalse; }
constexpr Lbool operator^(Lbool a, bool flip) {
  if (a == Lbool::kUndef) return a;
  return mk_lbool((a == Lbool::kTrue) != flip);
}

/// Solver verdicts. kUnknown is returned when a conflict/time budget ran out.
enum class Result : std::uint8_t { kSat, kUnsat, kUnknown };

using LitVec = std::vector<Lit>;

}  // namespace step::sat
