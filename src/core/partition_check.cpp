#include "core/partition_check.h"

#include "aig/simulate.h"

namespace step::core {

bool check_partition(const Cone& cone, GateOp op, const Partition& p,
                     const CareSet* care) {
  const RelaxationMatrix m = build_relaxation_matrix(cone, op, care);
  RelaxationSolver rs(m);
  return rs.is_valid(p);
}

namespace {

/// Row manipulation helpers over the packed truth table of the cone.
/// Row bit j corresponds to support position j.
struct TtView {
  std::vector<std::uint64_t> tt;
  int n;
  /// Care table; empty = completely specified.
  std::vector<std::uint64_t> care;

  bool value(std::size_t row) const { return aig::tt_bit(tt, row); }
  bool in_care(std::size_t row) const {
    return care.empty() || aig::tt_bit(care, row);
  }
};

TtView make_view(const Cone& cone, const CareSet* care) {
  std::vector<std::uint32_t> support(cone.aig.num_inputs());
  for (std::uint32_t i = 0; i < cone.aig.num_inputs(); ++i) support[i] = i;
  TtView v{aig::truth_table(cone.aig, cone.root, support), cone.n(), {}};
  if (!care_is_trivial(care)) {
    v.care = aig::truth_table(care->aig, care->root, support);
  }
  return v;
}

/// Enumerates all assignments to the positions in `mask_positions`,
/// replacing those bits of `row`; calls fn(row') for each.
template <typename Fn>
void for_each_patch(std::size_t row, const std::vector<int>& positions, Fn fn) {
  const std::size_t k = positions.size();
  for (std::size_t combo = 0; combo < (std::size_t{1} << k); ++combo) {
    std::size_t r = row;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t bit = std::size_t{1} << positions[j];
      if ((combo >> j) & 1U) {
        r |= bit;
      } else {
        r &= ~bit;
      }
    }
    fn(r);
  }
}

bool or_valid(const TtView& v, const std::vector<int>& a_pos,
              const std::vector<int>& b_pos, bool complement) {
  // Valid iff every care onset row r has (∀a' care: f(a',b,c)) or
  // (∀b' care: f(a,b',c)) — a care offset in the XA-orbit forces gB(b,c)
  // to 0 and one in the XB-orbit forces gA(a,c) to 0; don't-care rows
  // impose nothing. `complement` flips the function (the AND case
  // decomposes ¬f).
  auto fv = [&](std::size_t rr) { return v.value(rr) != complement; };
  const std::size_t rows = std::size_t{1} << v.n;
  for (std::size_t r = 0; r < rows; ++r) {
    if (!v.in_care(r) || !fv(r)) continue;  // offset/DC rows impose nothing
    bool all_a = true;
    for_each_patch(r, a_pos, [&](std::size_t rr) {
      if (v.in_care(rr) && !fv(rr)) all_a = false;
    });
    if (all_a) continue;
    bool all_b = true;
    for_each_patch(r, b_pos, [&](std::size_t rr) {
      if (v.in_care(rr) && !fv(rr)) all_b = false;
    });
    if (!all_b) return false;
  }
  return true;
}

bool xor_valid(const TtView& v, const std::vector<int>& a_pos,
               const std::vector<int>& b_pos) {
  // Valid iff f(a,b,c) = f(a,b0,c) ⊕ f(a0,b,c) ⊕ f(a0,b0,c) with a0=b0=0.
  std::size_t a_mask = 0, b_mask = 0;
  for (int j : a_pos) a_mask |= std::size_t{1} << j;
  for (int j : b_pos) b_mask |= std::size_t{1} << j;

  const std::size_t rows = std::size_t{1} << v.n;
  for (std::size_t r = 0; r < rows; ++r) {
    const bool expected = v.value(r & ~b_mask) ^ v.value(r & ~a_mask) ^
                          v.value(r & ~a_mask & ~b_mask);
    if (v.value(r) != expected) return false;
  }
  return true;
}

}  // namespace

bool check_partition_exhaustive(const Cone& cone, GateOp op, const Partition& p,
                                const CareSet* care) {
  STEP_CHECK(p.size() == cone.n());
  STEP_CHECK(cone.n() <= aig::kTtMaxSupport);
  if (op == GateOp::kXor) care = nullptr;  // mirror the SAT path's semantics
  const TtView v = make_view(cone, care);
  std::vector<int> a_pos, b_pos;
  for (int j = 0; j < p.size(); ++j) {
    if (p.cls[j] == VarClass::kA) a_pos.push_back(j);
    if (p.cls[j] == VarClass::kB) b_pos.push_back(j);
  }
  switch (op) {
    case GateOp::kOr:
      return or_valid(v, a_pos, b_pos, /*complement=*/false);
    case GateOp::kAnd:
      return or_valid(v, a_pos, b_pos, /*complement=*/true);
    case GateOp::kXor:
      return xor_valid(v, a_pos, b_pos);
  }
  return false;
}

int metric_cost(const Metrics& m, MetricKind kind) {
  switch (kind) {
    case MetricKind::kDisjointness: return m.shared;
    case MetricKind::kBalancedness: return m.imbalance;
    case MetricKind::kSum: return m.combined_cost();
  }
  return 0;
}

BruteForceResult brute_force_optimum(const Cone& cone, GateOp op,
                                     MetricKind kind) {
  const int n = cone.n();
  STEP_CHECK(n <= 10);
  BruteForceResult result;

  std::size_t total = 1;
  for (int i = 0; i < n; ++i) total *= 3;

  Partition p;
  p.cls.resize(n);
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t c = code;
    for (int i = 0; i < n; ++i) {
      p.cls[i] = static_cast<VarClass>(c % 3);
      c /= 3;
    }
    if (!p.non_trivial()) continue;
    const int cost = metric_cost(Metrics::of(p), kind);
    if (result.decomposable && cost >= result.best_cost) continue;
    if (!check_partition_exhaustive(cone, op, p)) continue;
    result.decomposable = true;
    result.best_cost = cost;
    result.best = p;
  }
  return result;
}

}  // namespace step::core
