#include "cnf/cardinality.h"

#include "common/check.h"

namespace step::cnf {

void at_least_one(ClauseSink& sink, std::span<const sat::Lit> lits) {
  STEP_CHECK(!lits.empty());
  sink.add_clause(lits);
}

void at_most_k(ClauseSink& sink, std::span<const sat::Lit> lits, int k) {
  const int n = static_cast<int>(lits.size());
  if (k < 0) {
    // Unsatisfiable bound: emit a contradiction.
    const sat::Var v = sink.new_var();
    sink.add_unit(sat::mk_lit(v));
    sink.add_unit(~sat::mk_lit(v));
    return;
  }
  if (k >= n) return;  // trivially satisfied
  if (k == 0) {
    for (sat::Lit l : lits) sink.add_unit(~l);
    return;
  }

  // Sinz sequential counter: s[i][j] = "at least j+1 of lits[0..i] true".
  // Register width k; overflow of the counter forbids the (k+1)-th literal.
  std::vector<std::vector<sat::Lit>> s(n);
  for (int i = 0; i < n - 1; ++i) {
    s[i].resize(k);
    for (int j = 0; j < k; ++j) s[i][j] = sat::mk_lit(sink.new_var());
  }
  // lits[0] -> s[0][0]
  sink.add_binary(~lits[0], s[0][0]);
  // ~s[0][j] for j >= 1
  for (int j = 1; j < k; ++j) sink.add_unit(~s[0][j]);
  for (int i = 1; i < n - 1; ++i) {
    // carry: s[i-1][j] -> s[i][j]
    for (int j = 0; j < k; ++j) sink.add_binary(~s[i - 1][j], s[i][j]);
    // increment: lits[i] & s[i-1][j-1] -> s[i][j]; base: lits[i] -> s[i][0]
    sink.add_binary(~lits[i], s[i][0]);
    for (int j = 1; j < k; ++j) {
      sink.add_ternary(~lits[i], ~s[i - 1][j - 1], s[i][j]);
    }
    // overflow: lits[i] & s[i-1][k-1] -> false
    sink.add_binary(~lits[i], ~s[i - 1][k - 1]);
  }
  if (n >= 2) sink.add_binary(~lits[n - 1], ~s[n - 2][k - 1]);
}

void diff_at_most_k(ClauseSink& sink, std::span<const sat::Lit> pos,
                    std::span<const sat::Lit> neg, int k) {
  sat::LitVec all(pos.begin(), pos.end());
  for (sat::Lit l : neg) all.push_back(~l);
  at_most_k(sink, all, k + static_cast<int>(neg.size()));
}

void diff_non_negative(ClauseSink& sink, std::span<const sat::Lit> pos,
                       std::span<const sat::Lit> neg) {
  // sum(neg) − sum(pos) <= 0
  diff_at_most_k(sink, neg, pos, 0);
}

IncrementalCounter::IncrementalCounter(ClauseSink& sink,
                                           std::span<const sat::Lit> lits) {
  never_ = sat::mk_lit(sink.new_var());
  sink.add_unit(~never_);

  // Full-width sequential counter (Sinz-style, same prefix structure as
  // at_most_k but with register width n instead of k and no overflow
  // clauses): s[i][j] = "at least j+1 of lits[0..i] are true", encoded in
  // the forcing direction only. The outputs are the last register row —
  // assuming ¬o_{k+1} back-propagates ¬s[i][k] down the carry chain and
  // recovers exactly the arc-consistent pruning of the scratch encoding.
  const int n = static_cast<int>(lits.size());
  outputs_.resize(n);
  sat::LitVec prev, row;
  for (int i = 0; i < n; ++i) {
    row.resize(i + 1);
    for (int j = 0; j <= i; ++j) row[j] = sat::mk_lit(sink.new_var());
    // base: lits[i] -> s[i][0]
    sink.add_binary(~lits[i], row[0]);
    for (int j = 0; j < i; ++j) {
      // carry: s[i-1][j] -> s[i][j]
      sink.add_binary(~prev[j], row[j]);
      // increment: lits[i] & s[i-1][j] -> s[i][j+1]
      sink.add_ternary(~lits[i], ~prev[j], row[j + 1]);
    }
    prev = row;
  }
  for (int j = 0; j < n; ++j) outputs_[j] = prev[j];
}

void IncrementalCounter::assume_at_most(int k, sat::LitVec& out) const {
  if (k >= size()) return;
  if (k < 0) {
    out.push_back(never_);
    return;
  }
  // Descending order: assumptions are asserted front-to-back, so the first
  // one found false — the one the final conflict is analyzed from — is the
  // *highest* output the clauses force, and the core then certifies the
  // strongest refuted bound rather than just the queried one.
  for (int j = size(); j > k; --j) out.push_back(~output(j));
}

}  // namespace step::cnf
