#include "sat/proof.h"

#include <algorithm>
#include <string>

#include "common/check.h"

namespace step::sat {

namespace {

/// Set representation of a clause during replay: sorted unique literals.
void normalize(LitVec& lits) {
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
}

/// Resolve `cur` with `other` on `pivot`, in place.
void resolve(LitVec& cur, std::span<const Lit> other, Var pivot) {
  const Lit pos = mk_lit(pivot, false);
  const Lit neg = mk_lit(pivot, true);
  cur.erase(std::remove_if(cur.begin(), cur.end(),
                           [&](Lit l) { return l == pos || l == neg; }),
            cur.end());
  for (Lit l : other) {
    if (l == pos || l == neg) continue;
    cur.push_back(l);
  }
  normalize(cur);
}

}  // namespace

std::string DratTrace::to_text() const {
  std::string out;
  for (const DratLine& line : lines_) {
    if (line.is_delete) out += "d ";
    for (Lit l : line.lits) {
      out += std::to_string(sign(l) ? -(var(l) + 1) : (var(l) + 1));
      out += ' ';
    }
    out += "0\n";
  }
  return out;
}

namespace {

/// Minimal clause database for the forward RUP sweep. Clauses are stored
/// with sorted literals so deletion lines can be matched set-wise
/// (the solver reorders watched literals in place).
struct RupDatabase {
  std::vector<LitVec> clauses;      ///< live clauses, literals sorted
  std::vector<Lbool> assign;        ///< per var, scratch assignment

  explicit RupDatabase(int num_vars)
      : assign(static_cast<std::size_t>(num_vars), Lbool::kUndef) {}

  Lbool value(Lit l) const { return assign[var(l)] ^ sign(l); }

  /// Unit propagation to fixpoint over the whole database (quadratic;
  /// fine at test scale). Returns true iff a conflict was reached.
  bool propagate_to_conflict() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const LitVec& c : clauses) {
        int num_undef = 0;
        Lit undef_lit = kLitUndef;
        bool satisfied = false;
        for (Lit l : c) {
          const Lbool v = value(l);
          if (v == Lbool::kTrue) {
            satisfied = true;
            break;
          }
          if (v == Lbool::kUndef) {
            ++num_undef;
            undef_lit = l;
          }
        }
        if (satisfied) continue;
        if (num_undef == 0) return true;  // falsified clause: conflict
        if (num_undef == 1) {
          assign[var(undef_lit)] = mk_lbool(!sign(undef_lit));
          changed = true;
        }
      }
    }
    return false;
  }

  /// RUP check of `lits`: assume all its literals false, propagate, demand
  /// a conflict. The scratch assignment is rebuilt from nothing each time.
  bool is_rup(const LitVec& lits) {
    std::fill(assign.begin(), assign.end(), Lbool::kUndef);
    for (Lit l : lits) {
      if (value(l) == Lbool::kTrue) return true;  // tautology: trivially ok
      assign[var(l)] = mk_lbool(sign(l));         // make l false
    }
    return propagate_to_conflict();
  }
};

}  // namespace

DratCheckResult check_drat(int num_vars, const std::vector<LitVec>& formula,
                           const DratTrace& trace) {
  DratCheckResult res;
  RupDatabase db(num_vars);
  for (const LitVec& c : formula) {
    LitVec s(c);
    normalize(s);
    db.clauses.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < trace.lines().size(); ++i) {
    const DratLine& line = trace.lines()[i];
    LitVec lits(line.lits);
    normalize(lits);
    if (line.is_delete) {
      auto it = std::find(db.clauses.begin(), db.clauses.end(), lits);
      if (it == db.clauses.end()) {
        res.error = "line " + std::to_string(i) +
                    ": deletion of a clause not in the database";
        return res;
      }
      *it = std::move(db.clauses.back());
      db.clauses.pop_back();
      continue;
    }
    if (!db.is_rup(lits)) {
      res.error = "line " + std::to_string(i) + ": addition is not RUP";
      return res;
    }
    if (lits.empty()) res.proved_unsat = true;
    db.clauses.push_back(std::move(lits));
  }
  // An explicitly empty database-final check: a trace whose last addition
  // is the empty clause proves UNSAT; otherwise it is just a valid
  // derivation log (e.g. a SAT run that learnt and deleted clauses).
  res.ok = true;
  return res;
}

LitVec Proof::replay_clause(ProofId id) const {
  // Iterative replay with memoization over the sub-DAG reachable from id.
  // Nodes are topologically ordered, so a forward sweep over the ids that
  // are actually needed suffices.
  std::vector<char> needed(id + 1, 0);
  needed[id] = 1;
  for (ProofId i = id + 1; i-- > 0;) {
    if (!needed[i]) continue;
    const ProofNode& n = nodes_[i];
    if (n.is_leaf()) continue;
    STEP_CHECK(n.start < i);
    needed[n.start] = 1;
    for (const ProofStep& s : steps(i)) {
      STEP_CHECK(s.antecedent < i);
      needed[s.antecedent] = 1;
    }
  }

  std::vector<LitVec> memo(id + 1);
  for (ProofId i = 0; i <= id; ++i) {
    if (!needed[i]) continue;
    const ProofNode& n = nodes_[i];
    if (n.is_leaf()) {
      const std::span<const Lit> lits = leaf_lits(i);
      memo[i].assign(lits.begin(), lits.end());
      normalize(memo[i]);
    } else {
      LitVec cur = memo[n.start];
      for (const ProofStep& s : steps(i)) {
        resolve(cur, memo[s.antecedent], s.pivot);
      }
      memo[i] = std::move(cur);
    }
  }
  return memo[id];
}

}  // namespace step::sat
