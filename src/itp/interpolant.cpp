#include "itp/interpolant.h"

#include "common/check.h"
#include "sat/proof.h"

namespace step::itp {

aig::Lit build_interpolant(const sat::Solver& solver, aig::Aig& dst,
                           const std::vector<aig::Lit>& shared_map) {
  const sat::Proof& proof = solver.proof();
  const sat::ProofId empty_id = proof.empty_clause();
  STEP_CHECK(empty_id != sat::kProofIdUndef);

  // Variable occurrence classes from *all* leaves (the full A/B clause
  // sets define locality, not just the clauses the refutation touches).
  std::vector<char> in_b(solver.num_vars(), 0);
  for (sat::ProofId i = 0; i < proof.size(); ++i) {
    const sat::ProofNode& n = proof.node(i);
    if (!n.is_leaf() || n.tag != kTagB) continue;
    for (sat::Lit l : proof.leaf_lits(i)) in_b[sat::var(l)] = 1;
  }

  // Mark the sub-DAG feeding the empty clause.
  std::vector<char> needed(empty_id + 1, 0);
  needed[empty_id] = 1;
  for (sat::ProofId i = empty_id + 1; i-- > 0;) {
    if (!needed[i]) continue;
    const sat::ProofNode& n = proof.node(i);
    if (n.is_leaf()) continue;
    needed[n.start] = 1;
    for (const sat::ProofStep& s : proof.steps(i)) needed[s.antecedent] = 1;
  }

  // Forward replay with the McMillan rules.
  std::vector<aig::Lit> itp(empty_id + 1, aig::kLitInvalid);
  std::vector<aig::Lit> global;
  for (sat::ProofId i = 0; i <= empty_id; ++i) {
    if (!needed[i]) continue;
    const sat::ProofNode& n = proof.node(i);
    if (n.is_leaf()) {
      if (n.tag == kTagB) {
        itp[i] = aig::kLitTrue;
      } else {
        STEP_CHECK(n.tag == kTagA);
        global.clear();
        for (sat::Lit l : proof.leaf_lits(i)) {
          const sat::Var v = sat::var(l);
          if (!in_b[v]) continue;
          STEP_CHECK(v < static_cast<sat::Var>(shared_map.size()));
          STEP_CHECK(shared_map[v] != aig::kLitInvalid);
          global.push_back(sat::sign(l) ? aig::lnot(shared_map[v])
                                        : shared_map[v]);
        }
        itp[i] = dst.lor_many(global);
      }
    } else {
      aig::Lit cur = itp[n.start];
      STEP_CHECK(cur != aig::kLitInvalid);
      for (const sat::ProofStep& s : proof.steps(i)) {
        const aig::Lit other = itp[s.antecedent];
        STEP_CHECK(other != aig::kLitInvalid);
        cur = in_b[s.pivot] ? dst.land(cur, other) : dst.lor(cur, other);
      }
      itp[i] = cur;
    }
  }
  return itp[empty_id];
}

}  // namespace step::itp
