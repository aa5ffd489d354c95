#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sat/types.h"

namespace step::sat {

/// Identifier of a proof node (leaf clause or derived resolvent).
using ProofId = std::uint32_t;
constexpr ProofId kProofIdUndef = 0xffffffffU;

/// One resolution step: resolve the running resolvent with `antecedent`
/// on variable `pivot`.
struct ProofStep {
  ProofId antecedent = kProofIdUndef;
  Var pivot = kVarUndef;
};

/// A node in the resolution proof DAG.
///
/// Leaves carry the clause literals as supplied by the user together with a
/// partition `tag` (the interpolation system uses tag 0 for the A-part and
/// tag 1 for the B-part). Derived nodes are trivial resolution chains:
/// start from node `start` and resolve with each step's antecedent in order.
/// The literals of a leaf and the steps of a derived node live in two
/// pooled arrays of the owning Proof; [begin, end) is the node's range in
/// the pool of its kind (Proof::leaf_lits / Proof::steps).
struct ProofNode {
  int tag = -1;  ///< >= 0 for leaves; -1 for derived nodes.
  ProofId start = kProofIdUndef;  ///< derived nodes only
  std::uint32_t begin = 0;
  std::uint32_t end = 0;

  bool is_leaf() const { return tag >= 0; }
};

/// Resolution proof trace recorded by the solver.
///
/// The trace is append-only; node ids are dense and topologically ordered
/// (every antecedent id is smaller than the derived node's id), which lets
/// consumers replay the proof with a single forward sweep. Nodes own no
/// heap memory: adding a node appends to three pooled vectors, so a proof
/// grows by amortized doubling instead of two allocations per node.
class Proof {
 public:
  ProofId add_leaf(std::span<const Lit> lits, int tag) {
    ProofNode n;
    n.tag = tag;
    n.begin = static_cast<std::uint32_t>(lits_.size());
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    n.end = static_cast<std::uint32_t>(lits_.size());
    nodes_.push_back(n);
    return static_cast<ProofId>(nodes_.size() - 1);
  }

  ProofId add_derived(ProofId start, std::span<const ProofStep> steps) {
    ProofNode n;
    n.start = start;
    n.begin = static_cast<std::uint32_t>(steps_.size());
    steps_.insert(steps_.end(), steps.begin(), steps.end());
    n.end = static_cast<std::uint32_t>(steps_.size());
    nodes_.push_back(n);
    return static_cast<ProofId>(nodes_.size() - 1);
  }

  const ProofNode& node(ProofId id) const { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// Literals of leaf `id`, as supplied to add_leaf().
  std::span<const Lit> leaf_lits(ProofId id) const {
    const ProofNode& n = nodes_[id];
    return {lits_.data() + n.begin, n.end - n.begin};
  }
  /// Resolution steps of derived node `id`, in order.
  std::span<const ProofStep> steps(ProofId id) const {
    const ProofNode& n = nodes_[id];
    return {steps_.data() + n.begin, n.end - n.begin};
  }

  /// Id of the derived empty clause; kProofIdUndef until the solver proves
  /// unsatisfiability without assumptions.
  ProofId empty_clause() const { return empty_clause_; }
  void set_empty_clause(ProofId id) { empty_clause_ = id; }

  /// Replays the resolution chain of `id` and returns the clause it derives.
  /// Used by tests to validate that logged chains are syntactically sound,
  /// and by the interpolation engine's debug mode.
  LitVec replay_clause(ProofId id) const;

 private:
  std::vector<ProofNode> nodes_;
  LitVec lits_;                  ///< leaf literals, node ranges back to back
  std::vector<ProofStep> steps_;  ///< derived steps, node ranges back to back
  ProofId empty_clause_ = kProofIdUndef;
};

// ---------------------------------------------------------------- DRAT ----

/// One DRAT proof line: a clause addition or a clause deletion.
struct DratLine {
  bool is_delete = false;
  LitVec lits;  ///< empty + !is_delete = the empty clause
};

/// Clausal (DRAT) proof trace, recorded by the solver when
/// `SolverOptions::drat_logging` is set.
///
/// Unlike the resolution `Proof` (which must keep every learnt clause
/// alive for interpolation), a DRAT trace is compatible with clause
/// deletion, so it is the proof format of the modern search path: learnt
/// clauses and every deletion from the tiered database are logged.
/// The solver performs no blocked-clause addition, so every addition line
/// is RUP (reverse unit propagation) and `check_drat` below is a complete
/// checker for the traces this solver emits.
class DratTrace {
 public:
  void add(std::span<const Lit> lits) { push(false, lits); }
  void del(std::span<const Lit> lits) { push(true, lits); }

  const std::vector<DratLine>& lines() const { return lines_; }
  std::size_t size() const { return lines_.size(); }
  bool empty() const { return lines_.empty(); }
  void clear() { lines_.clear(); }

  /// Renders the trace in the standard textual DRAT format ("d" prefix for
  /// deletions, DIMACS literals, "0" terminators).
  std::string to_text() const;

 private:
  void push(bool is_delete, std::span<const Lit> lits) {
    DratLine l;
    l.is_delete = is_delete;
    l.lits.assign(lits.begin(), lits.end());
    lines_.push_back(std::move(l));
  }

  std::vector<DratLine> lines_;
};

/// Verdict of check_drat().
struct DratCheckResult {
  bool ok = false;            ///< every line verified
  bool proved_unsat = false;  ///< an (implied) empty clause was derived
  std::string error;          ///< first failure, human-readable
};

/// Forward RUP checker for a DRAT trace against the original formula.
///
/// Maintains the clause database (formula + added - deleted); for every
/// addition line it asserts the negation of the clause and runs unit
/// propagation over the database, demanding a conflict; deletion lines
/// must name a clause currently in the database (this solver's traces are
/// exact, so the checker is deliberately strict where standard DRAT
/// checkers skip unknown deletions). O(lines × database) — a test-sized
/// checker, not a competition one.
DratCheckResult check_drat(int num_vars, const std::vector<LitVec>& formula,
                           const DratTrace& trace);

}  // namespace step::sat
