#pragma once

#include <vector>

#include "aig/aig.h"
#include "common/timer.h"
#include "core/bidec_types.h"
#include "core/care.h"
#include "sat/solver.h"

namespace step::core {

/// Extracts the cone of primary output `po` of `circuit` as a standalone
/// Cone whose inputs are exactly the support. `orig_inputs`, when given,
/// receives the circuit input index backing each cone input position.
Cone extract_po_cone(const aig::Aig& circuit, std::uint32_t po,
                     std::vector<std::uint32_t>* orig_inputs = nullptr);

/// The relaxed validity matrix Φ of eq. (2) (and its AND/XOR analogues),
/// built as an AIG over instantiated copies of the cone plus the partition
/// control inputs α, β:
///
///   OR : Φ =  f(X) ∧ ¬f(X') ∧ ¬f(X'')
///             ∧ ∧i ((xi ≡ xi') ∨ αi)  ∧  ∧i ((xi ≡ xi'') ∨ βi)
///   AND: dual (decomposes ¬f):  ¬f(X) ∧ f(X') ∧ f(X'') ∧ (same)
///   XOR: Φ = (f(X) ⊕ f(X') ⊕ f(X'') ⊕ f(X''')) ∧ (same)
///             ∧ ∧i ((xi''' ≡ xi') ∨ βi) ∧ ∧i ((xi''' ≡ xi'') ∨ αi)
///
/// For a concrete (α,β) encoding partition {XA|XB|XC} (αi ⇔ xi ∈ XA,
/// βi ⇔ xi ∈ XB), Φ is satisfiable iff the partition is *invalid*
/// (Proposition 1 / its AND and XOR analogues).
struct RelaxationMatrix {
  aig::Aig aig;
  aig::Lit phi = aig::kLitFalse;
  GateOp op = GateOp::kOr;
  int n = 0;
  /// True when a care set was conjoined into Φ (see below): validity then
  /// means "valid on the care minterms".
  bool care_constrained = false;
  // Input index vectors into `aig`, each of length n
  // (xppp only for XOR; empty otherwise).
  std::vector<std::uint32_t> x, xp, xpp, xppp, alpha, beta;
  /// The cone's first copy f(X) and, when care-constrained, the care
  /// function over X (constant true otherwise): the truth-table tier reads
  /// the function back from these.
  aig::Lit fx = aig::kLitFalse;
  aig::Lit care_x = aig::kLitTrue;
};

/// With a non-trivial `care`, Φ additionally requires every cone copy to
/// lie in the care set, which is exactly the incompletely-specified
/// validity condition: for OR, the partition is infeasible iff some care
/// onset minterm has a care offset witness in its XA-relaxed orbit *and*
/// one in its XB-relaxed orbit (those witnesses force both gA and gB to 0).
/// Every engine — LJH growth, MG group-MUS, the QBF CEGAR models — checks
/// partitions through this one matrix, so all of them become
/// don't-care-aware with no further changes. XOR is the exception: its
/// 4-copy relaxation only rules out odd 4-cycles, which is necessary but
/// not sufficient on a sparse care set, so XOR keeps exact semantics.
RelaxationMatrix build_relaxation_matrix(const Cone& cone, GateOp op,
                                         const CareSet* care = nullptr);

/// Truth-table view of MG's seed pairs for n <= aig::kTtMaxSupport: decides
/// whether the pair partition ({j},{l}) (every other variable in XC) is
/// valid exactly as Φ would, without SAT.
///   OR : invalid iff  on ∧ flip_j(off) ∧ flip_l(off) ≠ 0,
///        with on = f ∧ care and off = ¬f ∧ care;
///   AND: the same on ¬f;
///   XOR: invalid iff  f ⊕ f^j ⊕ f^l ⊕ f^{jl} ≠ 0 (care is ignored, as in
///        build_relaxation_matrix).
/// Only f (XOR) or the on/off tables (OR/AND) are stored; flipped words
/// are read on the fly.
class SeedPairTable {
 public:
  explicit SeedPairTable(const RelaxationMatrix& m);

  /// True iff the pair partition ({j},{l}) is valid; j != l.
  bool valid(int j, int l) const;
  /// True iff some pair j < l is valid — i.e. MG's seed scan would find a
  /// seed. False proves the cone undecomposable under the matrix's op.
  bool any_valid() const;

 private:
  /// base = on ∧ flip_j(off) (OR/AND) or f ⊕ f^j (XOR).
  void build_base(int j, std::vector<std::uint64_t>& base) const;
  /// True iff base ∧ flip_l(off) (OR/AND) or base ⊕ flip_l(base) (XOR)
  /// has a set bit: the pair is invalid.
  bool hits(const std::vector<std::uint64_t>& base, int l) const;

  GateOp op_;
  int n_;
  std::vector<std::uint64_t> on_;   ///< f for XOR
  std::vector<std::uint64_t> off_;  ///< unused for XOR
};

/// Incremental SAT view of the matrix: Φ is Tseitin-encoded once, and a
/// concrete partition is checked by assuming values of the α/β variables.
/// UNSAT ⇔ the partition is valid. This one solver serves all the SAT-side
/// engines (LJH growth, MG seeding + group-MUS, metric certification).
class RelaxationSolver {
 public:
  explicit RelaxationSolver(const RelaxationMatrix& m,
                            const sat::SolverOptions& sat_opts = {});

  sat::Solver& solver() { return solver_; }
  const RelaxationMatrix& matrix() const { return m_; }

  sat::Var alpha_var(int i) const { return alpha_vars_[i]; }
  sat::Var beta_var(int i) const { return beta_vars_[i]; }

  /// Assumption literals encoding a full partition.
  sat::LitVec assumptions_for(const Partition& p) const;

  /// True iff the partition is valid for the matrix's op. When the check
  /// cannot finish within the deadline, returns false and sets *status to
  /// kUnknown (otherwise kSat/kUnsat).
  bool is_valid(const Partition& p, const Deadline* deadline = nullptr,
                sat::Result* status = nullptr);

  int sat_calls() const { return sat_calls_; }

 private:
  const RelaxationMatrix& m_;  ///< not owned; must outlive the solver
  sat::Solver solver_;
  std::vector<sat::Var> alpha_vars_, beta_vars_;
  int sat_calls_ = 0;
};

}  // namespace step::core
