#pragma once

#include <vector>

#include "aig/aig.h"
#include "common/resource.h"
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

/// The rows that refute a CEGAR candidate on a RelaxationTable (OR/AND,
/// rows over the table's inputs): x is an on-row, x′ (xa) and x″ (xb) are
/// off-rows; x′ differs from x only on XA and x″ only on XB. The
/// refinement clause is ∨ ¬αi over x ⊕ x′ and ∨ ¬βi over x ⊕ x″.
struct TableCountermodel {
  std::uint32_t x = 0, xa = 0, xb = 0;
};

/// Truth-table view of Φ for cones of at most aig::kTtMaxSupport inputs:
/// one table of the cone's function (with its care set) decides what the
/// SAT view decides, without a solver.
///   OR : on = f ∧ care, off = ¬f ∧ care. A group state — Sα the inputs
///        whose α-group is dropped, Sβ those whose β-group is — is valid
///        (Φ unsatisfiable under it) iff  on ∧ ∃Sα·off ∧ ∃Sβ·off = 0.
///   AND: the same on ¬f (on = ¬f ∧ care, off = f ∧ care).
///   XOR: only f is stored (on()), care is ignored as in
///        build_relaxation_matrix. Validity is pairwise, so the table
///        keeps two masks: input i is dependent iff f ⊕ f^i ≠ 0, and i
///        interacts with l iff f ⊕ f^i ⊕ f^l ⊕ f^{il} ≠ 0. A group state
///        is valid iff no input of Sα ∩ Sβ is dependent and no i ∈ Sα
///        interacts with any l ∈ Sβ.
/// The tables are charged to `mem` for the object's lifetime.
class RelaxationTable {
 public:
  /// Tables of the cone itself (input positions are table variables).
  RelaxationTable(const Cone& cone, GateOp op, const CareSet* care,
                  MemTracker* mem = nullptr);
  /// Tables read back from the matrix's first copy fx and care_x.
  explicit RelaxationTable(const RelaxationMatrix& m,
                           MemTracker* mem = nullptr);
  ~RelaxationTable();
  RelaxationTable(const RelaxationTable&) = delete;
  RelaxationTable& operator=(const RelaxationTable&) = delete;

  GateOp op() const { return op_; }
  int n() const { return n_; }
  std::size_t words() const { return on_.size(); }
  /// The on/off tables of the OR form (f for XOR; off is then empty).
  const std::vector<std::uint64_t>& on() const { return on_; }
  const std::vector<std::uint64_t>& off() const { return off_; }
  MemTracker* mem() const { return mem_; }

  /// The first l > j with ({j},{l}) valid, or -1. `scratch` is reused.
  int first_valid_partner(int j, std::vector<std::uint64_t>& scratch) const;

  /// OR/AND: ∃vars·off, with `vars` a bit mask over the inputs.
  std::vector<std::uint64_t> exists_off(std::uint32_t vars) const;

  /// OR/AND: the ∀-side of the CEGAR search. The candidate relaxes the
  /// inputs of `a` (α true: XA) and `b` (β true: XB). Returns true iff it
  /// is valid: on ∧ ∃a·off ∧ ∃b·off = 0. Otherwise `cm` gets the first
  /// witness row x and, on each side, the off-row nearest to it (fewest
  /// flipped inputs; ties to the smaller flip mask): x′ = x ⊕ s with s ⊆ a,
  /// x″ = x ⊕ t with t ⊆ b. `scratch` is reused across calls.
  bool forall_holds(std::uint32_t a, std::uint32_t b, TableCountermodel& cm,
                    std::vector<std::uint64_t>& scratch) const;

  /// XOR: bit i is set iff f depends on input i.
  std::uint32_t xor_dependent() const { return dependent_; }
  /// XOR: bit l is set iff inputs i and l interact (∂²f/∂xi∂xl ≠ 0).
  std::uint32_t xor_interacting(int i) const { return interacting_[i]; }

 private:
  void init(const std::vector<std::uint64_t>& f,
            const std::vector<std::uint64_t>* care);
  /// dst = ∃vars·off (words() words).
  void exists_off_into(std::uint32_t vars, std::uint64_t* dst) const;
  /// The off-row x ⊕ s, s ⊆ vars, with the fewest bits in s; one exists.
  std::uint32_t nearest_off(std::uint32_t x, std::uint32_t vars) const;

  GateOp op_;
  int n_;
  std::vector<std::uint64_t> on_;           ///< f for XOR
  std::vector<std::uint64_t> off_;          ///< empty for XOR
  std::uint32_t dependent_ = 0;             ///< XOR only
  std::vector<std::uint32_t> interacting_;  ///< XOR only, one row per input
  MemTracker* mem_;
  std::size_t charged_ = 0;
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
  /// The variable of input i of the first copy X (a model's on-row).
  sat::Var x_var(int i) const { return x_vars_[i]; }
  /// The memory account the solver charges (SolverOptions::mem).
  MemTracker* mem() const { return mem_; }

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
  MemTracker* mem_;
  std::vector<sat::Var> x_vars_, alpha_vars_, beta_vars_;
  int sat_calls_ = 0;
};

}  // namespace step::core
