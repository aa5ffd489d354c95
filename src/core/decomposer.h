#pragma once

#include <optional>

#include "common/fault.h"
#include "common/resource.h"
#include "common/timer.h"
#include "core/extract.h"
#include "core/ljh.h"
#include "core/mg.h"
#include "core/optimum.h"
#include "core/qbf_model.h"

namespace step::core {

/// The decomposition engines the paper evaluates against each other.
enum class Engine : std::uint8_t {
  kLjh,          ///< Bi-dec / LJH [16] (OR model, best-quality mode)
  kMg,           ///< STEP-MG [7] (group-oriented MUS)
  kQbfDisjoint,  ///< STEP-QD — optimum disjointness via QBF
  kQbfBalanced,  ///< STEP-QB — optimum balancedness via QBF
  kQbfCombined,  ///< STEP-QDB — optimum disjointness+balancedness via QBF
};

inline const char* to_string(Engine e) {
  switch (e) {
    case Engine::kLjh: return "LJH";
    case Engine::kMg: return "STEP-MG";
    case Engine::kQbfDisjoint: return "STEP-QD";
    case Engine::kQbfBalanced: return "STEP-QB";
    case Engine::kQbfCombined: return "STEP-QDB";
  }
  return "?";
}

inline bool is_qbf_engine(Engine e) {
  return e == Engine::kQbfDisjoint || e == Engine::kQbfBalanced ||
         e == Engine::kQbfCombined;
}

struct DecomposeOptions {
  GateOp op = GateOp::kOr;
  Engine engine = Engine::kQbfDisjoint;
  /// Per-PO wall budget (the paper gives each circuit 6000 s total).
  double po_budget_s = 10.0;
  /// Bootstrap the QBF engines with an MG partition (paper Section V.A:
  /// "STEP-{QD,QB,QDB} is bootstrapped with the result of STEP-MG").
  bool bootstrap_with_mg = true;
  /// Compute fA/fB after the partition (interpolation / cofactoring).
  bool extract = true;
  /// Verify f ≡ fA <OP> fB after extraction (verify_decomposition: a table
  /// compare up to aig::kTtMaxSupport inputs, a SAT miter above).
  bool verify = true;
  LjhOptions ljh;
  MgOptions mg;
  OptimumOptions optimum;
  QbfFinderOptions qbf;
  /// SAT-solver configuration applied to every solver the engines build
  /// (relaxation / LJH / CEGAR pair): LBD tiers, conflict budget — see
  /// sat::SolverOptions and docs/SOLVER.md.
  sat::SolverOptions sat;
  /// Don't-care-aware mode: the circuit drivers compute an SDC window per
  /// cone (aig/window.h) and decompose the windowed function on its care
  /// set, falling back to the exact cone when no window with don't-cares
  /// exists or the windowed attempt fails — so DC mode never decomposes
  /// fewer cones than exact mode. Cone-level callers pass a care set to
  /// decompose() directly; this flag plus the caps below steer the
  /// drivers.
  bool use_dont_cares = false;
  /// Window caps (cut depth/width, simulation words, SAT completions).
  aig::WindowOptions window;
  /// Resource-governance attachments (all optional, all non-owning; the
  /// circuit drivers wire them per cone). They hook into the per-PO
  /// deadline's poll seam, so every existing deadline check in the
  /// engines doubles as a memory/fault/cancellation trip point:
  ///  - `mem`: per-cone memory account — a tripped tracker aborts the
  ///    cone with OutcomeReason::kMemLimit;
  ///  - `faults`: deterministic fault-injection stream (testing);
  ///  - `run_deadline`: run-level deadline/cancellation the per-PO
  ///    deadline chains to (OutcomeReason::kCircuitDeadline).
  MemTracker* mem = nullptr;
  FaultStream* faults = nullptr;
  const Deadline* run_deadline = nullptr;
};

enum class DecomposeStatus : std::uint8_t {
  kDecomposed,
  kNotDecomposable,  ///< proven: no non-trivial partition for this op
  kUnknown,          ///< budget exhausted before any conclusion
};

struct DecomposeResult {
  DecomposeStatus status = DecomposeStatus::kUnknown;
  /// Why no conclusion was reached (kOk when status != kUnknown). A
  /// result that fails verification — injected or real — is discarded
  /// and reported here as kVerificationFailed, never returned as an
  /// unverified "success".
  OutcomeReason reason = OutcomeReason::kOk;
  Partition partition;
  Metrics metrics;
  /// QBF engines only: optimum proven for the engine's target metric.
  bool proven_optimal = false;
  std::optional<ExtractedFunctions> functions;
  bool verified = false;
  double cpu_s = 0.0;
  int sat_calls = 0;
  int qbf_calls = 0;
  /// QBF engines only: total CEGAR refinement rounds across all bound
  /// queries, and conflicts spent in the abstraction / verification SAT
  /// solvers of the (persistent or scratch) solver pair.
  int qbf_iterations = 0;
  std::uint64_t qbf_abstraction_conflicts = 0;
  std::uint64_t qbf_verification_conflicts = 0;
  /// Aggregated low-level SAT statistics of the solvers this call owned
  /// (relaxation solver + CEGAR pair): conflicts, restarts, tier
  /// occupancy, budget stops, … (see sat::Solver::Stats).
  sat::Solver::Stats solver_stats;
};

/// Facade running one engine on one cone — the per-PO unit of work of the
/// paper's experiments and of this library's public API.
class BiDecomposer {
 public:
  explicit BiDecomposer(DecomposeOptions opts = {}) : opts_(opts) {
    // The cone's memory account meters every solver this call builds:
    // engines construct their relaxation/LJH/CEGAR solvers from
    // `opts_.sat`, so threading the tracker through it here charges all
    // clause arenas without per-engine plumbing.
    if (opts_.mem != nullptr && opts_.sat.mem == nullptr) {
      opts_.sat.mem = opts_.mem;
    }
  }

  const DecomposeOptions& options() const { return opts_; }

  /// Decomposes one cone. A non-trivial `care` relaxes every validity
  /// check, the extraction, and the verification to the care minterms
  /// (OR/AND; XOR partitions stay exact — see build_relaxation_matrix).
  DecomposeResult decompose(const Cone& cone,
                            const CareSet* care = nullptr) const;

 private:
  DecomposeOptions opts_;
};

/// Decomposition under a *known* partition — the setting of Proposition 1
/// ([16] assumes the partition is given; the paper automates finding it).
/// Validates the partition with one SAT call, then extracts and verifies.
/// Status is kNotDecomposable when the partition is trivial or invalid.
/// With a care set, validity/extraction/verification all run against the
/// care window instead of demanding exact cone equivalence.
DecomposeResult decompose_with_partition(const Cone& cone, GateOp op,
                                         const Partition& partition,
                                         bool extract = true,
                                         bool verify = true,
                                         const CareSet* care = nullptr,
                                         FaultStream* faults = nullptr);

}  // namespace step::core
