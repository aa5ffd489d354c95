#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cnf/cardinality.h"
#include "common/timer.h"
#include "core/partition_check.h"
#include "core/relaxation.h"
#include "qbf/qbf2.h"

namespace step::core {

/// The paper's QBF models (Section IV): which target constraint fT is
/// imposed on the universal partition variables.
enum class QbfModel {
  kQD,   ///< disjointness target, eq. (5), with |XA| >= |XB| symmetry break
  kQB,   ///< balancedness target, eq. (6)
  kQDB,  ///< combined target, eq. (8), weights 1/1
};

inline const char* to_string(QbfModel m) {
  switch (m) {
    case QbfModel::kQD: return "STEP-QD";
    case QbfModel::kQB: return "STEP-QB";
    case QbfModel::kQDB: return "STEP-QDB";
  }
  return "?";
}

inline MetricKind metric_of(QbfModel m) {
  switch (m) {
    case QbfModel::kQD: return MetricKind::kDisjointness;
    case QbfModel::kQB: return MetricKind::kBalancedness;
    case QbfModel::kQDB: return MetricKind::kSum;
  }
  return MetricKind::kDisjointness;
}

struct QbfFindResult {
  qbf::Qbf2Status status = qbf::Qbf2Status::kUnknown;
  /// Valid when status == kTrue: a non-trivial partition whose target
  /// metric numerator is <= the queried bound k.
  Partition partition;
  int iterations = 0;
  /// Valid when status == kFalse: every bound < refuted_below is refuted.
  /// Always >= k+1 for the queried k; more
  /// when the UNSAT core over the cardinality-counter outputs proves the
  /// cost is forced even higher, letting the optimum search raise its
  /// lower bound past k+1 without extra queries.
  int refuted_below = 0;
};

/// The truth-table ∀-side of the CEGAR search on an OR/AND relaxation
/// matrix of ≤ aig::kTtMaxSupport inputs, for a solver whose outer inputs
/// are α then β (α_i at variable i, β_i at n + i). A candidate holds iff
/// the table says so (RelaxationTable::forall_holds, an α or β left
/// undefined counting as relaxed); otherwise the refinement is the
/// clause of its countermodel rows: ∨ ¬α_i where x′ differs from x and
/// ∨ ¬β_i where x″ does. `table` must outlive the returned callback.
qbf::ForallSide table_forall_side(const RelaxationTable& table);

/// Decides, via the 2QBF formulation (9), whether a non-trivial valid
/// partition with fT-cost <= k exists — and produces it if so.
///
/// The solved formula is the *negation* of (9):
///   ∃α,β ∀X,X',X''.  ¬Φ ∧ fN(α,β) ∧ fT(α,β)
/// whose ∃-witness (AReQS counterexample for (9)) is the partition.
///
/// The ∀-side is chosen from the matrix alone. An OR/AND matrix of
/// ≤ aig::kTtMaxSupport inputs checks candidates on one RelaxationTable,
/// built at the first query and charged to `cegar.sat.mem`
/// (table_forall_side): no verification solver, no Tseitin encoding. XOR
/// and wider cones keep the SAT ∀-side over ¬Φ's cone copies.
///
/// One persistent CEGAR solver per model carries fN, every refinement,
/// all learned clauses and heuristic state (and, on the SAT ∀-side, the
/// matrix CNF) across every bound query. fT bounds are activated purely
/// through assumptions on an incremental cardinality counter, so
/// tightening k never re-encodes anything.
struct QbfFinderOptions {
  /// Break the XA/XB symmetry with |XA| >= |XB| (Section IV.A.2: "reduces
  /// substantially the search space"). When off, the QB and QDB targets
  /// bound the *absolute* size difference instead, which is equivalent on
  /// partitions but doubles the witness space.
  bool symmetry_breaking = true;
  /// Forwarded to the CEGAR solver.
  qbf::CegarOptions cegar;
};

class QbfPartitionFinder {
 public:
  explicit QbfPartitionFinder(const RelaxationMatrix& m,
                              QbfFinderOptions opts = {});

  QbfFindResult find_with_bound(QbfModel model, int k,
                                const Deadline* deadline = nullptr);

  const RelaxationMatrix& matrix() const { return m_; }
  int qbf_calls() const { return qbf_calls_; }

  /// Aggregated cost counters across all calls: CEGAR refinement rounds
  /// and conflicts on the two sides of the loop (the verification side's
  /// stay 0 on the table ∀-side).
  int total_iterations() const { return total_iterations_; }
  std::uint64_t abstraction_conflicts() const { return abs_conflicts_; }
  std::uint64_t verification_conflicts() const { return ver_conflicts_; }

  /// Full low-level SAT statistics across every solver this finder built
  /// (one per model queried).
  sat::Solver::Stats solver_stats() const;

 private:
  /// A counter enforcing one fT inequality. The cost bound k becomes "at
  /// most counter_bound(k) of the tracked literals are true": k + offset
  /// for a difference form, ⌊(k + offset)/2⌋ when `halved` (QDB counts the
  /// smaller block; its cost n − 2·||XB|| moves in steps of 2). The assumed
  /// and the read-back side of the map live here together so they cannot
  /// drift apart.
  struct BoundCounter {
    std::unique_ptr<cnf::IncrementalCounter> counter;
    int offset = 0;
    bool halved = false;

    int counter_bound(int k) const {
      const int s = k + offset;
      if (!halved) return s;
      return s < 0 ? -1 : s / 2;
    }
    /// Inverse for the UNSAT-core read-back: the least cost bound k with
    /// counter_bound(k) >= j. A core naming ~o_j refutes every bound below.
    int refuted_below(int j) const {
      return halved ? 2 * j - offset : j - offset;
    }
  };
  /// A CEGAR solver over α ++ β with the ∀-side the matrix selects.
  std::unique_ptr<qbf::ExistsForallSolver> make_solver();

  /// Persistent solver state for one QBF model.
  struct ModelState {
    std::unique_ptr<qbf::ExistsForallSolver> solver;
    std::vector<BoundCounter> bounds;
  };

  ModelState& state_for(QbfModel model);

  Partition decode_partition(const std::vector<sat::Lbool>& outer_model) const;

  const RelaxationMatrix& m_;  ///< not owned; must outlive the finder
  QbfFinderOptions opts_;

  // Quantifier prefix vectors and the α/β literal layout of the
  // abstraction (outer vars occupy [0, 2n) in construction order).
  std::vector<std::uint32_t> outer_, inner_;
  sat::LitVec alpha_, beta_;

  /// The table ∀-side's table; null until the first query, and for XOR
  /// and wide matrices. Declared before the solvers that read it.
  std::unique_ptr<RelaxationTable> table_;
  std::array<std::unique_ptr<ModelState>, 3> states_;  ///< per QbfModel

  int qbf_calls_ = 0;
  int total_iterations_ = 0;
  std::uint64_t abs_conflicts_ = 0;
  std::uint64_t ver_conflicts_ = 0;
};

}  // namespace step::core
