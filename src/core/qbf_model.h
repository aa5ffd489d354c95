#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
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
  /// Always >= k+1 for the queried k; the incremental path can report more
  /// when the UNSAT core over the cardinality-counter outputs proves the
  /// cost is forced even higher, letting the optimum search raise its
  /// lower bound past k+1 without extra queries.
  int refuted_below = 0;
};

/// Decides, via the 2QBF formulation (9), whether a non-trivial valid
/// partition with fT-cost <= k exists — and produces it if so.
///
/// The solved formula is the *negation* of (9):
///   ∃α,β ∀X,X',X''.  ¬Φ ∧ fN(α,β) ∧ fT(α,β)
/// whose ∃-witness (AReQS counterexample for (9)) is the partition.
///
/// Two execution modes share this interface:
///  - *incremental* (default): one persistent CEGAR solver pair per model
///    carries the matrix CNF, fN, every refinement, all learned clauses
///    and heuristic state across every bound query; fT bounds are
///    activated purely through assumptions on an incremental cardinality
///    counter,
///    so tightening k never re-encodes anything.
///  - *scratch*: the original rebuild-per-query path, kept behind
///    `incremental = false` for A/B regression of answers and cost.
/// Both modes share a deduplicated pool of inner countermodels (every
/// refinement is sound at every bound and for every model: the matrix part
/// does not depend on fT), seeding new solver instances with all prior
/// learning.
struct QbfFinderOptions {
  /// Break the XA/XB symmetry with |XA| >= |XB| (Section IV.A.2: "reduces
  /// substantially the search space"). When off, the QB and QDB targets
  /// bound the *absolute* size difference instead, which is equivalent on
  /// partitions but doubles the witness space.
  bool symmetry_breaking = true;
  /// Carry CEGAR countermodels across bound queries (and, via the pool,
  /// across solver instances / models).
  bool pool_seeding = true;
  /// Keep one solver pair alive across all bound queries of a model and
  /// drive the bounds with counter-output assumptions. Off = rebuild per query.
  bool incremental = true;
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
  std::size_t pool_size() const { return pool_.size(); }

  /// Aggregated cost counters across all calls (both modes): CEGAR
  /// refinement rounds and conflicts on the two sides of the solver pair.
  int total_iterations() const { return total_iterations_; }
  std::uint64_t abstraction_conflicts() const { return abs_conflicts_; }
  std::uint64_t verification_conflicts() const { return ver_conflicts_; }

  /// Full low-level SAT statistics across every solver this finder built:
  /// retired scratch pairs plus the live persistent pairs.
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
  /// Persistent incremental solver state for one QBF model.
  struct IncState {
    std::unique_ptr<qbf::ExistsForallSolver> solver;
    std::vector<BoundCounter> bounds;
    std::size_t pool_synced = 0;  ///< countermodels already copied to pool_
  };

  IncState& state_for(QbfModel model);
  QbfFindResult find_incremental(QbfModel model, int k,
                                 const Deadline* deadline);
  QbfFindResult find_scratch(QbfModel model, int k, const Deadline* deadline);

  /// Replays the cached fN clauses (and, when `want_shared`, the shared-
  /// variable indicator clauses) into a freshly constructed solver's
  /// abstraction; returns the t literals (empty unless `want_shared`).
  sat::LitVec install_side_constraints(qbf::ExistsForallSolver& solver,
                                       bool want_shared) const;

  Partition decode_partition(const std::vector<sat::Lbool>& outer_model) const;
  void absorb_countermodel(const std::vector<sat::Lbool>& cm);

  const RelaxationMatrix& m_;  ///< not owned; must outlive the finder
  QbfFinderOptions opts_;

  // Hoisted per-matrix construction (identical for every call): quantifier
  // prefix vectors, the α/β literal layout of the abstraction (outer vars
  // occupy [0, 2n) in construction order), and the clause templates for fN
  // and the shared-variable indicators t_i ⇔ (¬α_i ∧ ¬β_i) (QD, and the
  // scratch path's literal QDB).
  std::vector<std::uint32_t> outer_, inner_;
  sat::LitVec alpha_, beta_;
  std::vector<sat::LitVec> fn_clauses_;
  std::vector<sat::LitVec> shared_clauses_;
  sat::LitVec shared_lits_;

  std::array<std::unique_ptr<IncState>, 3> inc_;  ///< per QbfModel

  /// Deduplicated inner-countermodel pool shared by every solver instance.
  std::vector<std::vector<sat::Lbool>> pool_;
  std::unordered_set<std::string> pool_keys_;

  int qbf_calls_ = 0;
  int total_iterations_ = 0;
  std::uint64_t abs_conflicts_ = 0;
  std::uint64_t ver_conflicts_ = 0;
  sat::Solver::Stats scratch_stats_;  ///< accumulated from retired solvers
};

}  // namespace step::core
