#pragma once

#include <array>
#include <span>
#include <vector>

#include "sat/solver.h"
#include "sat/types.h"

namespace step::cnf {

/// Destination for generated clauses. Encoders (Tseitin, cardinality)
/// write through this interface so they can target a live SAT solver, a
/// clause list (tests, QBF abstraction snapshots), or both.
class ClauseSink {
 public:
  virtual ~ClauseSink() = default;
  virtual sat::Var new_var() = 0;
  virtual void add_clause(std::span<const sat::Lit> lits) = 0;

  void add_unit(sat::Lit a) { add_clause(std::array{a}); }
  void add_binary(sat::Lit a, sat::Lit b) { add_clause(std::array{a, b}); }
  void add_ternary(sat::Lit a, sat::Lit b, sat::Lit c) {
    add_clause(std::array{a, b, c});
  }
};

/// Sink writing directly into a solver, tagging every clause with the
/// given interpolation partition tag.
class SolverSink final : public ClauseSink {
 public:
  explicit SolverSink(sat::Solver& solver, int proof_tag = 0)
      : solver_(solver), proof_tag_(proof_tag) {}

  sat::Var new_var() override { return solver_.new_var(); }
  void add_clause(std::span<const sat::Lit> lits) override {
    solver_.add_clause(lits, proof_tag_);
  }

 private:
  sat::Solver& solver_;
  int proof_tag_;
};

/// Sink accumulating clauses in memory.
class VecSink final : public ClauseSink {
 public:
  /// `first_free_var` must be beyond every variable used by the caller.
  explicit VecSink(sat::Var first_free_var) : next_var_(first_free_var) {}

  sat::Var new_var() override { return next_var_++; }
  void add_clause(std::span<const sat::Lit> lits) override {
    clauses_.emplace_back(lits.begin(), lits.end());
  }

  const std::vector<sat::LitVec>& clauses() const { return clauses_; }
  sat::Var num_vars() const { return next_var_; }

 private:
  sat::Var next_var_;
  std::vector<sat::LitVec> clauses_;
};

}  // namespace step::cnf
