#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sat/types.h"

namespace step::sat {

/// A CNF formula in clause-list form, as read from DIMACS input.
struct DimacsFormula {
  int num_vars = 0;
  std::vector<LitVec> clauses;
};

/// Parses DIMACS CNF text. Tolerates comment lines, a missing or
/// malformed problem line and clauses spanning multiple lines. Throws
/// std::runtime_error on the first error decode_dimacs() reports: a
/// non-numeric or overflowing token, a literal beyond the declared
/// variable count or the plausibility cap, or a file that ends inside a
/// clause. `num_vars` is the larger of the declared and the used count.
DimacsFormula parse_dimacs(std::string_view text);

/// Renders a formula back to DIMACS text (with a correct header).
std::string write_dimacs(const DimacsFormula& f);

/// Receives what decode_dimacs() reads. parse_dimacs() builds a formula
/// and throws on the first error; `step lint` turns every defect into a
/// finding.
class DimacsSink {
 public:
  virtual ~DimacsSink() = default;
  /// A well-formed "p cnf <vars> <clauses>" line with a plausible count.
  virtual void problem(long long vars, long long clauses) = 0;
  /// A nonzero literal of the current clause. `plausible` is false when
  /// its magnitude exceeds the plausibility cap (reported as CNF-RANGE).
  virtual void literal(long long lit, bool plausible, long line) = 0;
  /// End of a clause: its terminating 0, or (line 0) the end of a file
  /// that stops inside a clause, after the CNF-PARSE defect saying so.
  virtual void clause_end(long line) = 0;
  /// A decoding defect: finding code ("CNF-PARSE", "CNF-RANGE" or
  /// "CNF-HEADER"), whether it is an error or only a warning, the object
  /// it concerns, a message and the 1-based line (0 when unknown).
  virtual void defect(const char* code, bool error, std::string object,
                      std::string message, long line) = 0;
};

/// Decodes DIMACS text: `c` comment lines, an optional leading problem
/// line, then whitespace-separated literals with 0 ending each clause.
/// Every variable must occur in the input, so magnitudes above
/// 8 * input size + 1024 (or 2^30, the solver's variable range) are
/// implausible, as is a problem line declaring more variables than that.
void decode_dimacs(std::string_view text, DimacsSink& sink);

}  // namespace step::sat
