#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace step::aig {
class Aig;
}

namespace step::analysis {

/// Static artifact analysis ("step lint"): structural well-formedness
/// checks on the netlists and CNF the solvers consume, run *before* any
/// solver does. There is one decoder per format — io::decode_aiger()
/// (ASCII and binary) and sat::decode_dimacs() — shared with the
/// production readers: the reader stops at the first defect, the linter
/// records every defect as a finding and adds its global checks, so one
/// run reports every defect it can still reach. The AIGER reader rejects
/// exactly the files that get an error finding. Only an unreadable file
/// (missing, permission) throws io::IoError.
///
/// Every finding carries a stable machine-readable code (the contract the
/// tests and CI gates pin), a severity, and a location. The full code
/// catalogue lives in docs/ARCHITECTURE.md § "Static analysis &
/// concurrency contracts".

enum class Severity {
  kInfo,     ///< stylistic / redundancy note, never affects the exit code
  kWarning,  ///< structurally suspicious (dangling node, duplicate clause)
  kError,    ///< the artifact is unsound input for the solvers
};

const char* to_string(Severity s);

struct Finding {
  std::string code;     ///< stable machine-readable id, e.g. "AIG-CYCLE"
  Severity severity = Severity::kWarning;
  std::string object;   ///< what it concerns, e.g. "and 12", "clause 7"
  std::string message;  ///< human-readable explanation
  long line = 0;        ///< 1-based source line when known, 0 otherwise
};

struct LintReport {
  std::string path;  ///< source file; "<memory>" for in-memory lints
  std::string kind;  ///< "aiger-ascii", "aiger-binary", "cnf" or "aig"
  std::vector<Finding> findings;

  int errors() const;
  int warnings() const;
  int infos() const;
  /// True when no error-severity finding is present — the exit-0 contract
  /// of `step lint` (warnings and infos do not fail a run).
  bool ok() const { return errors() == 0; }
  bool has(std::string_view code) const;
};

/// Lints AIGER bytes, dispatching ASCII vs binary on the header magic.
LintReport lint_aiger(std::string_view bytes);

/// Lints DIMACS CNF text.
LintReport lint_cnf(std::string_view text);

/// Lints an in-memory AIG (the benchgen invariant hook): dangling AND
/// nodes, strash violations (duplicate or foldable ANDs) and constant
/// outputs. Range errors and cycles are unrepresentable in aig::Aig, so
/// only the file-level linters check those.
LintReport lint_aig(const aig::Aig& a);

/// Reads and lints a file, dispatching on extension (.aag/.aig -> AIGER,
/// .cnf/.dimacs -> CNF) with a content sniff as fallback. Throws
/// io::IoError when the file cannot be read; content problems come back
/// as findings.
LintReport lint_file(const std::string& path);

/// Renders a report as a single machine-readable JSON object
/// ({path, kind, summary{errors,warnings,infos,ok}, findings[...]}).
std::string to_json(const LintReport& report);

}  // namespace step::analysis
