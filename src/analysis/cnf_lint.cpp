#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/finding_buffer.h"
#include "analysis/lint.h"
#include "sat/dimacs.h"

namespace step::analysis {

namespace {

/// Per-clause and whole-formula checks over the decoded literal stream;
/// decoder defects become findings.
class CnfLintSink final : public sat::DimacsSink {
 public:
  explicit CnfLintSink(FindingBuffer& fb) : fb_(fb) {}

  void problem(long long vars, long long clauses) override {
    declared_vars = vars;
    declared_clauses = clauses;
  }

  void literal(long long lit, bool plausible, long line) override {
    if (!open_clause_) {
      open_clause_ = true;
      clause_line_ = line;
    }
    // An implausible literal stays in the clause for the per-clause checks
    // (per-token memory is bounded by the file size) but out of the
    // polarity table and the summary sweep bound.
    if (plausible) {
      const long long var = lit > 0 ? lit : -lit;
      max_var = std::max(max_var, var);
      // The decoder's plausibility cap bounds this resize by the file size.
      const auto v = static_cast<std::size_t>(var);
      if (polarity.size() <= v) polarity.resize(v + 1, 0);
      polarity[v] |= lit < 0 ? 2 : 1;
    }
    clause_.push_back(lit);
    clause_lits_.insert(lit);
  }

  void clause_end(long line) override {
    finish_clause(line);
    clause_.clear();
    clause_lits_.clear();
    open_clause_ = false;
  }

  void defect(const char* code, bool error, std::string object,
              std::string message, long line) override {
    fb_.add(code, error ? Severity::kError : Severity::kWarning,
            std::move(object), std::move(message), line);
  }

  long long declared_vars = -1, declared_clauses = -1;
  long long n_clauses = 0;
  long long max_var = 0;
  std::vector<std::uint8_t> polarity;  // bit0: seen positive, bit1: negative

 private:
  void finish_clause(long end_line) {
    ++n_clauses;
    const std::string obj = "clause " + std::to_string(n_clauses);
    if (clause_.empty()) {
      fb_.add("CNF-EMPTY-CLAUSE", Severity::kError, obj,
              "empty clause: the formula is trivially unsatisfiable",
              end_line);
      return;
    }
    bool taut = false;
    for (const long long lit : clause_lits_) {
      if (lit > 0 && clause_lits_.count(-lit) != 0) taut = true;
    }
    if (taut) {
      fb_.add("CNF-TAUT", Severity::kWarning, obj,
              "tautological clause (contains a literal and its negation)",
              clause_line_);
    }
    if (clause_lits_.size() != clause_.size()) {
      fb_.add("CNF-DUP-LIT", Severity::kInfo, obj, "clause repeats a literal",
              clause_line_);
    }
    // Canonical key: sorted, deduplicated literal set.
    std::string key;
    for (const long long lit : clause_lits_) {
      key += std::to_string(lit);
      key += ' ';
    }
    if (!clause_set_.insert(key).second) {
      fb_.add("CNF-DUP-CLAUSE", Severity::kWarning, obj,
              "duplicate of an earlier clause (same literal set)",
              clause_line_);
    }
  }

  FindingBuffer& fb_;
  std::unordered_set<std::string> clause_set_;
  std::vector<long long> clause_;
  std::set<long long> clause_lits_;
  bool open_clause_ = false;
  long clause_line_ = 1;
};

}  // namespace

LintReport lint_cnf(std::string_view text) {
  LintReport report;
  report.path = "<memory>";
  report.kind = "cnf";
  FindingBuffer fb(report);
  CnfLintSink cnf(fb);
  sat::decode_dimacs(text, cnf);

  if (cnf.declared_clauses >= 0 && cnf.n_clauses != cnf.declared_clauses) {
    fb.add("CNF-HEADER", Severity::kWarning, "header",
           "header declares " + std::to_string(cnf.declared_clauses) +
               " clause(s) but the body holds " +
               std::to_string(cnf.n_clauses),
           0);
  }

  // Whole-formula summaries: variable-numbering gaps and pure literals are
  // properties of the complete formula, so each yields one finding with
  // representatives rather than one finding per variable.
  {
    // `bound` is capped by the decoder's plausibility rule, so this sweep is
    // linear in the file size. Only an 8-element sample is kept per
    // summary; counting avoids materializing every gap variable.
    const long long bound = std::max(cnf.declared_vars, cnf.max_var);
    long long n_gaps = 0, n_pures = 0;
    std::vector<long long> gap_sample, pure_sample;
    for (long long v = 1; v <= bound; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      const std::uint8_t pol =
          idx < cnf.polarity.size() ? cnf.polarity[idx] : 0;
      if (pol == 0) {
        if (++n_gaps <= 8) gap_sample.push_back(v);
      } else if (pol != 3) {
        if (++n_pures <= 8) pure_sample.push_back(v);
      }
    }
    auto sample = [](const std::vector<long long>& vs, long long total) {
      std::string s;
      for (std::size_t i = 0; i < vs.size(); ++i) {
        if (i != 0) s += ", ";
        s += std::to_string(vs[i]);
      }
      if (total > static_cast<long long>(vs.size())) s += ", ...";
      return s;
    };
    if (n_gaps > 0) {
      fb.add("CNF-VAR-GAP", Severity::kWarning, "variables",
             std::to_string(n_gaps) +
                 " variable(s) in 1..=" + std::to_string(bound) +
                 " never occur (numbering gap): " + sample(gap_sample, n_gaps),
             0);
    }
    if (n_pures > 0) {
      fb.add("CNF-PURE-LIT", Severity::kInfo, "variables",
             std::to_string(n_pures) + " variable(s) occur in one polarity "
                                       "only: " +
                 sample(pure_sample, n_pures),
             0);
    }
  }

  fb.flush_caps();
  return report;
}

}  // namespace step::analysis
