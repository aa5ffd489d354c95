#pragma once

#include <map>
#include <string>

#include "analysis/lint.h"

namespace step::analysis {

/// Appends findings with a per-code cap so a pathological million-gate
/// netlist (say, half its ANDs dangling) reports a representative sample
/// plus one summary line instead of flooding the JSON artifact. Shared by
/// the AIGER and CNF linters.
class FindingBuffer {
 public:
  static constexpr int kPerCodeCap = 20;

  explicit FindingBuffer(LintReport& report) : report_(report) {}

  void add(const char* code, Severity severity, std::string object,
           std::string message, long line = 0) {
    const int n = ++counts_[code];
    if (n > kPerCodeCap) return;
    report_.findings.push_back(
        Finding{code, severity, std::move(object), std::move(message), line});
  }

  /// Emits one summary finding per capped code; call exactly once.
  void flush_caps() {
    for (const auto& [code, n] : counts_) {
      if (n <= kPerCodeCap) continue;
      report_.findings.push_back(Finding{
          "LINT-CAPPED", Severity::kInfo, code,
          std::to_string(n - kPerCodeCap) + " further " + code +
              " findings suppressed (" + std::to_string(n) + " total)",
          0});
    }
  }

 private:
  LintReport& report_;
  std::map<std::string, int> counts_;
};

}  // namespace step::analysis
