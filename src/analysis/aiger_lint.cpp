#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.h"
#include "analysis/finding_buffer.h"
#include "analysis/lint.h"
#include "io/aiger.h"

namespace step::analysis {

namespace {

/// AIGER contents as decoded: only entries that passed the decoder's
/// per-entry checks, so every definition is unique and every literal is
/// within M. Every defect becomes an error finding. The global checks run
/// on this, so ASCII and binary inputs get the identical finding set for
/// the same structure.
struct RawAig final : io::AigerSink {
  explicit RawAig(FindingBuffer& findings) : fb(findings) {}

  struct Latch {
    std::uint32_t lhs, next;
    long line;
  };
  struct Output {
    std::uint32_t lit;
    long line;
  };
  struct And {
    std::uint32_t lhs, rhs0, rhs1;
    long line;
  };

  void header(const io::AigerHeader& h) override { hdr = h; }
  void input(std::uint32_t lit) override { inputs.push_back(lit); }
  void latch(std::uint32_t lit, std::uint32_t next, long line) override {
    latches.push_back({lit, next, line});
  }
  void output(std::uint32_t lit, long line) override {
    outputs.push_back({lit, line});
  }
  void and_gate(std::uint32_t lhs, std::uint32_t rhs0, std::uint32_t rhs1,
                long line) override {
    ands.push_back({lhs, rhs0, rhs1, line});
  }
  void defect(const char* code, std::string object, std::string message,
              long line) override {
    fb.add(code, Severity::kError, std::move(object), std::move(message),
           line);
  }

  FindingBuffer& fb;
  io::AigerHeader hdr;
  std::vector<std::uint32_t> inputs;
  std::vector<Latch> latches;
  std::vector<Output> outputs;
  std::vector<And> ands;
};

constexpr std::uint32_t var_of(std::uint32_t lit) { return lit >> 1; }

std::string lit_str(std::uint32_t lit) {
  return "lit " + std::to_string(lit) + " (var " + std::to_string(lit >> 1) +
         ")";
}

// ------------------------------------------------------- semantic checks

/// The global checks over a completely decoded file: references to
/// undefined variables, cycles, reachability and strash discipline. A
/// truncated file skips them, because it would drown the report in
/// cascading UNDEF findings.
void global_checks(const RawAig& raw) {
  FindingBuffer& fb = raw.fb;
  const std::uint32_t m = raw.hdr.m;
  const std::uint64_t defined =
      std::uint64_t{raw.hdr.i} + raw.hdr.l + raw.hdr.a;
  if (m > defined) {
    fb.add("AIG-HEADER", Severity::kWarning, "header",
           "M = " + std::to_string(m) + " declares " +
               std::to_string(m - defined) +
               " variable(s) no input/latch/AND defines",
           1);
  }

  // Tables by variable; the decoder's plausibility rule bounds M by the
  // input size. and_of indexes ANDs for the cycle/reachability walks.
  std::vector<bool> def(std::size_t{m} + 1, false);
  std::vector<const RawAig::And*> and_of(std::size_t{m} + 1, nullptr);
  def[0] = true;
  for (const std::uint32_t lit : raw.inputs) def[var_of(lit)] = true;
  for (const RawAig::Latch& l : raw.latches) def[var_of(l.lhs)] = true;
  for (const RawAig::And& a : raw.ands) {
    def[var_of(a.lhs)] = true;
    and_of[var_of(a.lhs)] = &a;
  }

  // --- references to undefined variables --------------------------------
  auto check_ref = [&](std::uint32_t lit, std::string object,
                       const std::string& role, long line) {
    if (!def[var_of(lit)]) {
      fb.add("AIG-UNDEF-FANIN", Severity::kError, std::move(object),
             role + " references undefined variable " +
                 std::to_string(var_of(lit)),
             line);
    }
  };
  for (const RawAig::And& a : raw.ands) {
    const std::string obj = "and " + std::to_string(var_of(a.lhs));
    check_ref(a.rhs0, obj, "fanin", a.line);
    check_ref(a.rhs1, obj, "fanin", a.line);
  }
  for (std::size_t i = 0; i < raw.latches.size(); ++i) {
    check_ref(raw.latches[i].next, "latch " + std::to_string(i),
              "next-state function", raw.latches[i].line);
  }
  for (std::size_t i = 0; i < raw.outputs.size(); ++i) {
    const RawAig::Output& o = raw.outputs[i];
    if (o.lit <= 1) {
      fb.add("AIG-CONST-PO", Severity::kWarning,
             "output " + std::to_string(i),
             std::string("output is the constant ") +
                 (o.lit == 1 ? "true" : "false"),
             o.line);
    } else if (!def[var_of(o.lit)]) {
      fb.add("AIG-UNDRIVEN-PO", Severity::kError,
             "output " + std::to_string(i),
             "output " + lit_str(o.lit) + " is driven by no input, latch or"
                                          " AND definition",
             o.line);
    }
  }

  // --- combinational cycles ---------------------------------------------
  // Iterative tricolor DFS through AND fanins (inputs and latch outputs
  // terminate paths: a latch breaks its loop by construction).
  {
    enum : std::uint8_t { kWhite, kGrey, kBlack };
    std::vector<std::uint8_t> color(std::size_t{m} + 1, kWhite);
    std::vector<bool> cycle_reported(std::size_t{m} + 1, false);
    std::vector<std::pair<const RawAig::And*, int>> stack;
    for (const RawAig::And& root : raw.ands) {
      if (color[var_of(root.lhs)] != kWhite) continue;
      stack.push_back({&root, 0});
      color[var_of(root.lhs)] = kGrey;
      while (!stack.empty()) {
        auto& [a, next_fanin] = stack.back();
        if (next_fanin >= 2) {
          color[var_of(a->lhs)] = kBlack;
          stack.pop_back();
          continue;
        }
        const std::uint32_t child =
            var_of(next_fanin == 0 ? a->rhs0 : a->rhs1);
        ++next_fanin;
        const RawAig::And* c = and_of[child];
        if (c == nullptr) continue;  // input/latch/const: terminal
        if (color[child] == kGrey) {
          if (cycle_reported[child]) continue;
          cycle_reported[child] = true;
          fb.add("AIG-CYCLE", Severity::kError,
                 "and " + std::to_string(child),
                 "combinational cycle: the AND's fanin cone reaches the AND"
                 " itself",
                 c->line);
        } else if (color[child] == kWhite) {
          color[child] = kGrey;
          stack.push_back({c, 0});
        }
      }
    }
  }

  // --- reachability: dangling ANDs --------------------------------------
  {
    std::vector<bool> reach(std::size_t{m} + 1, false);
    std::vector<std::uint32_t> todo;
    auto seed = [&](std::uint32_t lit) {
      const std::uint32_t v = var_of(lit);
      if (and_of[v] != nullptr && !reach[v]) {
        reach[v] = true;
        todo.push_back(v);
      }
    };
    for (const RawAig::Output& o : raw.outputs) seed(o.lit);
    for (const RawAig::Latch& l : raw.latches) seed(l.next);
    while (!todo.empty()) {
      const RawAig::And* a = and_of[todo.back()];
      todo.pop_back();
      seed(a->rhs0);
      seed(a->rhs1);
    }
    for (const RawAig::And& a : raw.ands) {
      if (!reach[var_of(a.lhs)]) {
        fb.add("AIG-DANGLING", Severity::kWarning,
               "and " + std::to_string(var_of(a.lhs)),
               "AND is reachable from no output or latch next-state",
               a.line);
      }
    }
  }

  // --- strash discipline -------------------------------------------------
  {
    std::unordered_map<std::uint64_t, std::uint64_t> strash;  // key -> var
    for (const RawAig::And& a : raw.ands) {
      const std::uint64_t lo = std::min(a.rhs0, a.rhs1);
      const std::uint64_t hi = std::max(a.rhs0, a.rhs1);
      if (lo <= 1 || var_of(a.rhs0) == var_of(a.rhs1)) {
        fb.add("AIG-TRIV-AND", Severity::kInfo,
               "and " + std::to_string(a.lhs >> 1),
               lo <= 1 ? "AND of a constant folds to a literal"
                       : "AND of a variable with itself folds to a literal",
               a.line);
        continue;
      }
      const std::uint64_t key = (hi << 32) | lo;
      const auto [it, inserted] = strash.emplace(key, var_of(a.lhs));
      if (!inserted) {
        fb.add("AIG-DUP-AND", Severity::kWarning,
               "and " + std::to_string(a.lhs >> 1),
               "structural duplicate of and " + std::to_string(it->second) +
                   " (same fanin pair; strash would have merged them)",
               a.line);
      }
    }
  }
}

}  // namespace

LintReport lint_aiger(std::string_view bytes) {
  LintReport report;
  report.path = "<memory>";
  report.kind = bytes.rfind("aig ", 0) == 0 ? "aiger-binary" : "aiger-ascii";
  FindingBuffer fb(report);
  RawAig raw(fb);
  if (io::decode_aiger(bytes, raw)) global_checks(raw);
  fb.flush_caps();
  return report;
}

LintReport lint_aig(const aig::Aig& a) {
  LintReport report;
  report.path = "<memory>";
  report.kind = "aig";
  FindingBuffer fb(report);

  // Reachability from the outputs (ids are topologically ordered, so one
  // reverse sweep suffices: a node is live iff a live fanout reads it).
  std::vector<bool> live(a.num_nodes(), false);
  for (std::uint32_t o = 0; o < a.num_outputs(); ++o) {
    live[aig::node_of(a.output(o))] = true;
  }
  for (std::uint32_t node = a.num_nodes(); node-- > 1;) {
    if (!a.is_and(node) || !live[node]) continue;
    live[aig::node_of(a.fanin0(node))] = true;
    live[aig::node_of(a.fanin1(node))] = true;
  }

  std::unordered_map<std::uint64_t, std::uint32_t> strash;
  for (std::uint32_t node = 1; node < a.num_nodes(); ++node) {
    if (!a.is_and(node)) continue;
    if (!live[node]) {
      fb.add("AIG-DANGLING", Severity::kWarning,
             "and " + std::to_string(node),
             "AND is reachable from no output");
    }
    const aig::Lit f0 = a.fanin0(node), f1 = a.fanin1(node);
    const std::uint64_t lo = std::min(f0, f1), hi = std::max(f0, f1);
    if (lo <= 1 || aig::node_of(f0) == aig::node_of(f1)) {
      fb.add("AIG-TRIV-AND", Severity::kInfo, "and " + std::to_string(node),
             lo <= 1 ? "AND of a constant folds to a literal"
                     : "AND of a variable with itself folds to a literal");
      continue;
    }
    const auto [it, inserted] = strash.emplace((hi << 32) | lo, node);
    if (!inserted) {
      fb.add("AIG-DUP-AND", Severity::kWarning, "and " + std::to_string(node),
             "structural duplicate of and " + std::to_string(it->second) +
                 " (same fanin pair; strash would have merged them)");
    }
  }
  for (std::uint32_t o = 0; o < a.num_outputs(); ++o) {
    if (a.output(o) <= 1) {
      fb.add("AIG-CONST-PO", Severity::kWarning, "output " + std::to_string(o),
             std::string("output is the constant ") +
                 (a.output(o) == 1 ? "true" : "false"));
    }
  }
  fb.flush_caps();
  return report;
}

}  // namespace step::analysis
