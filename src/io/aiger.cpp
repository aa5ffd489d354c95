#include "io/aiger.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/resource.h"
#include "io/io_error.h"

namespace step::io {

namespace {

// ------------------------------------------------------------- decoder

/// Line-oriented cursor over the input bytes, tracking 1-based line
/// numbers for defect locations. A trailing '\r' is stripped.
struct LineScanner {
  std::string_view text;
  std::size_t pos = 0;
  long line = 0;

  bool next_line(std::string_view& out) {
    if (pos >= text.size()) return false;
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
    out = text.substr(pos, end - pos);
    if (!out.empty() && out.back() == '\r') out.remove_suffix(1);
    pos = std::min(end + 1, text.size());
    ++line;
    return true;
  }
};

/// Parses one unsigned decimal number spanning all of `s`, rejecting
/// overflow.
bool parse_u64(std::string_view s, std::uint64_t& v) {
  v = 0;
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  return true;
}

/// Splits a line into at most kMaxFields unsigned decimal fields separated
/// by spaces or tabs. Returns the field count, 0 for a malformed line.
constexpr std::size_t kMaxFields = 5;
using Fields = std::array<std::uint64_t, kMaxFields>;

std::size_t parse_fields(std::string_view s, Fields& out) {
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    if (i >= s.size()) break;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (n == kMaxFields || !parse_u64(s.substr(i, j - i), out[n])) return 0;
    ++n;
    i = j;
  }
  return n;
}

std::string lit_str(std::uint64_t lit) {
  return "lit " + std::to_string(lit) + " (var " + std::to_string(lit >> 1) +
         ")";
}

/// `prefix` followed by `n`, e.g. "i3". Appending (rather than
/// `prefix + std::to_string(n)`) also sidesteps a GCC 12 -Wrestrict false
/// positive that -Werror would turn into a build failure.
std::string numbered(const char* prefix, std::uint64_t n) {
  return std::string(prefix).append(std::to_string(n));
}

/// What a defect concerns, e.g. "and 12"; rendered only when reported.
struct Object {
  const char* kind;
  std::uint64_t index;
  std::string str() const { return numbered(kind, index); }
};

class Decoder {
 public:
  Decoder(std::string_view bytes, AigerSink& sink)
      : sc_{bytes}, sink_(sink) {}

  bool run() {
    const bool binary = sc_.text.rfind("aig ", 0) == 0;
    if (!header(binary)) return false;
    return binary ? binary_sections() : ascii_sections();
  }

 private:
  bool header(bool binary) {
    const char* magic = binary ? "aig" : "aag";
    std::string_view line;
    if (!sc_.next_line(line)) {
      sink_.defect("AIG-PARSE", "header", "empty file", 1);
      return false;
    }
    Fields f{};
    if (line.rfind(std::string(magic) + " ", 0) != 0) {
      sink_.defect("AIG-PARSE", "header",
                   std::string("expected '") + magic + " M I L O A' header", 1);
      return false;
    }
    if (parse_fields(line.substr(4), f) != 5) {
      sink_.defect("AIG-PARSE", "header",
                   "header must carry exactly the five counts M I L O A", 1);
      return false;
    }
    // Plausibility: every declared object needs bytes in the input, and
    // literals must fit 32 bits, so no count may exceed this bound. It is
    // checked before any sink sizes a table from the header.
    const std::uint64_t bound =
        std::min<std::uint64_t>(8 * std::uint64_t{sc_.text.size()} + 1024,
                                0x7fffffffU);
    static constexpr const char* kNames[] = {"M", "I", "L", "O", "A"};
    for (std::size_t k = 0; k < 5; ++k) {
      if (f[k] > bound) {
        sink_.defect("AIG-HEADER", "header",
                     std::string(kNames[k]) + " = " + std::to_string(f[k]) +
                         " is implausible for a " +
                         std::to_string(sc_.text.size()) + "-byte file",
                     1);
        return false;
      }
    }
    h_ = {static_cast<std::uint32_t>(f[0]), static_cast<std::uint32_t>(f[1]),
          static_cast<std::uint32_t>(f[2]), static_cast<std::uint32_t>(f[3]),
          static_cast<std::uint32_t>(f[4]), binary};
    const std::uint64_t defined = std::uint64_t{h_.i} + h_.l + h_.a;
    if (h_.m < defined || (binary && h_.m != defined)) {
      sink_.defect("AIG-HEADER", "header",
                   "M = " + std::to_string(h_.m) + " but I+L+A = " +
                       std::to_string(defined) + " variables are defined" +
                       (binary ? " (binary AIGER requires M = I+L+A)" : ""),
                   1);
      // ASCII entries stay range-checked against M, so decoding can go
      // on; binary definitions are implicit and would not be.
      if (binary) return false;
    }
    sink_.header(h_);
    return true;
  }

  /// Reads the next section line into `f_`; reports truncation or a field
  /// count outside [lo, hi] and returns 0 then.
  std::size_t section_line(const char* what, std::size_t lo, std::size_t hi) {
    std::string_view line;
    if (!sc_.next_line(line)) {
      sink_.defect("AIG-PARSE", what,
                   std::string("truncated: missing ") + what + " line",
                   sc_.line);
      return 0;
    }
    const std::size_t n = parse_fields(line, f_);
    if (n < lo || n > hi) {
      sink_.defect("AIG-PARSE", what,
                   std::string("malformed ") + what + " line", sc_.line);
      return 0;
    }
    return n;
  }

  /// AIG-LIT-RANGE check of one literal; `role` prefixes the message.
  bool in_range(std::uint64_t lit, Object object, const char* role) {
    if ((lit >> 1) <= h_.m) return true;
    sink_.defect("AIG-LIT-RANGE", object.str(),
                 role + lit_str(lit) +
                     " exceeds the declared maximum variable " +
                     std::to_string(h_.m),
                 sc_.line);
    return false;
  }

  /// Checks a defining literal (AIG-ODD-LHS, AIG-LIT-RANGE); definitions
  /// are recorded by define() once the whole entry passed.
  bool lhs_ok(std::uint64_t lit, const char* what, Object object) {
    if ((lit & 1) != 0) {
      sink_.defect(
          "AIG-ODD-LHS", object.str(),
          std::string(what) + " defined by complemented " + lit_str(lit),
          sc_.line);
      return false;
    }
    return in_range(lit, object, "");
  }

  /// AIG-REDEF check and definition-table update (ASCII only: binary
  /// definitions are implicit and cannot collide).
  bool define(std::uint64_t lit, Object object) {
    const std::uint64_t v = lit >> 1;
    if (v == 0 || defined_[v] != 0) {
      sink_.defect(
          "AIG-REDEF", object.str(),
          v == 0 ? "attempts to redefine the constant (variable 0)"
                 : "variable " + std::to_string(v) + " is defined twice",
          sc_.line);
      return false;
    }
    defined_[v] = 1;
    return true;
  }

  bool latch_init_ok(std::uint64_t init, std::uint64_t lhs, Object object) {
    if (init == 0 || init == 1 || init == lhs) return true;
    sink_.defect("AIG-LATCH", object.str(),
                 "reset value " + std::to_string(init) +
                     " is neither 0, 1 nor the latch literal itself",
                 sc_.line);
    return false;
  }

  bool outputs() {
    for (std::uint32_t k = 0; k < h_.o; ++k) {
      if (section_line("output", 1, 1) == 0) return false;
      if (in_range(f_[0], {"output ", k}, "")) {
        sink_.output(static_cast<std::uint32_t>(f_[0]), sc_.line);
      }
    }
    return true;
  }

  bool ascii_sections() {
    defined_.assign(std::size_t{h_.m} + 1, 0);
    for (std::uint32_t k = 0; k < h_.i; ++k) {
      if (section_line("input", 1, 1) == 0) return false;
      const Object object{"input ", k};
      if (lhs_ok(f_[0], "input", object) && define(f_[0], object)) {
        sink_.input(static_cast<std::uint32_t>(f_[0]));
      }
    }
    for (std::uint32_t k = 0; k < h_.l; ++k) {
      const std::size_t n = section_line("latch", 2, 3);
      if (n == 0) return false;
      const Object object{"latch ", k};
      // Every check runs, so the linter sees each defect of the line.
      bool ok = lhs_ok(f_[0], "latch", object);
      ok = in_range(f_[1], object, "next-state ") && ok;
      ok = (n < 3 || latch_init_ok(f_[2], f_[0], object)) && ok;
      if (ok && define(f_[0], object)) {
        sink_.latch(static_cast<std::uint32_t>(f_[0]),
                    static_cast<std::uint32_t>(f_[1]), sc_.line);
      }
    }
    if (!outputs()) return false;
    for (std::uint32_t k = 0; k < h_.a; ++k) {
      if (section_line("and", 3, 3) == 0) return false;
      const Object object{"and ", f_[0] >> 1};
      bool ok = lhs_ok(f_[0], "AND", object);
      ok = in_range(f_[1], object, "fanin ") && ok;
      ok = in_range(f_[2], object, "fanin ") && ok;
      if (ok && define(f_[0], object)) {
        sink_.and_gate(static_cast<std::uint32_t>(f_[0]),
                       static_cast<std::uint32_t>(f_[1]),
                       static_cast<std::uint32_t>(f_[2]), sc_.line);
      }
    }
    symbols();
    return true;
  }

  /// One LEB128-style varint (7 data bits per byte, high bit continues);
  /// false on truncation or a value beyond 32 bits.
  bool varint(std::uint32_t& out) {
    std::uint64_t value = 0;
    const std::string_view t = sc_.text;
    for (int shift = 0; shift < 35; shift += 7) {
      if (sc_.pos >= t.size()) return false;
      const auto b = static_cast<std::uint8_t>(t[sc_.pos++]);
      value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        out = static_cast<std::uint32_t>(value);
        return value <= UINT32_MAX;
      }
    }
    return false;
  }

  bool binary_sections() {
    // Inputs and latch outputs are implicit: variables 1..I, I+1..I+L.
    for (std::uint32_t k = 0; k < h_.i; ++k) sink_.input(2 * (k + 1));
    for (std::uint32_t k = 0; k < h_.l; ++k) {
      const std::size_t n = section_line("latch", 1, 2);
      if (n == 0) return false;
      const std::uint32_t lhs = 2 * (h_.i + k + 1);
      const Object object{"latch ", k};
      bool ok = in_range(f_[0], object, "next-state ");
      ok = (n < 2 || latch_init_ok(f_[1], lhs, object)) && ok;
      if (ok) {
        sink_.latch(lhs, static_cast<std::uint32_t>(f_[0]), sc_.line);
      }
    }
    if (!outputs()) return false;
    // Delta-coded AND section: lhs = 2*(I+L+k+1) is implicit; the format
    // requires lhs > rhs0 >= rhs1, which makes the section topologically
    // ordered.
    for (std::uint32_t k = 0; k < h_.a; ++k) {
      const std::uint32_t lhs = 2 * (h_.i + h_.l + k + 1);
      std::uint32_t d0 = 0, d1 = 0;
      if (!varint(d0) || !varint(d1)) {
        sink_.defect(
            "AIG-PARSE", numbered("and ", lhs >> 1),
            "truncated or overflowing delta in the binary AND section", 0);
        return false;
      }
      if (d0 == 0 || d0 > lhs || d1 > lhs - d0) {
        sink_.defect(
            "AIG-PARSE", numbered("and ", lhs >> 1),
            "non-monotone delta encoding (needs lhs > rhs0 >= rhs1 >= 0)", 0);
        return false;
      }
      sink_.and_gate(lhs, lhs - d0, lhs - d0 - d1, 0);
    }
    symbols();
    return true;
  }

  /// Symbol table ("i<k> name", "l<k> name", "o<k> name") up to the "c"
  /// comment marker. Symbol lines carry no structure: malformed ones and
  /// out-of-range indices are ignored, never defects.
  void symbols() {
    std::string_view line;
    while (sc_.next_line(line)) {
      if (line == "c") return;
      const std::size_t sp = line.find(' ');
      std::uint64_t idx = 0;
      if (sp == std::string_view::npos || sp < 2 || sp + 1 == line.size() ||
          !parse_u64(line.substr(1, sp - 1), idx)) {
        continue;
      }
      const char kind = line[0];
      const std::uint32_t count =
          kind == 'i' ? h_.i : kind == 'l' ? h_.l : kind == 'o' ? h_.o : 0;
      if (idx < count) {
        sink_.symbol(kind, static_cast<std::uint32_t>(idx),
                     line.substr(sp + 1));
      }
    }
  }

  LineScanner sc_;
  AigerSink& sink_;
  AigerHeader h_;
  Fields f_{};
  std::vector<std::uint8_t> defined_;  // ASCII definition table, by var
};

// -------------------------------------------------------------- reader

/// Charges reader-side allocations against the caller's MemTracker
/// *before* they are made and converts a tripped cap into a typed
/// IoError — the reader's bounded-abandonment path. Refunds on scope
/// exit; the returned Aig's arena is accounted separately by callers
/// that keep it.
class ReaderBudget {
 public:
  explicit ReaderBudget(MemTracker* mem) : mem_(mem) {}
  ~ReaderBudget() {
    if (mem_ != nullptr) mem_->release(charged_);
  }
  ReaderBudget(const ReaderBudget&) = delete;
  ReaderBudget& operator=(const ReaderBudget&) = delete;

  /// Charge `bytes` more; throws IoError if the cap trips.
  void charge(std::size_t bytes) {
    if (mem_ == nullptr) return;
    mem_->charge(bytes);
    charged_ += bytes;
    if (mem_->tripped()) {
      throw IoError("aiger: memory limit exceeded while reading (tracked " +
                    std::to_string(mem_->bytes()) + " bytes)");
    }
  }

  /// Re-syncs the charge for a structure that grows to `bytes` total
  /// (charges the delta only).
  void charge_total(std::size_t bytes, std::size_t& last) {
    if (bytes > last) {
      charge(bytes - last);
      last = bytes;
    }
  }

 private:
  MemTracker* mem_;
  std::size_t charged_ = 0;
};

[[noreturn]] void fail(const char* code, const std::string& object,
                       const std::string& message, long line) {
  throw IoError("aiger: " +
                (line > 0 ? "line " + std::to_string(line) + ": " : "") +
                object + ": " + message + " [" + code + "]");
}

/// Builds the AIG from decoded entries and throws on the first defect.
/// Binary input builds in a single pass with node ids equal to AIGER
/// variables; ASCII (no ordering promise) is elaborated by finish().
class ReaderSink final : public AigerSink {
 public:
  ReaderSink(MemTracker* mem, bool want_binary)
      : budget_(mem), want_binary_(want_binary) {}

  void header(const AigerHeader& h) override {
    if (h.binary != want_binary_) {
      fail("AIG-PARSE", "header",
           std::string("expected '") + (want_binary_ ? "aig" : "aag") +
               " M I L O A' header",
           1);
    }
    h_ = h;
    const std::size_t vars = std::size_t{h.m} + 1;
    const std::size_t outs = std::size_t{h.o} + h.l;
    if (h.binary) {
      // The entire arena is header-sized; charge it up front so a hostile
      // header trips the cap before the first allocation.
      budget_.charge(vars * 12 + outs * 8);
      out_.reserve(h.m + 1, h.i + h.l, h.o + h.l);
    } else {
      // Var map (4 B/var), AND table (8), elaboration state and the
      // decoder's definition table (1 each), node arena (~12 B/node).
      budget_.charge(vars * (4 + 8 + 1 + 1) +
                     (std::size_t{h.i} + h.l + h.a + 1) * 12 + outs * 8);
      out_.reserve(1 + h.i + h.l + h.a, h.i + h.l, h.o + h.l);
      var_map_.assign(vars, aig::kLitInvalid);
      var_map_[0] = aig::kLitFalse;
      ands_.assign(vars, AndDef{});
    }
    output_lits_.reserve(h.o);
    latch_next_.reserve(h.l);
  }

  void input(std::uint32_t lit) override {
    const aig::Lit l = out_.add_input(numbered("i", out_.num_inputs()));
    if (!h_.binary) var_map_[lit / 2] = l;
  }

  void latch(std::uint32_t lit, std::uint32_t next, long /*line*/) override {
    const aig::Lit l = out_.add_input(numbered("l", latch_next_.size()));
    if (!h_.binary) var_map_[lit / 2] = l;
    latch_next_.push_back(next);
  }

  void output(std::uint32_t lit, long /*line*/) override {
    output_lits_.push_back(lit);
  }

  void and_gate(std::uint32_t lhs, std::uint32_t rhs0, std::uint32_t rhs1,
                long /*line*/) override {
    if (!h_.binary) {
      // AND definitions indexed by var (8 B/slot, charged above) instead
      // of a node-based hash map: at a million gates the difference is
      // the memory envelope.
      ands_[lhs / 2] = {rhs0, rhs1};
      return;
    }
    out_.add_raw_and(rhs0, rhs1);
    if ((out_.num_nodes() & 0xffffU) == 0) {
      budget_.charge_total(out_.memory_bytes(), arena_charged_);
    }
  }

  void symbol(char kind, std::uint32_t index, std::string_view name) override {
    if (kind == 'i') {
      out_.set_input_name(index, std::string(name));
    } else if (kind == 'l') {
      out_.set_input_name(h_.i + index, std::string(name));
      output_names_.emplace_back(h_.o + index, std::string(name) + "_next");
    } else {
      output_names_.emplace_back(index, std::string(name));
    }
  }

  void defect(const char* code, std::string object, std::string message,
              long line) override {
    fail(code, object, message, line);
  }

  aig::Aig finish() {
    if (!h_.binary) elaborate();
    for (std::size_t k = 0; k < output_lits_.size(); ++k) {
      out_.add_output(output_lits_[k], numbered("o", k));
    }
    for (std::size_t k = 0; k < latch_next_.size(); ++k) {
      out_.add_output(latch_next_[k], numbered("l", k) + "_next");
    }
    for (auto& [index, name] : output_names_) {
      out_.set_output_name(index, std::move(name));
    }
    budget_.charge_total(out_.memory_bytes(), arena_charged_);
    return std::move(out_);
  }

 private:
  /// Sentinel fanin marking "this variable has no AND definition".
  static constexpr std::uint32_t kUndef = 0xffffffffU;
  struct AndDef {
    std::uint32_t rhs0 = kUndef;
    std::uint32_t rhs1 = kUndef;
  };
  enum : std::uint8_t { kTodo, kOpen, kDone };

  aig::Lit edge(std::uint32_t lit) const {
    return (lit & 1U) != 0 ? aig::lnot(var_map_[lit / 2]) : var_map_[lit / 2];
  }

  /// Demand-driven elaboration (ASCII AIGER does not promise ordering):
  /// outputs and latch next-states are built, then every AND no output
  /// reaches is checked for undefined fanins and cycles without being
  /// built. Output and latch literals are rewritten to arena literals.
  void elaborate() {
    state_.assign(std::size_t{h_.m} + 1, kTodo);
    for (std::uint32_t v = 0; v <= h_.m; ++v) {
      if (var_map_[v] != aig::kLitInvalid) state_[v] = kDone;
    }
    auto resolve = [&](std::uint32_t& lit, const char* code,
                       const std::string& object) {
      const std::uint32_t v = lit / 2;
      if (state_[v] != kDone && ands_[v].rhs0 == kUndef) {
        fail(code, object,
             "references undefined variable " + std::to_string(v), 0);
      }
      walk(v, true);
      lit = edge(lit);
    };
    for (std::size_t k = 0; k < output_lits_.size(); ++k) {
      resolve(output_lits_[k], "AIG-UNDRIVEN-PO", numbered("output ", k));
    }
    for (std::size_t k = 0; k < latch_next_.size(); ++k) {
      resolve(latch_next_[k], "AIG-UNDEF-FANIN", numbered("latch ", k));
    }
    for (std::uint32_t v = 1; v <= h_.m; ++v) {
      if (state_[v] == kTodo && ands_[v].rhs0 != kUndef) walk(v, false);
    }
  }

  /// Iterative DFS from the AND at `root`: a hostile file can declare an
  /// AND chain as deep as the file is long, which would overflow the call
  /// stack if recursed. With `build`, each AND enters the arena once both
  /// fanins have.
  void walk(std::uint32_t root, bool build) {
    work_.assign(1, root);
    while (!work_.empty()) {
      const std::uint32_t var = work_.back();
      if (state_[var] == kDone) {
        work_.pop_back();
        continue;
      }
      const AndDef& d = ands_[var];
      if (state_[var] == kOpen) {  // both fanins are done
        if (build) {
          var_map_[var] = out_.land(edge(d.rhs0), edge(d.rhs1));
          // Track arena growth (strash included) every so often, so even
          // a legitimately huge netlist respects the cap while it builds.
          if ((out_.num_nodes() & 0xffffU) == 0) {
            budget_.charge_total(out_.memory_bytes(), arena_charged_);
          }
        }
        state_[var] = kDone;
        work_.pop_back();
        continue;
      }
      state_[var] = kOpen;
      for (const std::uint32_t c : {d.rhs0 / 2, d.rhs1 / 2}) {
        if (state_[c] == kDone) continue;
        if (state_[c] == kOpen) {
          fail("AIG-CYCLE", numbered("and ", var),
               "combinational cycle through variable " + std::to_string(c),
               0);
        }
        if (ands_[c].rhs0 == kUndef) {
          fail("AIG-UNDEF-FANIN", numbered("and ", var),
               "fanin references undefined variable " + std::to_string(c),
               0);
        }
        work_.push_back(c);
      }
    }
  }

  ReaderBudget budget_;
  bool want_binary_;
  AigerHeader h_;
  aig::Aig out_;
  std::size_t arena_charged_ = 0;
  std::vector<std::uint32_t> output_lits_, latch_next_;
  std::vector<std::pair<std::uint32_t, std::string>> output_names_;
  // ASCII only: AIGER var -> arena literal, AND definitions, DFS state.
  std::vector<aig::Lit> var_map_;
  std::vector<AndDef> ands_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> work_;
};

aig::Aig read(std::string_view bytes, bool binary, MemTracker* mem) {
  ReaderSink sink(mem, binary);
  decode_aiger(bytes, sink);
  return sink.finish();
}

void write_varint(std::string& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

}  // namespace

bool decode_aiger(std::string_view bytes, AigerSink& sink) {
  return Decoder(bytes, sink).run();
}

aig::Aig parse_aiger(std::string_view text, MemTracker* mem) {
  return read(text, false, mem);
}

aig::Aig parse_aiger_binary(std::string_view bytes, MemTracker* mem) {
  return read(bytes, true, mem);
}

aig::Aig read_aiger_file(const std::string& path, MemTracker* mem) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("aiger: cannot open '" + path + "'", path);
  try {
    // One buffer, charged chunk by chunk before it grows, so a pipe (whose
    // size is unknown up front) is bounded like a regular file.
    ReaderBudget budget(mem);
    std::string bytes;
    std::array<char, 1 << 16> chunk;
    while (in.read(chunk.data(), chunk.size()), in.gcount() > 0) {
      const auto got = static_cast<std::size_t>(in.gcount());
      budget.charge(got);
      bytes.append(chunk.data(), got);
    }
    if (in.bad()) throw IoError("aiger: read failure");
    return read(bytes, bytes.rfind("aig ", 0) == 0, mem);
  } catch (const IoError& e) {
    throw IoError(e.what(), path);
  }
}

std::string write_aiger(const aig::Aig& a) {
  // Node ids are dense and topologically ordered, and the literal encoding
  // matches AIGER's, so the translation is the identity on literals.
  std::ostringstream os;
  const std::uint32_t m = a.num_nodes() - 1;
  os << "aag " << m << ' ' << a.num_inputs() << " 0 " << a.num_outputs()
     << ' ' << a.num_ands() << '\n';
  for (std::uint32_t k = 0; k < a.num_inputs(); ++k) {
    os << aig::mk_lit(a.input_node(k)) << '\n';
  }
  for (std::uint32_t k = 0; k < a.num_outputs(); ++k) {
    os << a.output(k) << '\n';
  }
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (!a.is_and(n)) continue;
    os << aig::mk_lit(n) << ' ' << a.fanin0(n) << ' ' << a.fanin1(n) << '\n';
  }
  for (std::uint32_t k = 0; k < a.num_inputs(); ++k) {
    os << 'i' << k << ' ' << a.input_name(k) << '\n';
  }
  for (std::uint32_t k = 0; k < a.num_outputs(); ++k) {
    os << 'o' << k << ' ' << a.output_name(k) << '\n';
  }
  return os.str();
}

std::string write_aiger_binary(const aig::Aig& a) {
  // The binary format demands vars 1..I be the inputs and AND lhs vars
  // strictly increasing, so nodes are renumbered: inputs first (in input
  // order), then AND nodes in id (= topological) order. Fanin vars are
  // always below their fanout's var, which the delta coding requires.
  const std::uint32_t n_in = a.num_inputs();
  std::vector<std::uint32_t> var_of(a.num_nodes(), 0);
  for (std::uint32_t k = 0; k < n_in; ++k) var_of[a.input_node(k)] = k + 1;
  std::uint32_t next_var = n_in;
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (a.is_and(n)) var_of[n] = ++next_var;
  }
  auto map_lit = [&](aig::Lit l) {
    return 2 * var_of[aig::node_of(l)] +
           static_cast<std::uint32_t>(aig::is_complemented(l));
  };

  std::string out;
  {
    std::ostringstream os;
    os << "aig " << next_var << ' ' << n_in << " 0 " << a.num_outputs() << ' '
       << a.num_ands() << '\n';
    for (std::uint32_t k = 0; k < a.num_outputs(); ++k) {
      os << map_lit(a.output(k)) << '\n';
    }
    out = os.str();
  }
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (!a.is_and(n)) continue;
    const std::uint32_t lhs = 2 * var_of[n];
    std::uint32_t rhs0 = map_lit(a.fanin0(n));
    std::uint32_t rhs1 = map_lit(a.fanin1(n));
    if (rhs0 < rhs1) std::swap(rhs0, rhs1);
    write_varint(out, lhs - rhs0);
    write_varint(out, rhs0 - rhs1);
  }
  {
    std::ostringstream os;
    for (std::uint32_t k = 0; k < n_in; ++k) {
      os << 'i' << k << ' ' << a.input_name(k) << '\n';
    }
    for (std::uint32_t k = 0; k < a.num_outputs(); ++k) {
      os << 'o' << k << ' ' << a.output_name(k) << '\n';
    }
    out += os.str();
  }
  return out;
}

void write_aiger_file(const aig::Aig& a, const std::string& path) {
  const bool binary =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".aig") == 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("aiger: cannot write '" + path + "'", path);
  const std::string text = binary ? write_aiger_binary(a) : write_aiger(a);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw IoError("aiger: write failed for '" + path + "'", path);
}

}  // namespace step::io
