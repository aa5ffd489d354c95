#include "sat/dimacs.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace step::sat {

namespace {

/// Builds the formula and throws on the first error-severity defect.
class ReaderSink final : public DimacsSink {
 public:
  void problem(long long vars, long long /*clauses*/) override {
    f.num_vars = static_cast<int>(vars);
  }
  void literal(long long lit, bool /*plausible*/, long /*line*/) override {
    const long long v = lit > 0 ? lit : -lit;
    f.num_vars = std::max(f.num_vars, static_cast<int>(v));
    current_.push_back(mk_lit(static_cast<Var>(v - 1), lit < 0));
  }
  void clause_end(long /*line*/) override {
    f.clauses.push_back(current_);
    current_.clear();
  }
  void defect(const char* code, bool error, std::string object,
              std::string message, long line) override {
    if (!error) return;
    throw std::runtime_error("dimacs: line " + std::to_string(line) + ": " +
                             object + ": " + message + " [" + code + "]");
  }

  DimacsFormula f;

 private:
  LitVec current_;
};

constexpr std::string_view kSpace = " \t\r";

}  // namespace

void decode_dimacs(std::string_view text, DimacsSink& sink) {
  // Plausibility cap: every variable needs bytes in the file to occur, so
  // a hostile header or literal must not size anything beyond the input;
  // 2^30 also keeps every variable inside the solver's literal encoding.
  const long long var_cap = static_cast<long long>(
      std::min(8ULL * text.size() + 1024ULL, 1ULL << 30));

  // Line cursor: yields the next line holding a token (comments are whole
  // lines starting with 'c'), with `at` on its first token.
  std::size_t pos = 0;
  long line_no = 0;
  std::string_view line;
  std::size_t at = 0;
  auto next_line = [&] {
    while (pos < text.size()) {
      const std::size_t eol = std::min(text.find('\n', pos), text.size());
      line = text.substr(pos, eol - pos);
      pos = eol + 1;
      ++line_no;
      at = line.find_first_not_of(kSpace);
      if (at != std::string_view::npos && line[0] != 'c') return true;
    }
    return false;
  };

  long long declared_vars = -1;
  bool more = next_line();
  if (more && line[at] == 'p') {
    // "p cnf <vars> <clauses>"
    char fmt[16] = {0};
    long long v = -1, c = -1;
    const std::string owned(line.substr(at));
    if (std::sscanf(owned.c_str(), "p %15s %lld %lld", fmt, &v, &c) < 1 ||
        std::string_view(fmt) != "cnf" || v < 0 || c < 0) {
      sink.defect("CNF-HEADER", false, "header",
                  "problem line is not a well-formed 'p cnf <vars> "
                  "<clauses>'",
                  line_no);
    } else if (v > var_cap) {
      sink.defect("CNF-HEADER", true, "header",
                  "declares " + std::to_string(v) +
                      " variables, implausible for a " +
                      std::to_string(text.size()) + "-byte file",
                  line_no);
    } else {
      declared_vars = v;
      sink.problem(v, c);
    }
    more = next_line();
  } else {
    sink.defect("CNF-HEADER", false, "header",
                "no 'p cnf' problem line (tolerated, but declared bounds "
                "cannot be checked)",
                1);
  }

  long long n_clauses = 0;
  bool open_clause = false;
  for (; more; more = next_line()) {
    while (at < line.size()) {
      const std::size_t end = std::min(line.find_first_of(kSpace, at),
                                       line.size());
      const std::string tok(line.substr(at, end - at));
      at = std::min(line.find_first_not_of(kSpace, end), line.size());
      char* tail = nullptr;
      errno = 0;
      const long long lit = std::strtoll(tok.c_str(), &tail, 10);
      // ERANGE catches silent clamping to LLONG_MAX/LLONG_MIN; an exact
      // LLONG_MIN parses cleanly but cannot be negated, so reject it too.
      if (tail == tok.c_str() || *tail != '\0' || errno == ERANGE ||
          lit == LLONG_MIN) {
        sink.defect("CNF-PARSE", true, "token",
                    "non-numeric or out-of-range token in the clause section",
                    line_no);
        continue;
      }
      if (lit == 0) {
        sink.clause_end(line_no);
        ++n_clauses;
        open_clause = false;
        continue;
      }
      open_clause = true;
      const long long var = lit > 0 ? lit : -lit;
      auto object = [&] { return "clause " + std::to_string(n_clauses + 1); };
      if (var > var_cap) {
        sink.defect("CNF-RANGE", true, object(),
                    "literal " + std::to_string(lit) +
                        " has an implausible magnitude for a " +
                        std::to_string(text.size()) + "-byte file",
                    line_no);
      } else if (declared_vars >= 0 && var > declared_vars) {
        sink.defect("CNF-RANGE", true, object(),
                    "literal " + std::to_string(lit) +
                        " exceeds the declared variable count " +
                        std::to_string(declared_vars),
                    line_no);
      }
      sink.literal(lit, var <= var_cap, line_no);
    }
  }
  if (open_clause) {
    sink.defect("CNF-PARSE", true, "clause " + std::to_string(n_clauses + 1),
                "file ends inside a clause (missing terminating 0)", 0);
    sink.clause_end(0);
  }
}

DimacsFormula parse_dimacs(std::string_view text) {
  ReaderSink sink;
  decode_dimacs(text, sink);
  return std::move(sink.f);
}

std::string write_dimacs(const DimacsFormula& f) {
  std::ostringstream os;
  os << "p cnf " << f.num_vars << ' ' << f.clauses.size() << '\n';
  for (const LitVec& cl : f.clauses) {
    for (Lit l : cl) {
      os << (sign(l) ? -(var(l) + 1) : (var(l) + 1)) << ' ';
    }
    os << "0\n";
  }
  return os.str();
}

}  // namespace step::sat
