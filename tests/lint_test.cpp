// Tests for the static artifact analyzer (src/analysis): the finding-code
// contract on a crafted defect corpus (tests/data/lint), the exit/ok
// semantics, JSON rendering, the in-memory AIG linter, the benchgen
// invariant that every generator output is lint-clean, and the agreement
// between the AIGER reader and the linter that share one decoder.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/lint.h"
#include "benchgen/epfl.h"
#include "benchgen/suite.h"
#include "common/rng.h"
#include "io/aiger.h"
#include "io/io_error.h"

namespace step::analysis {
namespace {

std::string data_path(const std::string& name) {
  return std::string(STEP_TEST_DATA_DIR) + "/lint/" + name;
}

// ---------------------------------------------------------- crafted corpus

TEST(LintCorpus, DetectsCombinationalCycle) {
  const LintReport r = lint_file(data_path("cycle.aag"));
  EXPECT_TRUE(r.has("AIG-CYCLE"));
  EXPECT_FALSE(r.ok());  // cycles are error severity
}

TEST(LintCorpus, DetectsDanglingAnd) {
  const LintReport r = lint_file(data_path("dangling.aag"));
  EXPECT_TRUE(r.has("AIG-DANGLING"));
  EXPECT_TRUE(r.ok());  // dangling logic is a warning, not an error
  EXPECT_EQ(r.errors(), 0);
  EXPECT_GE(r.warnings(), 1);
}

TEST(LintCorpus, DetectsDuplicateAnd) {
  const LintReport r = lint_file(data_path("dup_and.aag"));
  EXPECT_TRUE(r.has("AIG-DUP-AND"));
  EXPECT_TRUE(r.ok());
  // The duplicate must not also count as dangling: both ANDs drive POs.
  EXPECT_FALSE(r.has("AIG-DANGLING"));
}

TEST(LintCorpus, DetectsUndrivenOutput) {
  const LintReport r = lint_file(data_path("undriven_po.aag"));
  EXPECT_TRUE(r.has("AIG-UNDRIVEN-PO"));
  EXPECT_FALSE(r.ok());
}

TEST(LintCorpus, DetectsTautologicalClause) {
  const LintReport r = lint_file(data_path("taut.cnf"));
  EXPECT_TRUE(r.has("CNF-TAUT"));
  EXPECT_TRUE(r.ok());  // a tautology is redundant, not unsound
}

TEST(LintCorpus, DetectsVariableNumberingGap) {
  const LintReport r = lint_file(data_path("var_gap.cnf"));
  EXPECT_TRUE(r.has("CNF-VAR-GAP"));
  EXPECT_TRUE(r.ok());
}

TEST(LintCorpus, CleanFilesProduceNoFindings) {
  for (const char* name : {"clean.aag", "clean.cnf"}) {
    const LintReport r = lint_file(data_path(name));
    EXPECT_TRUE(r.ok()) << name;
    EXPECT_TRUE(r.findings.empty()) << name << ": " << to_json(r);
  }
}

TEST(LintCorpus, UnreadableFileThrowsIoError) {
  EXPECT_THROW(lint_file(data_path("no_such_file.aag")), io::IoError);
}

// ------------------------------------------------------------- cnf checks

TEST(LintCnf, EmptyClauseIsError) {
  const LintReport r = lint_cnf("p cnf 2 2\n1 2 0\n0\n");
  EXPECT_TRUE(r.has("CNF-EMPTY-CLAUSE"));
  EXPECT_FALSE(r.ok());
}

TEST(LintCnf, DuplicateClauseAndLiteral) {
  const LintReport r = lint_cnf("p cnf 2 3\n1 1 2 0\n2 1 0\n1 2 0\n");
  EXPECT_TRUE(r.has("CNF-DUP-LIT"));
  // Clause 2 and clause 3 share the literal set {1,2} (order-insensitive);
  // clause 1 also collapses to it after literal dedup.
  EXPECT_TRUE(r.has("CNF-DUP-CLAUSE"));
}

TEST(LintCnf, RangeViolationAgainstHeader) {
  const LintReport r = lint_cnf("p cnf 2 1\n1 3 0\n");
  EXPECT_TRUE(r.has("CNF-RANGE"));
  EXPECT_FALSE(r.ok());
}

TEST(LintCnf, MissingTerminatorAndHeaderMismatch) {
  const LintReport r = lint_cnf("p cnf 2 2\n1 2\n");
  EXPECT_TRUE(r.has("CNF-PARSE"));  // file ends inside a clause
  EXPECT_TRUE(r.has("CNF-HEADER"));  // declared 2 clauses, body holds 1
  EXPECT_FALSE(r.ok());
}

TEST(LintCnf, PureLiteralSummary) {
  const LintReport r = lint_cnf("p cnf 2 2\n1 2 0\n1 -2 0\n");
  EXPECT_TRUE(r.has("CNF-PURE-LIT"));  // var 1 only occurs positively
  EXPECT_TRUE(r.ok());                 // info severity only
}

TEST(LintCnf, ToleratesMissingHeader) {
  const LintReport r = lint_cnf("1 -2 0\n2 0\n");
  EXPECT_TRUE(r.has("CNF-HEADER"));
  EXPECT_TRUE(r.ok());  // header absence is a warning
}

// ------------------------------------------------------ hostile-input cnf

TEST(LintCnf, ImplausibleHeaderVarCountIsErrorNotSweep) {
  // A 25-byte file declaring 1e14 variables must produce a bounded error,
  // not a 1e14-iteration gap sweep (OOM/hang).
  const LintReport r = lint_cnf("p cnf 100000000000000 0\n");
  EXPECT_TRUE(r.has("CNF-HEADER"));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.has("CNF-VAR-GAP"));  // implausible bound is not swept
}

TEST(LintCnf, ImplausibleLiteralMagnitudeIsErrorNotAllocation) {
  // A single huge literal must not size the polarity table to terabytes.
  const LintReport r = lint_cnf("1000000000000 0\n");
  EXPECT_TRUE(r.has("CNF-RANGE"));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.has("CNF-EMPTY-CLAUSE"));  // the clause still counts
}

TEST(LintCnf, OverflowingLiteralIsParseError) {
  // strtoll clamps these to LLONG_MAX/LLONG_MIN; both must be rejected as
  // parse errors, not treated as valid (or negation-UB) literals.
  for (const char* body : {"p cnf 2 1\n99999999999999999999 1 0\n",
                           "p cnf 2 1\n-9223372036854775808 1 0\n"}) {
    const LintReport r = lint_cnf(body);
    EXPECT_TRUE(r.has("CNF-PARSE")) << body;
    EXPECT_FALSE(r.ok()) << body;
  }
}

// ------------------------------------------------------------- aig checks

TEST(LintAiger, AcceptsBinaryFormat) {
  // Round-trip a generated circuit through the binary writer, then lint
  // the bytes: generator outputs must be clean in both encodings.
  const aig::Aig a = benchgen::epfl_adder(8);
  const LintReport r = lint_aiger(io::write_aiger_binary(a));
  EXPECT_EQ(r.kind, "aiger-binary");
  EXPECT_TRUE(r.ok()) << to_json(r);
}

TEST(LintAiger, PerCodeFindingsAreCapped) {
  // 60 duplicate ANDs of the same pair: the report holds the cap, not 60,
  // plus one LINT-CAPPED summary naming the suppressed count.
  std::ostringstream os;
  os << "aag 63 2 0 1 61\n2\n4\n6\n";
  for (int i = 0; i < 61; ++i) os << 2 * (3 + i) << " 2 4\n";
  const LintReport r = lint_aiger(os.str());
  EXPECT_TRUE(r.has("AIG-DUP-AND"));
  EXPECT_TRUE(r.has("LINT-CAPPED"));
  int dup = 0;
  for (const Finding& f : r.findings) dup += f.code == "AIG-DUP-AND" ? 1 : 0;
  EXPECT_EQ(dup, 20);
}

TEST(LintAiger, AndLhsBeyondMaxVarIsRangeErrorNotOob) {
  // The AND's lhs variable (50) exceeds M (1): `define()` rejects it, and
  // the cycle-index insertion must not read def[50] past the table end.
  const LintReport r = lint_aiger("aag 1 0 0 0 1\n100 2 3\n");
  EXPECT_TRUE(r.has("AIG-LIT-RANGE"));
  EXPECT_FALSE(r.ok());
}

TEST(LintAiger, OddAndLhsDoesNotHijackCycleIndex) {
  // The odd lhs 7 shares variable 3 with the legitimate AND `6 2 4`; it
  // must get its own finding without overwriting var 3's entry in the
  // cycle index (its self-referential fanins would fake an AIG-CYCLE).
  const LintReport r = lint_aiger("aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n7 6 6\n");
  EXPECT_TRUE(r.has("AIG-ODD-LHS"));
  EXPECT_FALSE(r.has("AIG-CYCLE"));
  EXPECT_FALSE(r.ok());
}

TEST(LintAiger, OverlongBinaryDeltaIsParseError) {
  // Ten continuation bytes with zero payload push the varint shift past
  // 63; the decoder must reject the encoding instead of shifting by >= 64.
  const std::string bytes =
      std::string("aig 1 0 0 0 1\n") + std::string(10, '\x80') + '\x01';
  const LintReport r = lint_aiger(bytes);
  EXPECT_TRUE(r.has("AIG-PARSE"));
  EXPECT_FALSE(r.ok());
}

TEST(LintAig, InMemoryLinterFlagsStrashViolations) {
  aig::Aig a;
  const aig::Lit x = a.add_input("x"), y = a.add_input("y");
  const aig::Lit g1 = a.land(x, y);
  const aig::Lit g2 = a.add_raw_and(x, y);  // structural duplicate of g1
  a.add_output(g1, "f");
  a.add_output(g2, "g");
  const LintReport r = lint_aig(a);
  EXPECT_TRUE(r.has("AIG-DUP-AND"));
  EXPECT_TRUE(r.ok());
}

TEST(LintAig, InMemoryLinterFlagsDanglingNode) {
  aig::Aig a;
  const aig::Lit x = a.add_input("x"), y = a.add_input("y");
  const aig::Lit g1 = a.land(x, y);
  a.add_raw_and(x, aig::lnot(y));  // never read by any output
  a.add_output(g1, "f");
  const LintReport r = lint_aig(a);
  EXPECT_TRUE(r.has("AIG-DANGLING"));
}

// ------------------------------------------- reader <-> linter agreement

/// The reader (dispatching on the magic, as read_aiger_file does) throws
/// IoError exactly when the linter reports an error finding. Any other
/// exception escapes and fails the test.
void expect_reader_agrees(const std::string& bytes, const std::string& what) {
  bool rejected = false;
  try {
    if (bytes.rfind("aig ", 0) == 0) {
      io::parse_aiger_binary(bytes);
    } else {
      io::parse_aiger(bytes);
    }
  } catch (const io::IoError&) {
    rejected = true;
  }
  const LintReport r = lint_aiger(bytes);
  EXPECT_EQ(rejected, r.errors() > 0) << what << "\n" << to_json(r);
}

TEST(LintAgreement, CommittedAigerFiles) {
  namespace fs = std::filesystem;
  int seen = 0;
  for (const char* dir : {"/corpus", "/lint"}) {
    for (const fs::directory_entry& e :
         fs::directory_iterator(std::string(STEP_TEST_DATA_DIR) + dir)) {
      const std::string ext = e.path().extension().string();
      if (ext != ".aag" && ext != ".aig") continue;
      std::ifstream in(e.path(), std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      expect_reader_agrees(ss.str(), e.path().string());
      ++seen;
    }
  }
  EXPECT_GE(seen, 20);
}

TEST(LintAgreement, CraftedDefects) {
  for (const char* bytes : {
           "aag 2 1 1 1 0\n2\n2 3\n2\n",           // latch redefines input
           "aag 3 1 0 1 1\n2\n2\n6 2 4\n",         // dangling undefined fanin
           "aag 3 1 0 1 2\n2\n2\n4 6 2\n6 4 2\n",  // dangling cycle
           "aag 3 2 0 1 1\n2 4\n6\n6 2 4\n",       // two entries on a line
           "aag 2 1 1 1 0\n2\n4 2 7\n4\n",         // bad latch reset value
           "aag 2 1 1 1 0\n2\n4 9\n4\n",           // latch next out of range
           "aig 1 1 0 1 0\n2 3\n",                   // extra output field
           "aig 3 1 0 1 1\n6\n\x02\x01",            // binary M != I+L+A
       }) {
    expect_reader_agrees(bytes, bytes);
    EXPECT_FALSE(lint_aiger(bytes).ok()) << bytes;
  }
}

TEST(LintAgreement, ByteMutationsOfBothFormats) {
  const aig::Aig a = benchgen::epfl_adder(3);
  Rng rng(0x15);
  for (const std::string& valid : {io::write_aiger(a),
                                   io::write_aiger_binary(a)}) {
    expect_reader_agrees(valid, "unmutated");
    for (int round = 0; round < 2000; ++round) {
      std::string m = valid;
      const int edits = rng.next_int(1, 3);
      for (int e = 0; e < edits && !m.empty(); ++e) {
        const std::size_t pos = rng.next_below(m.size());
        switch (rng.next_int(0, 3)) {
          case 0: m[pos] = static_cast<char>('0' + rng.next_int(0, 9)); break;
          case 1: m[pos] = static_cast<char>(rng.next_below(256)); break;
          case 2: m.erase(pos, rng.next_int(1, 4)); break;
          default: m.insert(pos, m.substr(pos, rng.next_int(1, 6)));
        }
      }
      expect_reader_agrees(m, "mutation " + std::to_string(round));
    }
  }
}

// --------------------------------------------------------------- rendering

TEST(LintJson, RendersSummaryAndEscapes) {
  LintReport r;
  r.path = "a\"b";
  r.kind = "cnf";
  r.findings.push_back(
      {"CNF-TAUT", Severity::kWarning, "clause 1", "line1\nline2", 3});
  const std::string js = to_json(r);
  EXPECT_NE(js.find("\"a\\\"b\""), std::string::npos);
  EXPECT_NE(js.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(js.find("\"warnings\": 1"), std::string::npos);
  EXPECT_NE(js.find("\"ok\": true"), std::string::npos);
}

// ------------------------------------------------- benchgen lint invariant

TEST(LintBenchgen, StandardSuiteIsLintClean) {
  for (const benchgen::BenchCircuit& b :
       benchgen::standard_suite(benchgen::SuiteScale::kTiny)) {
    const LintReport in_mem = lint_aig(b.aig);
    EXPECT_TRUE(in_mem.findings.empty())
        << b.name << ": " << to_json(in_mem);
    // And through the ASCII writer: the serialized artifact must be just
    // as clean as the in-memory structure.
    const LintReport on_disk = lint_aiger(io::write_aiger(b.aig));
    EXPECT_TRUE(on_disk.findings.empty())
        << b.name << ": " << to_json(on_disk);
  }
}

TEST(LintBenchgen, EpflGeneratorsAreLintClean) {
  const aig::Aig circuits[] = {
      benchgen::epfl_adder(8), benchgen::epfl_multiplier(4),
      benchgen::epfl_barrel_shifter(8), benchgen::epfl_mux(3),
      benchgen::epfl_decoder(4)};
  for (const aig::Aig& a : circuits) {
    const LintReport r = lint_aig(a);
    EXPECT_TRUE(r.findings.empty()) << to_json(r);
  }
}

}  // namespace
}  // namespace step::analysis
