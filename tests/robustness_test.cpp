// Robustness: the parsers must reject malformed input with exceptions —
// never crash, hang, or silently accept — under random mutation of valid
// files (a light structured fuzz, deterministic by seed) and on the
// committed corpus of malformed/truncated files under tests/data/corpus.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "benchgen/generators.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/circuit_driver.h"
#include "io/aiger.h"
#include "io/blif_reader.h"
#include "io/blif_writer.h"
#include "io/io_error.h"
#include "io/pla_reader.h"
#include "sat/dimacs.h"

namespace step {
namespace {

std::string corpus_path(const std::string& name) {
  return std::string(STEP_TEST_DATA_DIR) + "/corpus/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing corpus file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string mutate(const std::string& base, Rng& rng) {
  std::string s = base;
  const int edits = rng.next_int(1, 4);
  for (int e = 0; e < edits; ++e) {
    if (s.empty()) break;
    const std::size_t pos = rng.next_below(s.size());
    switch (rng.next_int(0, 3)) {
      case 0:  // flip a character
        s[pos] = static_cast<char>(' ' + rng.next_int(0, 94));
        break;
      case 1:  // delete a span
        s.erase(pos, rng.next_int(1, 8));
        break;
      case 2:  // duplicate a span
        s.insert(pos, s.substr(pos, rng.next_int(1, 8)));
        break;
      case 3:  // truncate
        s.resize(pos);
        break;
    }
  }
  return s;
}

template <typename ParseFn>
void fuzz(const std::string& valid, ParseFn parse, int rounds, int seed) {
  // The valid input must parse...
  EXPECT_NO_THROW(parse(valid));
  // ...and no mutation may do anything but succeed or throw runtime_error.
  Rng rng(seed);
  for (int i = 0; i < rounds; ++i) {
    const std::string m = mutate(valid, rng);
    try {
      parse(m);
    } catch (const std::runtime_error&) {
      // expected failure mode
    }
  }
}

TEST(Robustness, BlifParserSurvivesMutation) {
  const std::string valid = io::write_blif(benchgen::ripple_adder(3), "m");
  fuzz(valid, [](const std::string& s) { return io::parse_blif(s); }, 400, 1);
}

TEST(Robustness, BlifElaborationSurvivesMutation) {
  const std::string valid = io::write_blif(benchgen::comparator(3), "m");
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const std::string m = mutate(valid, rng);
    try {
      io::parse_blif(m).to_aig();
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Robustness, AigerParserSurvivesMutation) {
  const std::string valid = io::write_aiger(benchgen::parity_tree(5));
  fuzz(valid, [](const std::string& s) { return io::parse_aiger(s); }, 400, 3);
}

TEST(Robustness, PlaParserSurvivesMutation) {
  const std::string valid =
      ".i 4\n.o 2\n.ilb a b c d\n.ob f g\n"
      "1-0- 10\n-11- 11\n0001 01\n.e\n";
  fuzz(valid, [](const std::string& s) { return io::parse_pla(s); }, 400, 4);
}

TEST(Robustness, PlaElaborationSurvivesMutation) {
  const std::string valid = ".i 3\n.o 1\n110 1\n0-1 1\n.e\n";
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::string m = mutate(valid, rng);
    try {
      io::parse_pla(m).to_aig();
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Robustness, DimacsParserSurvivesMutation) {
  const std::string valid = "p cnf 4 3\n1 -2 0\n2 3 -4 0\n-1 4 0\n";
  fuzz(valid, [](const std::string& s) { return sat::parse_dimacs(s); }, 400, 6);
}

// ---------------------------------------------------------------------------
// Committed corpus: every malformed file must raise std::runtime_error —
// not crash, not allocate absurdly, not silently parse. Each file pins a
// specific historical failure mode (oversized headers used to segfault or
// bad_alloc; deep AND chains overflowed the recursive elaborator).
// ---------------------------------------------------------------------------

TEST(RobustnessCorpus, MalformedBlifFilesAreRejected) {
  for (const char* name :
       {"truncated.blif", "truncated_mid_cube.blif", "bad_cube.blif",
        "cycle.blif", "undriven.blif", "stray_cube.blif", "empty.blif",
        "cube_width.blif"}) {
    const std::string text = slurp(corpus_path(name));
    EXPECT_THROW(io::parse_blif(text).to_aig(), std::runtime_error) << name;
  }
}

TEST(RobustnessCorpus, MalformedAigerFilesAreRejected) {
  for (const char* name :
       {"huge_header.aag", "truncated.aag", "truncated_mid_and.aag",
        "cyclic.aag", "odd_and_lhs.aag", "redefined_input.aag",
        "out_of_range.aag", "huge_outputs.aag"}) {
    const std::string text = slurp(corpus_path(name));
    EXPECT_THROW(io::parse_aiger(text), io::IoError) << name;
  }
}

TEST(RobustnessCorpus, MalformedPlaFilesAreRejected) {
  for (const char* name :
       {"huge_width.pla", "huge_product.pla", "width_mismatch.pla",
        "bad_char.pla", "bad_type.pla", "missing_i.pla"}) {
    const std::string text = slurp(corpus_path(name));
    EXPECT_THROW(io::parse_pla(text).to_aig(), std::runtime_error) << name;
  }
}

TEST(RobustnessCorpus, EveryCorpusFileParsesOrThrowsRuntimeError) {
  // Catch-all over the whole directory so future corpus additions are
  // covered without registering them by name: any outcome but a clean
  // parse or a runtime_error (e.g. bad_alloc, segfault) fails.
  namespace fs = std::filesystem;
  int seen = 0;
  for (const fs::directory_entry& e :
       fs::directory_iterator(std::string(STEP_TEST_DATA_DIR) + "/corpus")) {
    const std::string path = e.path().string();
    const std::string ext = e.path().extension().string();
    const std::string text = slurp(path);
    ++seen;
    try {
      if (ext == ".blif") io::parse_blif(text).to_aig();
      if (ext == ".aag") io::parse_aiger(text);
      if (ext == ".aig") io::parse_aiger_binary(text);
      if (ext == ".pla") io::parse_pla(text).to_aig();
    } catch (const std::runtime_error&) {
      // the expected rejection path
    }
  }
  EXPECT_GE(seen, 21);
}

TEST(Robustness, DeepAigerChainDoesNotOverflowTheStack) {
  // 200k-AND linear chain: the demand-driven elaborator must be
  // iterative. Generated rather than committed (the file is ~4 MB).
  // Alternating ¬x keeps structural hashing from folding the chain away.
  const int n = 200000;
  std::ostringstream os;
  os << "aag " << (n + 2) << " 2 0 1 " << n << "\n2\n4\n" << (n + 2) * 2
     << "\n";
  for (int v = 3; v <= n + 2; ++v) {
    os << v * 2 << ' ' << (v - 1) * 2 << ' ' << (v % 2 != 0 ? 3 : 2) << '\n';
  }
  const aig::Aig a = io::parse_aiger(os.str());
  EXPECT_EQ(a.num_ands(), static_cast<std::uint32_t>(n));
}

TEST(Robustness, AigerHeaderCannotDriveHugeAllocations) {
  // M far beyond the file size must be rejected up front, whatever the
  // other counts say.
  EXPECT_THROW(io::parse_aiger("aag 4000000000 0 0 0 0\n"),
               std::runtime_error);
  EXPECT_THROW(io::parse_aiger("aag 2000000 1000000 0 0 1000000\n2\n"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Fault-injection sweep (the other half of robustness): under randomly
// injected deadline/alloc/abort/verification faults the circuit driver must
// terminate, classify every lost PO with a typed reason, keep the outcome
// tally consistent with the PO count, and never flip a conclusion relative
// to the fault-free oracle run — injection may only *lose* answers.
// ---------------------------------------------------------------------------

TEST(RobustnessFaults, InjectionSweepNeverFlipsConclusions) {
  const aig::Aig circuit = benchgen::random_dag(6, 40, 4, 0x5eed11);
  core::DecomposeOptions opts;
  opts.engine = core::Engine::kMg;
  opts.po_budget_s = 60.0;

  const core::CircuitRunResult oracle =
      core::run_circuit(circuit, "sweep", opts, 600.0);
  ASSERT_FALSE(oracle.pos.empty());
  for (const core::PoOutcome& p : oracle.pos) {
    ASSERT_NE(p.status, core::DecomposeStatus::kUnknown)
        << "oracle run must conclude every PO (po " << p.po_index << ")";
  }

  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (double rate : {0.02, 0.25}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " rate=" + std::to_string(rate));
      FaultPlan plan;
      plan.seed = seed;
      plan.rate = rate;
      core::ParallelDriverOptions par;
      par.faults = &plan;
      const core::CircuitRunResult res =
          core::run_circuit(circuit, "sweep", opts, 600.0, par);
      ASSERT_EQ(res.pos.size(), oracle.pos.size());
      const core::OutcomeCounts counts = res.outcome_counts();
      EXPECT_EQ(counts.total(), res.pos.size());
      for (std::size_t i = 0; i < res.pos.size(); ++i) {
        const core::PoOutcome& p = res.pos[i];
        SCOPED_TRACE("po " + std::to_string(p.po_index));
        if (p.status == core::DecomposeStatus::kUnknown) {
          // Every lost PO carries a typed (non-ok) cause.
          EXPECT_NE(p.reason, core::OutcomeReason::kOk);
        } else {
          // A conclusion reached under injection must be the oracle's:
          // faults may stop a search or discard a result, never corrupt it.
          EXPECT_EQ(p.reason, core::OutcomeReason::kOk);
          EXPECT_EQ(p.status, oracle.pos[i].status);
        }
      }
    }
  }
}

TEST(RobustnessFaults, HighRateInjectionStillTerminatesResynth) {
  // Resynthesis must emit a complete, equivalent netlist no matter what is
  // injected: faulted sub-cones degrade to verbatim leaves, and a PO whose
  // verification is flipped reports kVerificationFailed without poisoning
  // the assembled network.
  const aig::Aig circuit = benchgen::comparator(3);
  core::SynthesisOptions opts;
  opts.engine = core::Engine::kMg;
  FaultPlan plan;
  plan.seed = 7;
  plan.rate = 0.5;
  plan.verify = false;  // keep the real SAT check authoritative here
  core::ParallelDriverOptions par;
  par.faults = &plan;
  const core::CircuitResynthResult r = core::run_circuit_resynth(
      circuit, "cmp", opts, 120.0, par, /*verify=*/true);
  ASSERT_EQ(r.pos.size(), circuit.num_outputs());
  EXPECT_TRUE(r.all_verified);
  EXPECT_EQ(r.outcome_counts().total(), r.pos.size());
  EXPECT_EQ(r.network.num_outputs(), circuit.num_outputs());
}

TEST(Robustness, WritersAlwaysReparse) {
  // Property: whatever circuit we generate, writer output re-parses.
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const aig::Aig a = benchgen::random_dag(rng.next_int(2, 8),
                                            rng.next_int(2, 40),
                                            rng.next_int(1, 6), rng.next());
    EXPECT_NO_THROW(io::parse_blif(io::write_blif(a)).to_aig());
    EXPECT_NO_THROW(io::parse_aiger(io::write_aiger(a)));
  }
}

}  // namespace
}  // namespace step
