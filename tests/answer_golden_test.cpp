// Answer golden test: the partition, the fA/fB AND counts and the solver
// call counts of every PO of epfl_decoder(8) and the tiny suite, under
// STEP-MG and STEP-QD for OR and AND, must match the committed golden byte
// for byte. Solver-internal changes (clause storage, watch lists, proof
// storage) promise bit-identical answers; this test holds them to it.
// The same POs under STEP-QDB (OR, AND, XOR) pin only the outcome, the
// optimum eq. (8) cost and whether it was proven: the QDB target encoding
// may legitimately pick another partition of the same cost.
// Regenerate with STEP_REGOLD=1 after an intentional change of answers:
//   STEP_REGOLD=1 ./answer_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/epfl.h"
#include "benchgen/suite.h"
#include "core/decomposer.h"
#include "core/relaxation.h"

namespace step {
namespace {

std::string golden_path() {
  return std::string(STEP_TEST_DATA_DIR) + "/golden/answers.txt";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const char* status_name(core::DecomposeStatus s) {
  switch (s) {
    case core::DecomposeStatus::kDecomposed: return "dec";
    case core::DecomposeStatus::kNotDecomposable: return "undec";
    case core::DecomposeStatus::kUnknown: return "unknown";
  }
  return "?";
}

/// One line per (engine, op, PO) with support >= 2:
///   circuit engine op po support status partition |fA| |fB| sat qbf verified
/// Budgets are far above the run time, so no line depends on timing.
void render_circuit(const std::string& name, const aig::Aig& circ,
                    std::ostringstream& out) {
  for (const core::Engine engine :
       {core::Engine::kMg, core::Engine::kQbfDisjoint}) {
    for (const core::GateOp op : {core::GateOp::kOr, core::GateOp::kAnd}) {
      core::DecomposeOptions opts;
      opts.engine = engine;
      opts.op = op;
      opts.po_budget_s = 600.0;
      const core::BiDecomposer dec(opts);
      for (std::uint32_t po = 0; po < circ.num_outputs(); ++po) {
        const core::Cone cone = core::extract_po_cone(circ, po);
        if (cone.n() < 2) continue;
        const core::DecomposeResult r = dec.decompose(cone);
        out << name << ' ' << core::to_string(engine) << ' '
            << core::to_string(op) << ' ' << po << ' ' << cone.n() << ' '
            << status_name(r.status) << ' '
            << (r.status == core::DecomposeStatus::kDecomposed
                    ? r.partition.to_string()
                    : "-");
        if (r.functions.has_value()) {
          out << ' ' << r.functions->aig.cone_size(r.functions->fa) << ' '
              << r.functions->aig.cone_size(r.functions->fb);
        } else {
          out << " - -";
        }
        out << ' ' << r.sat_calls << ' ' << r.qbf_calls << ' '
            << (r.verified ? 1 : 0) << '\n';
      }
    }
  }
}

/// One line per (op, PO) with support >= 2 under STEP-QDB:
///   circuit STEP-QDB op po support status cost proven_optimal
void render_qdb_optimum(const std::string& name, const aig::Aig& circ,
                        std::ostringstream& out) {
  for (const core::GateOp op :
       {core::GateOp::kOr, core::GateOp::kAnd, core::GateOp::kXor}) {
    core::DecomposeOptions opts;
    opts.engine = core::Engine::kQbfCombined;
    opts.op = op;
    opts.po_budget_s = 600.0;
    const core::BiDecomposer dec(opts);
    for (std::uint32_t po = 0; po < circ.num_outputs(); ++po) {
      const core::Cone cone = core::extract_po_cone(circ, po);
      if (cone.n() < 2) continue;
      const core::DecomposeResult r = dec.decompose(cone);
      out << name << ' ' << core::to_string(opts.engine) << ' '
          << core::to_string(op) << ' ' << po << ' ' << cone.n() << ' '
          << status_name(r.status) << ' ';
      if (r.status == core::DecomposeStatus::kDecomposed) {
        out << core::metric_cost(r.metrics, core::MetricKind::kSum);
      } else {
        out << '-';
      }
      out << ' ' << (r.proven_optimal ? 1 : 0) << '\n';
    }
  }
}

std::string render_all() {
  std::ostringstream out;
  const aig::Aig decoder = benchgen::epfl_decoder(8);
  const std::vector<benchgen::BenchCircuit> tiny =
      benchgen::standard_suite(benchgen::SuiteScale::kTiny);
  render_circuit("epfl_decoder8", decoder, out);
  for (const benchgen::BenchCircuit& b : tiny) {
    render_circuit(b.name, b.aig, out);
  }
  render_qdb_optimum("epfl_decoder8", decoder, out);
  for (const benchgen::BenchCircuit& b : tiny) {
    render_qdb_optimum(b.name, b.aig, out);
  }
  return out.str();
}

TEST(AnswerGolden, PartitionsAndFunctionSizesMatchCommittedGolden) {
  const std::string text = render_all();
  if (std::getenv("STEP_REGOLD") != nullptr) {
    std::ofstream(golden_path()) << text;
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  const std::string golden = slurp(golden_path());
  ASSERT_FALSE(golden.empty()) << "missing " << golden_path();
  if (text == golden) return;
  // Name the first differing line instead of dumping both files.
  std::istringstream got(text), want(golden);
  std::string g, w;
  int line = 1;
  while (std::getline(want, w)) {
    if (!std::getline(got, g)) g = "<end of output>";
    if (g != w) {
      FAIL() << "answers drifted at line " << line << "\n  golden: " << w
             << "\n  now:    " << g
             << "\nrun STEP_REGOLD=1 ./answer_golden_test if intended";
    }
    ++line;
  }
  FAIL() << "output has extra lines past line " << line;
}

}  // namespace
}  // namespace step
