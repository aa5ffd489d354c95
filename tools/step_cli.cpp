// step — command-line front end mirroring the paper's tool
// ("STEP — Satisfiability-based funcTion dEcomPosition").
//
// Usage:
//   step decompose <circuit.blif> [options]   per-PO bi-decomposition report
//   step resynth   <circuit.blif> [options]   recursive resynthesis -> BLIF
//   step stats     <circuit.blif>             circuit statistics
//   step lint      <file...> [--json]         static artifact analysis
//
// Run `step --help` (or see README.md § Command-line reference) for the
// complete flag list; the two are kept in sync by tests/cli_reference_test.

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "analysis/lint.h"
#include "common/fault.h"
#include "common/resource.h"
#include "core/circuit_driver.h"
#include "core/synthesis.h"
#include "io/aiger.h"
#include "io/blif_reader.h"
#include "io/blif_writer.h"
#include "io/comb.h"
#include "io/io_error.h"

namespace {

using namespace step;

/// Set by the SIGINT handler; the drivers poll it through the circuit
/// deadline's cancellation attachment, so in-flight cones stop at their
/// next poll and the partial report is still flushed before exit.
std::atomic<bool> g_interrupted{false};

extern "C" void handle_sigint(int) {
  g_interrupted.store(true, std::memory_order_relaxed);
}

struct CliOptions {
  std::string command;
  std::string input;
  std::string output;
  core::GateOp op = core::GateOp::kOr;
  core::Engine engine = core::Engine::kQbfDisjoint;
  double timeout_s = 60.0;
  double qbf_timeout_s = 1.0;
  int num_threads = 1;
  bool print_stats = false;
  bool recursive = false;
  bool use_cache = true;
  bool verify = false;
  bool use_dc = false;
  aig::WindowOptions window;
  sat::SolverOptions sat;
  // Resource governance / fault injection (PR 7).
  std::size_t mem_limit_mb = 0;       ///< hard per-run cap, 0 = none
  std::size_t cone_mem_limit_mb = 0;  ///< soft per-cone cap, 0 = none
  bool degrade = false;
  std::optional<FaultPlan> faults;
};

constexpr const char kHelpText[] =
    "usage: step <command> <circuit> [options]\n"
    "\n"
    "commands:\n"
    "  decompose   per-PO bi-decomposition report (one split per output)\n"
    "  resynth     recursive resynthesis into a two-input-gate BLIF netlist\n"
    "  stats       circuit statistics (PO supports, decomposable candidates)\n"
    "  lint        static artifact analysis: structural checks on AIGER\n"
    "              netlists (ASCII and binary) and DIMACS CNF, without\n"
    "              running any solver\n"
    "\n"
    "input formats (picked by extension): .blif, .aag (ASCII AIGER) and\n"
    ".aig (binary AIGER, built in one pass — suitable for million-gate\n"
    "netlists);\n"
    "latches are cut combinationally in all three.\n"
    "\n"
    "decomposition options:\n"
    "  -op <or|and|xor>          top gate of the decomposition (default or)\n"
    "  -engine <ljh|mg|qd|qb|qdb>  partition engine (default qd)\n"
    "  -timeout <s>              per-circuit wall budget (default 60)\n"
    "  -qbf-timeout <s>          per-QBF-call budget (default 1.0)\n"
    "  --recursive               decompose: recurse per PO into a full tree\n"
    "                            and report tree area/depth per PO\n"
    "  --verify                  resynth/recursive: SAT-prove every PO tree\n"
    "  --no-cache                resynth/recursive: disable the NPN cache\n"
    "  -j <n>                    worker threads (0 = one per hardware thread)\n"
    "  -o <out.blif>             resynth output file (default stdout)\n"
    "\n"
    "don't-care options (see docs/ARCHITECTURE.md § Don't-care windows):\n"
    "  --dc                      exploit circuit don't-cares: decompose: each\n"
    "                            PO gets an SDC window and is decomposed on\n"
    "                            its care set (exact fallback, SAT-verified\n"
    "                            splice); resynth/recursive: sibling-ODC care\n"
    "                            sets drive every recursion node\n"
    "  --no-dc                   force the exact semantics (the default)\n"
    "  -dc-depth <n>             deepest window cut explored, in AND levels\n"
    "                            (default 6)\n"
    "  -dc-inputs <n>            widest window cut accepted (default 10,\n"
    "                            max 16; the care set enumerates 2^n)\n"
    "\n"
    "SAT-solver options (see docs/SOLVER.md):\n"
    "  -lbd-core <n>             learnts with LBD <= n are kept forever\n"
    "                            (default 3)\n"
    "  -lbd-tier2 <n>            LBD cut of the mid tier; above it clauses\n"
    "                            compete on activity (default 6)\n"
    "  -conflicts <n>            per-solve conflict budget; an exhausted\n"
    "                            budget is a typed `conf` outcome, never a\n"
    "                            wrong answer (default unlimited)\n"
    "\n"
    "resource governance (see docs/ARCHITECTURE.md § Resource governance):\n"
    "  -mem-limit <mb>           hard per-run cap on tracked solver/cache\n"
    "                            memory: when exceeded, live cones wind down\n"
    "                            cleanly with a `mem` outcome instead of the\n"
    "                            process being OOM-killed\n"
    "  -cone-mem-limit <mb>      soft per-cone cap: a cone over it is\n"
    "                            abandoned (`mem`) while siblings keep going\n"
    "  --degrade                 degradation ladder: retry over-budget or\n"
    "                            over-memory cones under cheaper configs\n"
    "                            (window off, cheaper engine) on shrinking\n"
    "                            budget slices; every degraded result is\n"
    "                            still SAT-verified (auto-enabled by the\n"
    "                            memory caps above)\n"
    "  -faults <seed:rate[:kinds]>  deterministic fault injection at every\n"
    "                            budget poll point (testing); kinds from\n"
    "                            \"eabvi\": expire, alloc, abort, verify, io\n"
    "                            (default eabv)\n"
    "  --inject-faults           read the fault plan from the STEP_FAULTS\n"
    "                            environment variable (same format)\n"
    "\n"
    "lint options (step lint <file> [file...]; see docs/ARCHITECTURE.md\n"
    "§ Static analysis & concurrency contracts for the finding-code\n"
    "catalogue):\n"
    "  --json                    emit one machine-readable JSON array of\n"
    "                            per-file reports instead of text\n"
    "  -o <out>                  write the lint report to a file\n"
    "                            (default stdout)\n"
    "  file kinds by extension: .aag/.aig AIGER, .cnf/.dimacs DIMACS CNF;\n"
    "  anything else is sniffed by content. Exit 0 when no error-severity\n"
    "  finding exists (warnings and infos never fail a run), 1 otherwise.\n"
    "\n"
    "reporting options:\n"
    "  --stats                   print, after the run, the per-reason\n"
    "                            outcome taxonomy, aggregated solver-cost\n"
    "                            counters (SAT/QBF calls, CEGAR iterations,\n"
    "                            conflicts, restarts, tiers), the window/care\n"
    "                            counters under --dc and the NPN-cache\n"
    "                            counters when the cache ran\n"
    "  --help                    this reference\n"
    "\n"
    "exit codes:\n"
    "  0    success\n"
    "  1    failure (verification mismatch, internal error, or\n"
    "       error-severity lint findings)\n"
    "  2    usage error\n"
    "  3    I/O error (missing, truncated, or malformed input file)\n"
    "  130  interrupted (SIGINT) — the partial report is flushed first\n";

[[noreturn]] void usage(int exit_code = 2) {
  std::fputs(kHelpText, exit_code == 0 ? stdout : stderr);
  std::exit(exit_code);
}

/// A numeric flag value, parsed whole and range-checked: no digits
/// ("abc"), trailing text ("1s"), NaN, infinity or a value outside
/// [lo, hi] is a usage error, never a silent 0.
template <typename T>
T parse_number(const std::string& flag, const char* text,
               const char* expects = "a number",
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec == std::errc{} && ptr == end && v >= lo && v <= hi) return v;
  std::fprintf(stderr, "step: %s expects %s, got '%s'\n", flag.c_str(),
               expects, text);
  usage();
}

/// make_governor shifts a MB cap left by 20 bits; a larger one would wrap.
constexpr std::size_t kMaxMb = std::numeric_limits<std::size_t>::max() >> 20;
constexpr const char* kMbExpects =
    "a size in MB >= 1 whose byte count fits in size_t";

CliOptions parse_args(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0 ||
        std::strcmp(argv[i], "help") == 0) {
      usage(0);
    }
  }
  if (argc < 3) usage();
  cli.command = argv[1];
  // Reject unknown commands before touching the input file, so a typo'd
  // command is a usage error (2), not a misleading I/O error (3).
  if (cli.command != "decompose" && cli.command != "resynth" &&
      cli.command != "stats") {
    std::fprintf(stderr, "step: unknown command '%s'\n", cli.command.c_str());
    usage();
  }
  cli.input = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "-op") {
      const std::string v = value();
      if (v == "or") {
        cli.op = core::GateOp::kOr;
      } else if (v == "and") {
        cli.op = core::GateOp::kAnd;
      } else if (v == "xor") {
        cli.op = core::GateOp::kXor;
      } else {
        std::fprintf(stderr, "step: -op expects or, and or xor, got %s\n",
                     v.c_str());
        usage();
      }
    } else if (flag == "-engine") {
      const std::string v = value();
      if (v == "ljh") {
        cli.engine = core::Engine::kLjh;
      } else if (v == "mg") {
        cli.engine = core::Engine::kMg;
      } else if (v == "qd") {
        cli.engine = core::Engine::kQbfDisjoint;
      } else if (v == "qb") {
        cli.engine = core::Engine::kQbfBalanced;
      } else if (v == "qdb") {
        cli.engine = core::Engine::kQbfCombined;
      } else {
        std::fprintf(stderr,
                     "step: -engine expects ljh, mg, qd, qb or qdb, got %s\n",
                     v.c_str());
        usage();
      }
    } else if (flag == "-timeout") {
      cli.timeout_s = parse_number<double>(flag, value());
    } else if (flag == "-qbf-timeout") {
      cli.qbf_timeout_s = parse_number<double>(flag, value());
    } else if (flag == "--stats" || flag == "-stats") {
      cli.print_stats = true;
    } else if (flag == "--recursive" || flag == "-recursive") {
      cli.recursive = true;
    } else if (flag == "--no-cache" || flag == "-no-cache") {
      cli.use_cache = false;
    } else if (flag == "--verify" || flag == "-verify") {
      cli.verify = true;
    } else if (flag == "--dc" || flag == "-dc") {
      cli.use_dc = true;
    } else if (flag == "--no-dc" || flag == "-no-dc") {
      cli.use_dc = false;
    } else if (flag == "-dc-depth") {
      cli.window.max_depth =
          parse_number<int>(flag, value(), "a level count >= 1", 1);
    } else if (flag == "-dc-inputs") {
      cli.window.max_inputs =
          parse_number<int>(flag, value(), "a cut width in [2, 16]", 2, 16);
    } else if (flag == "-j") {
      cli.num_threads = parse_number<int>(flag, value());
    } else if (flag == "-o") {
      cli.output = value();
    } else if (flag == "-lbd-core") {
      cli.sat.core_lbd_cut = parse_number<int>(flag, value());
    } else if (flag == "-lbd-tier2") {
      cli.sat.tier2_lbd_cut = parse_number<int>(flag, value());
    } else if (flag == "-conflicts") {
      cli.sat.conflict_budget =
          parse_number<std::int64_t>(flag, value(), "a budget >= 0", 0);
    } else if (flag == "-mem-limit") {
      cli.mem_limit_mb = parse_number<std::size_t>(flag, value(), kMbExpects,
                                                   1, kMaxMb);
    } else if (flag == "-cone-mem-limit") {
      cli.cone_mem_limit_mb = parse_number<std::size_t>(
          flag, value(), kMbExpects, 1, kMaxMb);
    } else if (flag == "--degrade" || flag == "-degrade") {
      cli.degrade = true;
    } else if (flag == "-faults") {
      cli.faults = FaultPlan::parse(value());
      if (!cli.faults) {
        std::fprintf(stderr,
                     "step: -faults expects seed:rate[:kinds] with rate in"
                     " [0,1] and kinds from \"eabvi\"\n");
        usage();
      }
    } else if (flag == "--inject-faults" || flag == "-inject-faults") {
      cli.faults = FaultPlan::from_env();
      if (!cli.faults) {
        std::fprintf(stderr,
                     "step: --inject-faults requires STEP_FAULTS="
                     "seed:rate[:kinds] in the environment\n");
        usage();
      }
    } else {
      usage();
    }
  }
  // The memory caps imply the ladder: a capped run should degrade
  // gracefully rather than just lose cones.
  if (cli.mem_limit_mb != 0 || cli.cone_mem_limit_mb != 0) cli.degrade = true;
  return cli;
}

/// Governance wiring shared by the decompose/resynth commands.
core::ParallelDriverOptions driver_options(const CliOptions& cli,
                                           ResourceGovernor* governor) {
  core::ParallelDriverOptions par;
  par.num_threads = cli.num_threads;
  par.governor = governor;
  par.faults = cli.faults && cli.faults->enabled() ? &*cli.faults : nullptr;
  par.cancel = &g_interrupted;
  par.degrade = cli.degrade;
  return par;
}

ResourceGovernor make_governor(const CliOptions& cli) {
  ResourceGovernor::Options o;
  o.soft_cone_bytes = cli.cone_mem_limit_mb * std::size_t{1} << 20;
  o.hard_run_bytes = cli.mem_limit_mb * std::size_t{1} << 20;
  return ResourceGovernor(o);
}

bool has_governor(const CliOptions& cli) {
  return cli.mem_limit_mb != 0 || cli.cone_mem_limit_mb != 0;
}

int cmd_stats(const io::Network& net, const aig::Aig& circuit) {
  std::printf("model:     %s\n", net.name.c_str());
  std::printf("inputs:    %u (%zu PIs + %zu latch outputs)\n",
              circuit.num_inputs(), net.inputs.size(), net.latches.size());
  std::printf("outputs:   %u (%zu POs + %zu latch inputs)\n",
              circuit.num_outputs(), net.outputs.size(), net.latches.size());
  std::printf("AND gates: %u\n", circuit.num_ands());
  int in_m = 0;
  int candidates = 0;
  for (std::uint32_t po = 0; po < circuit.num_outputs(); ++po) {
    const core::Cone cone = core::extract_po_cone(circuit, po);
    in_m = std::max(in_m, cone.n());
    if (cone.n() >= 2) ++candidates;
  }
  std::printf("#InM:      %d (max PO support)\n", in_m);
  std::printf("POs with support >= 2: %d\n", candidates);
  return 0;
}

int cmd_decompose(const CliOptions& cli, const io::Network& net,
                  const aig::Aig& circuit, ResourceGovernor* gov) {
  core::DecomposeOptions opts;
  opts.op = cli.op;
  opts.engine = cli.engine;
  opts.optimum.call_timeout_s = cli.qbf_timeout_s;
  opts.sat = cli.sat;
  opts.use_dont_cares = cli.use_dc;
  opts.window = cli.window;
  const core::ParallelDriverOptions par = driver_options(cli, gov);
  const core::CircuitRunResult run =
      core::run_circuit(circuit, net.name, opts, cli.timeout_s, par);

  // Status column: "yes*" = decomposed on an SDC window's care set
  // (--dc); "yes~" = concluded by the degradation ladder; failures name
  // their typed reason (t/o wall budget, mem cap, conf conflict budget,
  // inj injected fault, vfail discarded unverified result).
  auto status_of = [](const core::PoOutcome& po) -> const char* {
    if (po.status == core::DecomposeStatus::kDecomposed) {
      return po.degraded ? "yes~" : po.used_window ? "yes*" : "yes";
    }
    if (po.status == core::DecomposeStatus::kNotDecomposable) return "no";
    switch (po.reason) {
      case core::OutcomeReason::kMemLimit: return "mem";
      case core::OutcomeReason::kConflictBudget: return "conf";
      case core::OutcomeReason::kInjectedFault: return "inj";
      case core::OutcomeReason::kVerificationFailed: return "vfail";
      default: return "t/o";
    }
  };

  std::printf("%-6s %8s %6s %7s %7s %8s %9s\n", "po", "support", "dec",
              "eD", "eB", "optimal", "cpu(s)");
  for (const core::PoOutcome& po : run.pos) {
    std::printf("%-6d %8d %6s", po.po_index, po.support, status_of(po));
    if (po.status == core::DecomposeStatus::kDecomposed) {
      std::printf(" %7.3f %7.3f %8s", po.metrics.disjointness(),
                  po.metrics.balancedness(), po.proven_optimal ? "yes" : "-");
    } else {
      std::printf(" %7s %7s %8s", "-", "-", "-");
    }
    std::printf(" %9.3f\n", po.cpu_s);
  }
  std::printf("# %s %s: %d/%zu decomposed, %d proven optimal, %.2f s\n",
              core::to_string(cli.engine), core::to_string(cli.op),
              run.num_decomposed(), run.pos.size(), run.num_proven_optimal(),
              run.total_cpu_s);
  if (cli.print_stats) {
    std::printf("# outcomes: %s degraded=%d\n",
                run.outcome_counts().to_string().c_str(), run.num_degraded());
    if (cli.use_dc) {
      std::printf("# dc: windows=%d window_decomposed=%d sdc_minterms=%llu"
                  " care_sat_completions=%ld\n",
                  run.num_windows_built(), run.num_window_decomposed(),
                  static_cast<unsigned long long>(
                      run.total_window_sdc_minterms()),
                  run.total_window_sat_completions());
    }
    if (gov != nullptr) {
      std::printf("# mem: peak=%zu bytes cones_tripped=%llu\n",
                  gov->peak_run_bytes(),
                  static_cast<unsigned long long>(gov->cones_tripped()));
    }
    std::printf("# stats: sat_calls=%ld qbf_calls=%ld qbf_iterations=%ld\n",
                run.total_sat_calls(), run.total_qbf_calls(),
                run.total_qbf_iterations());
    std::printf("# stats: abstraction_conflicts=%llu"
                " verification_conflicts=%llu\n",
                static_cast<unsigned long long>(
                    run.total_abstraction_conflicts()),
                static_cast<unsigned long long>(
                    run.total_verification_conflicts()));
    const sat::Solver::Stats ss = run.total_solver_stats();
    auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
    std::printf("# stats: solver conflicts=%llu restarts=%llu"
                " reductions=%llu\n",
                u(ss.conflicts), u(ss.restarts), u(ss.db_reductions));
    std::printf("# stats: learnt tiers core=%llu tier2=%llu local=%llu"
                " (of %llu learnt)\n",
                u(ss.core_learnts), u(ss.tier2_learnts), u(ss.local_learnts),
                u(ss.learnt));
  }
  if (g_interrupted.load(std::memory_order_relaxed)) {
    std::printf("# interrupted: partial report above (unfinished POs are"
                " circuit_deadline)\n");
    return 130;
  }
  return 0;
}

core::SynthesisOptions synthesis_options(const CliOptions& cli,
                                         core::DecCache* cache) {
  core::SynthesisOptions opts;
  opts.engine = cli.engine;
  opts.pick_best_op = true;
  opts.cache = cache;
  opts.use_dont_cares = cli.use_dc;
  opts.per_node.optimum.call_timeout_s = cli.qbf_timeout_s;
  opts.per_node.sat = cli.sat;
  opts.per_node.window = cli.window;  // resynth reads per_node.window
  return opts;
}

/// The --dc and cache lines of `--stats` for the recursive paths, on the
/// stream that carries the rest of the report.
void print_synthesis_stats(std::FILE* out, const CliOptions& cli,
                           const core::CircuitResynthResult& r) {
  if (cli.use_dc) {
    std::fprintf(out, "# dc: care_nodes=%d care_constants=%d\n",
                 r.stats.dc_nodes, r.stats.dc_constants);
  }
  if (!cli.use_cache) return;
  const core::DecCacheStats& c = r.cache;
  std::fprintf(out,
               "# cache: lookups=%llu hits=%llu misses=%llu insertions=%llu"
               " hit_rate=%.1f%%\n",
               static_cast<unsigned long long>(c.lookups),
               static_cast<unsigned long long>(c.hits()),
               static_cast<unsigned long long>(c.misses),
               static_cast<unsigned long long>(c.insertions),
               100.0 * c.hit_rate());
}

core::CircuitResynthResult run_resynth(const CliOptions& cli,
                                       const io::Network& net,
                                       const aig::Aig& circuit, bool verify,
                                       ResourceGovernor* gov) {
  MemTracker cache_mem(gov);
  core::DecCache cache;
  core::SynthesisOptions opts =
      synthesis_options(cli, cli.use_cache ? &cache : nullptr);
  if (gov != nullptr && opts.cache != nullptr) {
    // The shared cache charges the run-level account directly: its
    // entries are shared across cones and outlive any one of them.
    opts.cache->set_mem_tracker(&cache_mem);
  }
  const core::ParallelDriverOptions par = driver_options(cli, gov);
  return core::run_circuit_resynth(circuit, net.name, opts, cli.timeout_s, par,
                                   verify);
}

/// `step decompose --recursive`: full per-PO decomposition trees.
int cmd_decompose_recursive(const CliOptions& cli, const io::Network& net,
                            const aig::Aig& circuit, ResourceGovernor* gov) {
  const core::CircuitResynthResult r =
      run_resynth(cli, net, circuit, cli.verify, gov);
  std::printf("%-6s %8s %6s %7s %7s %7s %9s\n", "po", "support", "gates",
              "leaves", "depth0", "depth1", "cpu(s)");
  for (const core::PoResynthOutcome& po : r.pos) {
    std::printf("%-6d %8d %6d %7d %7d %7d %9.3f\n", po.po_index, po.support,
                po.tree.gates, po.tree.cone_leaves, po.depth_before,
                po.depth_after, po.cpu_s);
  }
  std::printf("# %s recursive: %d splits, %d leaves (%d atomic),"
              " %d cache hits; ANDs %u -> %u, depth %d -> %d, %.2f s\n",
              core::to_string(cli.engine), r.stats.decompositions,
              r.stats.leaves, r.stats.undecomposable, r.stats.cache_hits,
              r.stats.ands_before, r.stats.ands_after, r.stats.depth_before,
              r.stats.depth_after, r.total_cpu_s);
  if (cli.verify) {
    std::printf("# verify: %s\n",
                r.all_verified ? "all POs SAT-proven equivalent"
                               : "MISMATCH — a PO failed the miter check");
  }
  if (cli.print_stats) {
    std::printf("# outcomes: %s\n", r.outcome_counts().to_string().c_str());
    print_synthesis_stats(stdout, cli, r);
  }
  if (g_interrupted.load(std::memory_order_relaxed)) return 130;
  return cli.verify && !r.all_verified ? 1 : 0;
}

int cmd_resynth(const CliOptions& cli, const io::Network& net,
                const aig::Aig& circuit, ResourceGovernor* gov) {
  const core::CircuitResynthResult r =
      run_resynth(cli, net, circuit, cli.verify, gov);
  std::fprintf(stderr,
               "# resynth: %d decompositions, %d leaves (%d atomic),"
               " %d cache hits; ANDs %u -> %u, depth %d -> %d\n",
               r.stats.decompositions, r.stats.leaves, r.stats.undecomposable,
               r.stats.cache_hits, r.stats.ands_before, r.stats.ands_after,
               r.stats.depth_before, r.stats.depth_after);
  if (cli.verify) {
    std::fprintf(stderr, "# verify: %s\n",
                 r.all_verified ? "all POs SAT-proven equivalent"
                                : "MISMATCH — a PO failed the miter check");
  }
  if (cli.print_stats) {
    std::fprintf(stderr, "# outcomes: %s\n",
                 r.outcome_counts().to_string().c_str());
    print_synthesis_stats(stderr, cli, r);
  }
  const std::string text = io::write_blif(r.network, "resynth");
  if (cli.output.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    io::write_blif_file(r.network, cli.output, "resynth");
    std::fprintf(stderr, "# wrote %s\n", cli.output.c_str());
  }
  if (g_interrupted.load(std::memory_order_relaxed)) return 130;
  return cli.verify && !r.all_verified ? 1 : 0;
}

// ----------------------------------------------------------------- lint

/// `step lint <file...> [--json] [-o out]`: runs the static artifact
/// analyzer over each file. Text mode prints one line per finding plus a
/// per-file summary; --json emits a JSON array of per-file reports. Exits
/// 0 when no error-severity finding exists anywhere, 1 otherwise;
/// unreadable files throw io::IoError (exit 3) like every other command.
int cmd_lint(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      json = true;
    } else if (flag == "-o") {
      if (i + 1 >= argc) usage();
      out_path = argv[++i];
    } else if (!flag.empty() && flag[0] == '-') {
      std::fprintf(stderr, "step lint: unknown option '%s'\n", flag.c_str());
      usage();
    } else {
      files.push_back(flag);
    }
  }
  if (files.empty()) usage();

  std::string out;
  bool any_error = false;
  if (json) out += "[";
  for (std::size_t i = 0; i < files.size(); ++i) {
    const analysis::LintReport report = analysis::lint_file(files[i]);
    any_error = any_error || !report.ok();
    if (json) {
      out += i == 0 ? "\n" : ",\n";
      out += analysis::to_json(report);
      if (!out.empty() && out.back() == '\n') out.pop_back();
    } else {
      for (const analysis::Finding& f : report.findings) {
        out += report.path + ": " + analysis::to_string(f.severity) + " [" +
               f.code + "] " + f.object;
        if (f.line > 0) out += " (line " + std::to_string(f.line) + ")";
        out += ": " + f.message + "\n";
      }
      out += report.path + ": " + std::to_string(report.errors()) +
             " error(s), " + std::to_string(report.warnings()) +
             " warning(s), " + std::to_string(report.infos()) + " info(s)\n";
    }
  }
  if (json) out += "\n]\n";

  if (out_path.empty()) {
    std::fputs(out.c_str(), stdout);
  } else {
    std::ofstream f(out_path, std::ios::binary);
    f << out;
    if (!f.good()) {
      throw io::IoError("cannot write lint report to '" + out_path + "'",
                        out_path);
    }
  }
  return any_error ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) try {
  // `lint` takes a file list and its own tiny flag set, so it dispatches
  // before the decomposition-option parser (which assumes one input and
  // would reject --json). `step lint --help` still reaches usage(0) via
  // the scan in parse_args.
  if (argc >= 2 && std::strcmp(argv[1], "lint") == 0) {
    bool help = false;
    for (int i = 2; i < argc; ++i) {
      help = help || std::strcmp(argv[i], "--help") == 0 ||
             std::strcmp(argv[i], "-h") == 0;
    }
    if (help) usage(0);
    return cmd_lint(argc, argv);
  }
  const CliOptions cli = parse_args(argc, argv);
  // Graceful SIGINT: the handler only sets a flag the drivers poll, so an
  // interrupted run flushes its partial report (unfinished POs typed as
  // circuit_deadline) and exits 130 instead of dying mid-write.
  std::signal(SIGINT, handle_sigint);
  // One memory governor for the whole run, the parse included.
  ResourceGovernor governor = make_governor(cli);
  ResourceGovernor* const gov = has_governor(cli) ? &governor : nullptr;

  // Injected reader failure: with the explicit "i" fault kind enabled the
  // CLI's read deterministically fails like an unreadable file would —
  // exercising the typed io_error path end to end.
  if (cli.faults && cli.faults->enabled() && cli.faults->io) {
    throw io::IoError("injected I/O fault (fault plan enables kind 'i')",
                      cli.input);
  }
  // Input dispatch by extension: AIGER (.aag ASCII, .aig binary)
  // arrives as an already-combinational AIG (latches cut by the reader);
  // everything else goes through the BLIF elaborator.
  io::Network net;
  aig::Aig circuit;
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return cli.input.size() >= n &&
           cli.input.compare(cli.input.size() - n, n, suffix) == 0;
  };
  if (ends_with(".aag") || ends_with(".aig")) {
    // The reader charges the run's tracker before it allocates, so a
    // hostile header under -mem-limit ends in a bounded io error. Only the
    // run cap applies: the parse is not a cone.
    MemTracker read_mem(gov);
    read_mem.set_soft_cap(0);
    circuit = io::read_aiger_file(cli.input, &read_mem);
    const std::size_t slash = cli.input.find_last_of('/');
    net.name = slash == std::string::npos ? cli.input
                                          : cli.input.substr(slash + 1);
    for (std::uint32_t i = 0; i < circuit.num_inputs(); ++i) {
      net.inputs.push_back(circuit.input_name(i));
    }
    for (std::uint32_t o = 0; o < circuit.num_outputs(); ++o) {
      net.outputs.push_back(circuit.output_name(o));
    }
  } else {
    net = io::read_blif_file(cli.input);
    circuit = io::to_combinational(net);
  }

  if (cli.command == "stats") return cmd_stats(net, circuit);
  if (cli.command == "decompose") {
    return cli.recursive ? cmd_decompose_recursive(cli, net, circuit, gov)
                         : cmd_decompose(cli, net, circuit, gov);
  }
  if (cli.command == "resynth") return cmd_resynth(cli, net, circuit, gov);
  usage();
} catch (const step::io::IoError& e) {
  std::fprintf(stderr, "step: io error: %s\n", e.what());
  return 3;
} catch (const std::exception& e) {
  std::fprintf(stderr, "step: %s\n", e.what());
  return 1;
}
