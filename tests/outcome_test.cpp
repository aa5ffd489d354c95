// The failure-taxonomy contract: every OutcomeReason is reachable and
// correctly attributed, the governor's memory caps abandon exactly the
// offending cone, the degradation ladder turns budget/memory failures into
// verified (never wrong) conclusions, fault plans parse and replay
// deterministically, and the CLI maps I/O failures onto exit code 3.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "benchgen/generators.h"
#include "common/fault.h"
#include "common/resource.h"
#include "common/timer.h"
#include "core/circuit_driver.h"
#include "core/outcome.h"
#include "io/aiger.h"
#include "io/blif_reader.h"
#include "io/blif_writer.h"
#include "io/io_error.h"

namespace step {
namespace {

// ---------- taxonomy primitives -------------------------------------------

TEST(Outcome, ToStringIsTotalAndDistinct) {
  std::set<std::string> names;
  for (int i = 0; i < core::kNumOutcomeReasons; ++i) {
    const std::string s =
        core::to_string(static_cast<core::OutcomeReason>(i));
    EXPECT_FALSE(s.empty());
    EXPECT_NE(s, "?");
    names.insert(s);
  }
  EXPECT_EQ(names.size(),
            static_cast<std::size_t>(core::kNumOutcomeReasons));
  EXPECT_STREQ(core::to_string(core::OutcomeReason::kOk), "ok");
  EXPECT_STREQ(core::to_string(core::OutcomeReason::kIoError), "io_error");
}

TEST(Outcome, CountsArithmeticAndRendering) {
  core::OutcomeCounts a;
  a.add(core::OutcomeReason::kOk);
  a.add(core::OutcomeReason::kOk);
  a.add(core::OutcomeReason::kMemLimit);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.failures(), 1u);
  EXPECT_EQ(a.of(core::OutcomeReason::kOk), 2u);

  core::OutcomeCounts b;
  b.add(core::OutcomeReason::kMemLimit);
  b.add(core::OutcomeReason::kInjectedFault);
  a += b;
  EXPECT_EQ(a.total(), 5u);
  EXPECT_EQ(a.of(core::OutcomeReason::kMemLimit), 2u);
  // Rendering: ok always prints, zero counters are skipped.
  EXPECT_EQ(a.to_string(), "ok=2 mem_limit=2 injected_fault=1");
  EXPECT_EQ(core::OutcomeCounts{}.to_string(), "ok=0");

  core::OutcomeCounts c = a;
  EXPECT_TRUE(c == a);
  c.add(core::OutcomeReason::kOk);
  EXPECT_FALSE(c == a);
}

TEST(Outcome, ReasonOfCoversEveryTripCause) {
  using Trip = Deadline::Trip;
  using R = core::OutcomeReason;
  EXPECT_EQ(core::reason_of(Trip::kNone), R::kOk);
  // Wall expiry / the forced seam / injected expiry name the budget that
  // ran out: the cone's own at engine level, the shared one at run level.
  for (Trip t : {Trip::kWall, Trip::kForced, Trip::kInjectedExpire}) {
    EXPECT_EQ(core::reason_of(t, /*run_level=*/false), R::kEngineDeadline);
    EXPECT_EQ(core::reason_of(t, /*run_level=*/true), R::kCircuitDeadline);
  }
  // Escalations from attachments classify the same at either level.
  for (bool run_level : {false, true}) {
    EXPECT_EQ(core::reason_of(Trip::kParent, run_level), R::kCircuitDeadline);
    EXPECT_EQ(core::reason_of(Trip::kCancelled, run_level),
              R::kCircuitDeadline);
    EXPECT_EQ(core::reason_of(Trip::kMem, run_level), R::kMemLimit);
    EXPECT_EQ(core::reason_of(Trip::kInjectedAlloc, run_level), R::kMemLimit);
    EXPECT_EQ(core::reason_of(Trip::kInjectedAbort, run_level),
              R::kInjectedFault);
  }
  // An unknown with no deadline trip can only be a conflict cap.
  EXPECT_EQ(core::reason_of_unknown(nullptr), R::kConflictBudget);
  Deadline fresh(1e9);
  EXPECT_EQ(core::reason_of_unknown(&fresh), R::kConflictBudget);
}

// ---------- fault plans and streams ---------------------------------------

TEST(Fault, PlanParseAcceptsAndRejects) {
  auto p = FaultPlan::parse("7:0.5");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seed, 7u);
  EXPECT_DOUBLE_EQ(p->rate, 0.5);
  // Default kinds: every poll-point kind, io off (it fires before any cone
  // exists and must be asked for explicitly).
  EXPECT_TRUE(p->expire && p->alloc && p->abort && p->verify);
  EXPECT_FALSE(p->io);
  EXPECT_TRUE(p->enabled());

  auto q = FaultPlan::parse("1:0.25:ei");
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(q->expire);
  EXPECT_TRUE(q->io);
  EXPECT_FALSE(q->alloc || q->abort || q->verify);

  EXPECT_FALSE(FaultPlan::parse("").has_value());
  EXPECT_FALSE(FaultPlan::parse("5").has_value());
  EXPECT_FALSE(FaultPlan::parse("x:0.5").has_value());
  EXPECT_FALSE(FaultPlan::parse("1:nope").has_value());
  EXPECT_FALSE(FaultPlan::parse("1:1.5").has_value());
  EXPECT_FALSE(FaultPlan::parse("1:-0.1").has_value());
  EXPECT_FALSE(FaultPlan::parse("1:0.5:z").has_value());
  // Rate 0 parses but is a no-op plan.
  auto z = FaultPlan::parse("9:0");
  ASSERT_TRUE(z.has_value());
  EXPECT_FALSE(z->enabled());
}

TEST(Fault, StreamIsDeterministicPerStreamId) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rate = 0.05;
  // Same (plan, stream_id) must replay the identical schedule — this is
  // what makes 1-thread and N-thread injection runs indistinguishable.
  auto schedule = [&](std::uint64_t id) {
    FaultStream s(plan, id);
    std::vector<FaultKind> ks;
    for (int i = 0; i < 256; ++i) ks.push_back(s.poll());
    return ks;
  };
  for (std::uint64_t id : {0u, 1u, 7u}) {
    EXPECT_EQ(schedule(id), schedule(id)) << "stream " << id;
  }
  // Streams decorrelate by id: among a handful of ids at least one must
  // differ from stream 0 (all-equal would mean the id is ignored).
  const auto s0 = schedule(0);
  bool any_differs = false;
  for (std::uint64_t id = 1; id <= 16 && !any_differs; ++id) {
    any_differs = schedule(id) != s0;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Fault, StreamLatchesFirstFiredKind) {
  FaultPlan plan;
  plan.seed = 3;
  plan.rate = 0.5;
  FaultStream s(plan, 0);
  FaultKind first = FaultKind::kNone;
  for (int i = 0; i < 1000 && first == FaultKind::kNone; ++i) first = s.poll();
  ASSERT_NE(first, FaultKind::kNone) << "rate 0.5 must fire within 1000 polls";
  // Once fired, the stream keeps answering the same kind: re-polls while
  // the cone winds down are idempotent.
  for (int i = 0; i < 32; ++i) EXPECT_EQ(s.poll(), first);
  EXPECT_GE(s.fired(), 1u);
}

TEST(Fault, DisabledStreamNeverFires) {
  FaultStream s;  // default: no plan, rate 0
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.poll(), FaultKind::kNone);
  EXPECT_FALSE(s.fire_verification());
  EXPECT_EQ(s.fired(), 0u);
}

// ---------- reachability of every reason through the driver ---------------

core::DecomposeOptions base_opts(core::Engine e, core::GateOp op) {
  core::DecomposeOptions o;
  o.engine = e;
  o.op = op;
  o.po_budget_s = 60.0;
  return o;
}

TEST(OutcomeReach, EngineDeadlineOnTinyPoBudget) {
  const aig::Aig circ = benchgen::ripple_adder(3);
  core::DecomposeOptions opts =
      base_opts(core::Engine::kQbfCombined, core::GateOp::kOr);
  opts.po_budget_s = 1e-9;  // expires at the first engine poll
  const auto r = core::run_circuit(circ, "c", opts, 600.0);
  ASSERT_FALSE(r.pos.empty());
  for (const core::PoOutcome& p : r.pos) {
    EXPECT_EQ(p.status, core::DecomposeStatus::kUnknown);
    EXPECT_EQ(p.reason, core::OutcomeReason::kEngineDeadline);
  }
  EXPECT_FALSE(r.hit_circuit_budget);  // the *run* budget never expired
}

TEST(OutcomeReach, CircuitDeadlineViaCancelFlag) {
  const aig::Aig circ = benchgen::ripple_adder(3);
  const auto opts = base_opts(core::Engine::kMg, core::GateOp::kOr);
  const std::atomic<bool> cancel{true};  // SIGINT before any work
  core::ParallelDriverOptions par;
  par.cancel = &cancel;
  const auto r = core::run_circuit(circ, "c", opts, 600.0, par);
  ASSERT_FALSE(r.pos.empty());
  for (const core::PoOutcome& p : r.pos) {
    EXPECT_EQ(p.status, core::DecomposeStatus::kUnknown);
    EXPECT_EQ(p.reason, core::OutcomeReason::kCircuitDeadline);
  }
  EXPECT_TRUE(r.hit_circuit_budget);
}

TEST(OutcomeReach, ConflictBudgetOnCappedSolver) {
  core::DecomposeOptions opts =
      base_opts(core::Engine::kMg, core::GateOp::kXor);
  opts.sat.conflict_budget = 1;  // every solve stops almost immediately
  // 18 inputs: past aig::kTtMaxSupport, so the seed scan cannot be settled
  // from a truth table. Parity is linear: no two inputs interact, so the
  // seed filter refutes no pair and the first one goes to the capped
  // solver, whose UNSAT proof needs more than one conflict.
  const auto r =
      core::run_circuit(benchgen::parity_tree(18), "par18", opts, 600.0);
  ASSERT_EQ(r.pos.size(), 1u);
  EXPECT_EQ(r.pos[0].status, core::DecomposeStatus::kUnknown);
  EXPECT_EQ(r.pos[0].reason, core::OutcomeReason::kConflictBudget);
  EXPECT_GT(r.pos[0].solver_stats.conflict_budget_stops, 0u);
}

TEST(OutcomeReach, MemLimitAbandonsConeWhileSiblingsConclude) {
  // The parity cone's solvers blow the soft per-cone cap; the adder cones
  // stay far under it. Exactly the offender must come back kMemLimit and
  // every sibling must still conclude — the clean-abandonment contract.
  // The offender sits above the truth-table tier (18 inputs): a smaller
  // XOR cone is settled from its table and builds no solver.
  const aig::Aig circ = benchgen::merge(
      {benchgen::parity_tree(18), benchgen::ripple_adder(3)});
  const auto opts = base_opts(core::Engine::kQbfCombined, core::GateOp::kXor);
  ResourceGovernor gov({/*soft_cone_bytes=*/256u << 10, /*hard=*/0});
  core::ParallelDriverOptions par;
  par.governor = &gov;
  const auto r = core::run_circuit(circ, "mix", opts, 600.0, par);
  ASSERT_GE(r.pos.size(), 2u);
  EXPECT_EQ(r.pos[0].support, 18);
  EXPECT_EQ(r.pos[0].status, core::DecomposeStatus::kUnknown);
  EXPECT_EQ(r.pos[0].reason, core::OutcomeReason::kMemLimit);
  for (std::size_t i = 1; i < r.pos.size(); ++i) {
    EXPECT_NE(r.pos[i].status, core::DecomposeStatus::kUnknown)
        << "sibling po " << i << " must conclude";
    EXPECT_EQ(r.pos[i].reason, core::OutcomeReason::kOk);
  }
  EXPECT_GE(gov.cones_tripped(), 1u);
  EXPECT_GT(gov.peak_run_bytes(), 256u << 10);
  EXPECT_EQ(r.outcome_counts().total(), r.pos.size());
  EXPECT_EQ(r.outcome_counts().of(core::OutcomeReason::kMemLimit), 1u);
}

TEST(OutcomeReach, InjectedAbortClassifiesAsInjectedFault) {
  const aig::Aig circ = benchgen::ripple_adder(3);
  const auto opts = base_opts(core::Engine::kMg, core::GateOp::kOr);
  const auto plan = FaultPlan::parse("5:1:b");  // abort at the first poll
  ASSERT_TRUE(plan.has_value());
  core::ParallelDriverOptions par;
  par.faults = &*plan;
  const auto r = core::run_circuit(circ, "c", opts, 600.0, par);
  ASSERT_FALSE(r.pos.empty());
  for (const core::PoOutcome& p : r.pos) {
    EXPECT_EQ(p.status, core::DecomposeStatus::kUnknown);
    EXPECT_EQ(p.reason, core::OutcomeReason::kInjectedFault);
  }
}

TEST(OutcomeReach, InjectedExpireClassifiesAsEngineDeadline) {
  const aig::Aig circ = benchgen::ripple_adder(3);
  const auto opts = base_opts(core::Engine::kMg, core::GateOp::kOr);
  const auto plan = FaultPlan::parse("5:1:e");
  ASSERT_TRUE(plan.has_value());
  core::ParallelDriverOptions par;
  par.faults = &*plan;
  const auto r = core::run_circuit(circ, "c", opts, 600.0, par);
  ASSERT_FALSE(r.pos.empty());
  for (const core::PoOutcome& p : r.pos) {
    EXPECT_EQ(p.status, core::DecomposeStatus::kUnknown);
    EXPECT_EQ(p.reason, core::OutcomeReason::kEngineDeadline);
  }
}

TEST(OutcomeReach, InjectedVerificationFlipDiscardsDecompositions) {
  // With verification faults firing on every check, any PO the fault-free
  // run decomposed must now be *discarded* (kVerificationFailed), never
  // returned unverified. Not-decomposable proofs carry no verification
  // and are untouched.
  const aig::Aig circ = benchgen::ripple_adder(3);
  const auto opts = base_opts(core::Engine::kMg, core::GateOp::kXor);
  const auto oracle = core::run_circuit(circ, "c", opts, 600.0);
  const auto plan = FaultPlan::parse("5:1:v");
  ASSERT_TRUE(plan.has_value());
  core::ParallelDriverOptions par;
  par.faults = &*plan;
  const auto r = core::run_circuit(circ, "c", opts, 600.0, par);
  ASSERT_EQ(r.pos.size(), oracle.pos.size());
  bool any_discarded = false;
  for (std::size_t i = 0; i < r.pos.size(); ++i) {
    EXPECT_NE(r.pos[i].status, core::DecomposeStatus::kDecomposed)
        << "po " << i << ": unverified result returned as a success";
    if (oracle.pos[i].status == core::DecomposeStatus::kDecomposed) {
      EXPECT_EQ(r.pos[i].status, core::DecomposeStatus::kUnknown);
      EXPECT_EQ(r.pos[i].reason, core::OutcomeReason::kVerificationFailed);
      any_discarded = true;
    } else {
      EXPECT_EQ(r.pos[i].status, oracle.pos[i].status);
    }
  }
  EXPECT_TRUE(any_discarded) << "oracle run must decompose something";
}

// ---------- attempt / ladder budget clamping ------------------------------
// Deadline treats a non-positive budget as "no deadline", so the naive
// `min(po_budget_s, remaining_s())` the driver used to apply silently
// produced *unlimited* attempts on both degenerate ends. These pin the
// fixed helpers; each test names the old expression it would fail under.

TEST(BudgetClamp, FinitePoBudgetClampsToCircuitRemaining) {
  Deadline cd(5.0);
  const double b = core::effective_attempt_budget_s(60.0, cd);
  EXPECT_GT(b, 0.0);
  EXPECT_LE(b, 5.0);
}

TEST(BudgetClamp, UnlimitedPoBudgetInheritsCircuitRemaining) {
  // Old expression: min(0, remaining) == 0 == "no deadline" — an attempt
  // with *no* wall budget under a finite circuit budget.
  Deadline cd(5.0);
  const double b = core::effective_attempt_budget_s(0.0, cd);
  EXPECT_GT(b, 0.0) << "unlimited attempt under a finite circuit budget";
  EXPECT_LE(b, 5.0);
}

TEST(BudgetClamp, ExpiredCircuitBudgetIsNotUnlimited) {
  Deadline cd(600.0);
  cd.force_expire_after_polls(0);  // the circuit budget is spent
  ASSERT_EQ(cd.remaining_s(), 0.0);
  // Old expression: min(10, 0) == 0 == "no deadline" — the attempt that
  // should get nothing got everything.
  const double b = core::effective_attempt_budget_s(10.0, cd);
  EXPECT_GT(b, 0.0) << "0 would mean an unlimited attempt";
  EXPECT_LT(b, 1e-6) << "an expired run grants an instantly-expiring slice";
  EXPECT_TRUE(Deadline(b).expired());
}

TEST(BudgetClamp, UnlimitedOnBothSidesStaysUnlimited) {
  Deadline cd(0.0);  // no circuit budget at all
  EXPECT_EQ(core::effective_attempt_budget_s(0.0, cd), 0.0);
  EXPECT_DOUBLE_EQ(core::effective_attempt_budget_s(7.5, cd), 7.5);
}

TEST(BudgetClamp, RungBudgetIsFiniteUnderUnlimitedPoBudget) {
  // Old expression: po_budget_s * frac == 0 * 0.25 == 0 — a mem-tripped
  // cone's "quarter budget" retry ran with no deadline at all.
  Deadline unlimited(0.0);
  const double b = core::ladder_rung_budget_s(0.0, 0.25, unlimited);
  EXPECT_DOUBLE_EQ(b, 0.25 * core::kDefaultRungBudget_s);

  // With a finite circuit budget the rung slices what actually remains.
  Deadline finite(8.0);
  const double c = core::ladder_rung_budget_s(0.0, 0.5, finite);
  EXPECT_GT(c, 0.0);
  EXPECT_LE(c, 4.0);
}

TEST(BudgetClamp, RungBudgetClampsToCircuitRemaining) {
  // Old expression took the raw po_budget_s * frac, skipping the clamp the
  // primary attempt gets — a late rung could be granted more wall time
  // than the whole run had left (30 s here, against a spent run).
  Deadline cd(600.0);
  cd.force_expire_after_polls(0);
  const double b = core::ladder_rung_budget_s(60.0, 0.5, cd);
  EXPECT_GT(b, 0.0);
  EXPECT_LT(b, 1e-6);
}

// ---------- degradation ladder --------------------------------------------

TEST(OutcomeLadder, MemTrippedConeDegradesToVerifiedConclusion) {
  // Without the MG bootstrap the QBF search on an 18-input XOR blows the
  // 384 KB cone cap before reaching any partition (kMemLimit without the
  // ladder); with --degrade the cheaper-engine rung (STEP-MG under a fresh
  // account) concludes well inside the cap — and rung results run with
  // extraction and SAT verification forced on, so a degraded answer is
  // still proven.
  const aig::Aig circ = benchgen::parity_tree(18);
  core::DecomposeOptions opts =
      base_opts(core::Engine::kQbfCombined, core::GateOp::kXor);
  opts.bootstrap_with_mg = false;
  const ResourceGovernor::Options cap{/*soft_cone_bytes=*/384u << 10, 0};

  ResourceGovernor plain_gov(cap);
  core::ParallelDriverOptions plain;
  plain.governor = &plain_gov;
  const auto without = core::run_circuit(circ, "par18", opts, 600.0, plain);
  ASSERT_EQ(without.pos.size(), 1u);
  EXPECT_EQ(without.pos[0].status, core::DecomposeStatus::kUnknown);
  EXPECT_EQ(without.pos[0].reason, core::OutcomeReason::kMemLimit);
  EXPECT_EQ(without.num_degraded(), 0);

  ResourceGovernor ladder_gov(cap);
  core::ParallelDriverOptions ladder = plain;
  ladder.governor = &ladder_gov;
  ladder.degrade = true;
  const auto with = core::run_circuit(circ, "par18", opts, 600.0, ladder);
  ASSERT_EQ(with.pos.size(), 1u);
  EXPECT_EQ(with.pos[0].status, core::DecomposeStatus::kDecomposed);
  EXPECT_EQ(with.pos[0].reason, core::OutcomeReason::kOk);
  EXPECT_TRUE(with.pos[0].degraded);
  EXPECT_GE(with.pos[0].ladder_rung, 1);
  EXPECT_EQ(with.num_degraded(), 1);
  // The primary attempt still tripped — the ladder pays for the retry, it
  // does not erase the trip from the governor's books.
  EXPECT_GE(ladder_gov.cones_tripped(), 1u);
}

TEST(OutcomeLadder, MemTrippedConeDegradesUnderUnlimitedPoBudget) {
  // po_budget_s == 0 ("no per-PO deadline") used to hand ladder rungs a
  // 0 * frac == 0 budget — unlimited, not a slice. The fixed rung budget
  // is a finite kDefaultRungBudget_s-scaled slice and still concludes.
  const aig::Aig circ = benchgen::parity_tree(18);
  core::DecomposeOptions opts =
      base_opts(core::Engine::kQbfCombined, core::GateOp::kXor);
  opts.bootstrap_with_mg = false;
  opts.po_budget_s = 0.0;
  ResourceGovernor gov({/*soft_cone_bytes=*/384u << 10, /*hard=*/0});
  core::ParallelDriverOptions par;
  par.governor = &gov;
  par.degrade = true;
  const auto r = core::run_circuit(circ, "par18", opts, 600.0, par);
  ASSERT_EQ(r.pos.size(), 1u);
  EXPECT_EQ(r.pos[0].status, core::DecomposeStatus::kDecomposed);
  EXPECT_EQ(r.pos[0].reason, core::OutcomeReason::kOk);
  EXPECT_TRUE(r.pos[0].degraded);
  EXPECT_GE(gov.cones_tripped(), 1u);
}

TEST(OutcomeLadder, CircuitLevelFailuresAreNotRetried) {
  // A run out of *circuit* budget must not burn ladder rungs: the run is
  // over, not the cone.
  const aig::Aig circ = benchgen::ripple_adder(3);
  const auto opts = base_opts(core::Engine::kQbfCombined, core::GateOp::kOr);
  core::ParallelDriverOptions par;
  par.degrade = true;
  const auto r = core::run_circuit(circ, "c", opts, 1e-9, par);
  ASSERT_FALSE(r.pos.empty());
  for (const core::PoOutcome& p : r.pos) {
    EXPECT_EQ(p.status, core::DecomposeStatus::kUnknown);
    EXPECT_EQ(p.reason, core::OutcomeReason::kCircuitDeadline);
    EXPECT_FALSE(p.degraded);
  }
  EXPECT_EQ(r.num_degraded(), 0);
}

// ---------- typed I/O errors ----------------------------------------------

std::string corpus(const std::string& name) {
  return std::string(STEP_TEST_DATA_DIR) + "/corpus/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing file " << path;
  std::string s((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  return s;
}

TEST(IoErrorType, ReadersThrowTypedIoError) {
  // The readers throw io::IoError (a runtime_error subclass) so the CLI
  // boundary can map it onto exit code 3 while every existing
  // runtime_error catch keeps working.
  EXPECT_THROW(io::parse_aiger(slurp(corpus("truncated_mid_and.aag"))),
               io::IoError);
  EXPECT_THROW(io::parse_blif(slurp(corpus("truncated_mid_cube.blif"))),
               io::IoError);
  EXPECT_THROW(io::read_blif_file("/nonexistent/definitely_missing.blif"),
               io::IoError);
  try {
    io::read_blif_file("/nonexistent/definitely_missing.blif");
    FAIL() << "must throw";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// ---------- CLI exit codes -------------------------------------------------

int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(STEP_CLI_PATH) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliExitCodes, TruncatedInputExitsWith3) {
  EXPECT_EQ(run_cli("decompose " + corpus("truncated_mid_cube.blif")), 3);
}

TEST(CliExitCodes, HostileAigerHeaderExitsWith3) {
  // A few-byte header promising billions of objects is malformed input
  // (exit 3), rejected before anything is sized from it, not an
  // allocation failure (exit 1).
  for (const char* name :
       {"huge_outputs.aag", "negative_outputs.aig", "huge_inputs.aig"}) {
    EXPECT_EQ(run_cli("decompose " + corpus(name)), 3) << name;
  }
}

TEST(CliExitCodes, PlausibleHostileAigerHeaderUnderMemLimitExitsWith3) {
  // A header within the plausibility rule (each count ≤ 8·bytes + 1024)
  // still sizes the ASCII reader's tables at ~14 B per M: 1.5M variables
  // from a 200 kB file. Under -mem-limit the run's tracker trips before
  // those tables exist, a bounded io error; without a cap it parses.
  const std::string aag =
      testing::TempDir() + "/outcome_cli_plausible_header.aag";
  std::ofstream(aag) << "aag 1500000 0 0 0 0\nc\n"
                     << std::string(200000, 'x') << "\n";
  EXPECT_EQ(run_cli("decompose " + aag + " -mem-limit 1"), 3);
  EXPECT_EQ(run_cli("decompose " + aag), 0);
}

TEST(CliExitCodes, MissingInputExitsWith3) {
  EXPECT_EQ(run_cli("decompose /nonexistent/definitely_missing.blif"), 3);
}

TEST(CliExitCodes, InjectedIoFaultExitsWith3) {
  // The 'i' fault kind fires deterministically at the CLI's read boundary
  // — same exit path as a real reader failure, rate-independent corpus.
  const std::string blif = testing::TempDir() + "/outcome_cli_ok.blif";
  std::ofstream(blif) << io::write_blif(benchgen::ripple_adder(2), "ok");
  EXPECT_EQ(run_cli("decompose " + blif + " -faults 1:1:i"), 3);
  // Without the io kind the same plan must not touch the exit path.
  EXPECT_EQ(run_cli("decompose " + blif + " -faults 1:0:e"), 0);
}

TEST(CliExitCodes, UsageErrorExitsWith2) {
  EXPECT_EQ(run_cli("decompose"), 2);
  EXPECT_EQ(run_cli("frobnicate x.blif"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -faults not-a-plan"), 2);
  // Engine and op names are exact: a typo must not silently run another
  // engine (formerly STEP-QD) or another gate (formerly OR).
  EXPECT_EQ(run_cli("decompose x.blif -engine qdbb"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -engine QDB"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -op nand"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -op XOR"), 2);
  // Removed solver switches are unknown flags: a stale script must not
  // silently run with a different solver than it asked for.
  EXPECT_EQ(run_cli("decompose x.blif -restarts ema"), 2);
  EXPECT_EQ(run_cli("decompose x.blif --no-inprocess"), 2);
  EXPECT_EQ(run_cli("decompose x.blif --no-rephase"), 2);
  // Likewise the removed engine-racing switches: a stale script must
  // not silently run one fixed engine instead.
  EXPECT_EQ(run_cli("decompose x.blif --portfolio"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -race-width 2"), 2);
  EXPECT_EQ(run_cli("decompose x.blif --portfolio-stats"), 2);
  // Likewise the removed job-order and per-subsystem stats switches: a
  // stale script must fail loudly, not silently lose part of its report.
  EXPECT_EQ(run_cli("decompose x.blif --schedule hardness"), 2);
  EXPECT_EQ(run_cli("decompose x.blif --dc-stats"), 2);
  EXPECT_EQ(run_cli("decompose x.blif --cache-stats"), 2);
  // Numeric values parse whole: garbage used to read as 0, which a
  // -timeout turns into "no budget" and a -j into "all hardware threads".
  EXPECT_EQ(run_cli("decompose x.blif -timeout abc"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -timeout nan"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -j abc"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -qbf-timeout 1s"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -lbd-core x"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -lbd-tier2 ''"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -conflicts 99999999999999999999"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -mem-limit 8MB"), 2);
  // 2^44 MB is 2^64 bytes: the byte cap would wrap to 0.
  EXPECT_EQ(run_cli("decompose x.blif -cone-mem-limit 17592186044416"), 2);
  EXPECT_EQ(run_cli("decompose x.blif -dc-inputs 4.5"), 2);
  // Well-formed values still run.
  const std::string blif = testing::TempDir() + "/outcome_cli_numbers.blif";
  std::ofstream(blif) << io::write_blif(benchgen::ripple_adder(2), "ok");
  EXPECT_EQ(run_cli("decompose " + blif +
                    " -timeout 2.5 -qbf-timeout 0.5 -j 1 -lbd-core 3"
                    " -conflicts 100000 -mem-limit 512"),
            0);
}

TEST(CliExitCodes, MemCappedRunCompletesSuccessfully) {
  // The ISSUE's acceptance shape: a -cone-mem-limit-capped run finishes
  // with exit 0 — cones that trip the cap degrade or report `mem`, the
  // process never dies.
  const std::string blif = testing::TempDir() + "/outcome_cli_par16.blif";
  std::ofstream(blif) << io::write_blif(benchgen::parity_tree(16), "par16");
  EXPECT_EQ(run_cli("decompose " + blif +
                    " -op xor -engine qdb -cone-mem-limit 1 --stats"),
            0);
}

}  // namespace
}  // namespace step
