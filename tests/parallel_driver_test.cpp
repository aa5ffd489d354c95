// Thread pool unit tests plus the parallel-driver determinism contract:
// run_circuit with N > 1 workers must report exactly the per-PO outcomes
// of the sequential reference run (budgets permitting), because per-PO
// jobs share no solver state and results are merged in PO order.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "benchgen/generators.h"
#include "benchgen/suite.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/circuit_driver.h"

namespace step {
namespace {

// ---------- ThreadPool ----------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleWithNoJobsReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.wait_idle();
}

TEST(ThreadPool, ReusableAcrossWaitIdleRounds) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 50);
  }
}

TEST(ThreadPool, NestedSubmitFromWorkerCompletesBeforeWaitIdle) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&pool, &count] {
      for (int k = 0; k < 10; ++k) {
        pool.submit([&count] { count.fetch_add(1); });
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, DestructorDrainsQueuedJobs) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    // No wait_idle(): the destructor must drain the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleWorkerRunsJobsInSubmissionOrder) {
  constexpr int kJobs = 5;
  std::vector<int> order;  // written by the single worker only
  Mutex mu;
  CondVar cv;
  bool started = false;
  bool released = false;
  {
    ThreadPool pool(1);
    // Job 0 holds the only worker until jobs 1..k are all queued.
    pool.submit([&] {
      MutexLock lock(mu);
      started = true;
      cv.notify_all();
      while (!released) cv.wait(mu);
      order.push_back(0);
    });
    {
      MutexLock lock(mu);
      while (!started) cv.wait(mu);
    }
    for (int i = 1; i <= kJobs; ++i) {
      pool.submit([&order, i] { order.push_back(i); });
    }
    {
      MutexLock lock(mu);
      released = true;
    }
    cv.notify_all();
    pool.wait_idle();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(ThreadPool::resolve_num_threads(1), 1);
  EXPECT_EQ(ThreadPool::resolve_num_threads(7), 7);
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1);
  EXPECT_GE(ThreadPool::resolve_num_threads(-3), 1);
}

// ---------- parallel run_circuit -----------------------------------------

// Everything except wall-clock timing must match between runs.
void expect_same_outcomes(const core::CircuitRunResult& a,
                          const core::CircuitRunResult& b) {
  ASSERT_EQ(a.pos.size(), b.pos.size());
  EXPECT_EQ(a.hit_circuit_budget, b.hit_circuit_budget);
  for (std::size_t i = 0; i < a.pos.size(); ++i) {
    SCOPED_TRACE("po slot " + std::to_string(i));
    EXPECT_EQ(a.pos[i].po_index, b.pos[i].po_index);
    EXPECT_EQ(a.pos[i].support, b.pos[i].support);
    EXPECT_EQ(a.pos[i].status, b.pos[i].status);
    EXPECT_EQ(a.pos[i].proven_optimal, b.pos[i].proven_optimal);
    EXPECT_EQ(a.pos[i].metrics.n, b.pos[i].metrics.n);
    EXPECT_EQ(a.pos[i].metrics.shared, b.pos[i].metrics.shared);
    EXPECT_EQ(a.pos[i].metrics.imbalance, b.pos[i].metrics.imbalance);
  }
}

core::DecomposeOptions generous_opts(core::Engine engine, core::GateOp op) {
  core::DecomposeOptions o;
  o.engine = engine;
  o.op = op;
  // Budgets far above what these small cones need, so no timeout can leak
  // nondeterminism into the comparison.
  o.po_budget_s = 60.0;
  o.optimum.call_timeout_s = 10.0;
  return o;
}

TEST(ParallelDriver, MatchesSequentialRunAcrossEngines) {
  const aig::Aig circ = benchgen::random_sop(3, 3, 2, 6, 4, 0x5eed);
  const core::Engine engines[] = {
      core::Engine::kLjh, core::Engine::kMg, core::Engine::kQbfDisjoint,
      core::Engine::kQbfBalanced, core::Engine::kQbfCombined};
  for (core::Engine e : engines) {
    SCOPED_TRACE(core::to_string(e));
    const auto opts = generous_opts(e, core::GateOp::kOr);
    const auto seq = core::run_circuit(circ, "sop", opts, 600.0, {1});
    const auto par = core::run_circuit(circ, "sop", opts, 600.0, {4});
    expect_same_outcomes(seq, par);
    EXPECT_GT(seq.pos.size(), 0u);
  }
}

TEST(ParallelDriver, MatchesSequentialOnStructuredCircuits) {
  const aig::Aig circuits[] = {benchgen::ripple_adder(4),
                               benchgen::comparator(4),
                               benchgen::priority_encoder(5)};
  for (const aig::Aig& c : circuits) {
    const auto opts =
        generous_opts(core::Engine::kQbfDisjoint, core::GateOp::kOr);
    const auto seq = core::run_circuit(c, "c", opts, 600.0, {1});
    const auto par = core::run_circuit(c, "c", opts, 600.0, {3});
    expect_same_outcomes(seq, par);
  }
}

TEST(ParallelDriver, ExpiredCircuitBudgetReportsUnknownEverywhere) {
  const aig::Aig circ = benchgen::random_sop(3, 3, 2, 5, 4, 0xbead);
  const auto opts =
      generous_opts(core::Engine::kQbfDisjoint, core::GateOp::kOr);
  // A budget this small expires before the first deadline check, on every
  // worker, so all POs must come back kUnknown in both modes.
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto r = core::run_circuit(circ, "sop", opts, 1e-9, {threads});
    EXPECT_TRUE(r.hit_circuit_budget);
    ASSERT_GT(r.pos.size(), 0u);
    for (const core::PoOutcome& po : r.pos) {
      EXPECT_EQ(po.status, core::DecomposeStatus::kUnknown);
    }
  }
}

TEST(ParallelDriver, BudgetExpiryMidLastJobStillRaisesTheFlag) {
  // Regression (PR 5): hit_circuit_budget was only set when a job
  // *started* after expiry. With every job started before the budget died
  // — the common case: the budget expires while the last worker is inside
  // its cone — the flag stayed false. It must now be aggregated from the
  // shared deadline, identically across thread counts.
  // Two OR-decomposable SOP cones of 20 and 21 inputs that share a group
  // of inputs: MG finds a bootstrap partition that is not free, so the
  // QDB optimum search runs its SAT CEGAR loop (unbudgeted, ~0.3 s).
  const aig::Aig circ = benchgen::random_sop(10, 10, 4, 2, 16, 0x5eed);
  core::DecomposeOptions opts =
      generous_opts(core::Engine::kQbfCombined, core::GateOp::kOr);
  opts.extract = false;  // the budget dies inside the partition search
  // Small enough that these optimum searches cannot finish inside it
  // (both cones are past aig::kTtMaxSupport, so no truth table settles
  // them), yet the jobs themselves launch within microseconds — and if a
  // worker does start late, it observes the expiry directly, so the flag
  // must be true on every schedule.
  const double budget_s = 0.002;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto r = core::run_circuit(circ, "par", opts, budget_s, {threads});
    EXPECT_TRUE(r.hit_circuit_budget);
  }
}

TEST(ParallelDriver, ZeroThreadsMeansHardwareConcurrency) {
  const aig::Aig circ = benchgen::parity_tree(6);
  const auto opts = generous_opts(core::Engine::kMg, core::GateOp::kXor);
  const auto seq = core::run_circuit(circ, "par", opts, 600.0, {1});
  const auto par = core::run_circuit(circ, "par", opts, 600.0, {0});
  expect_same_outcomes(seq, par);
}

// TSan/ASan-friendly stress: the whole tiny benchgen suite with more
// workers than cores, repeatedly, across all three gate ops.
TEST(ParallelDriver, StressTinySuiteManyThreads) {
  const auto suite = benchgen::standard_suite(benchgen::SuiteScale::kTiny);
  ASSERT_GT(suite.size(), 0u);
  const core::GateOp ops[] = {core::GateOp::kOr, core::GateOp::kAnd,
                              core::GateOp::kXor};
  for (const benchgen::BenchCircuit& c : suite) {
    for (core::GateOp op : ops) {
      core::DecomposeOptions opts = generous_opts(core::Engine::kMg, op);
      opts.po_budget_s = 2.0;
      const auto seq = core::run_circuit(c.aig, c.name, opts, 120.0, {1});
      const auto par = core::run_circuit(c.aig, c.name, opts, 120.0, {8});
      expect_same_outcomes(seq, par);
    }
  }
}

TEST(ParallelDriver, FaultInjectionIsThreadCountInvariant) {
  // Each PO derives its fault stream from (plan.seed, po_index), never from
  // scheduling, so the injected schedule — and with it every per-PO status,
  // reason, and the aggregated taxonomy — must be identical across thread
  // counts. Budgets are generous: wall-clock expiry is the one legitimately
  // nondeterministic input, and it is kept out of the picture here.
  const aig::Aig circ = benchgen::random_sop(3, 3, 2, 6, 4, 0x5eed);
  const auto opts = generous_opts(core::Engine::kMg, core::GateOp::kOr);
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE(seed);
    FaultPlan plan;
    plan.seed = seed;
    plan.rate = 0.1;
    core::ParallelDriverOptions p1;
    p1.num_threads = 1;
    p1.faults = &plan;
    core::ParallelDriverOptions p8 = p1;
    p8.num_threads = 8;
    const auto seq = core::run_circuit(circ, "f", opts, 600.0, p1);
    const auto par = core::run_circuit(circ, "f", opts, 600.0, p8);
    ASSERT_EQ(seq.pos.size(), par.pos.size());
    EXPECT_EQ(seq.outcome_counts(), par.outcome_counts());
    for (std::size_t i = 0; i < seq.pos.size(); ++i) {
      SCOPED_TRACE("po slot " + std::to_string(i));
      EXPECT_EQ(seq.pos[i].status, par.pos[i].status);
      EXPECT_EQ(seq.pos[i].reason, par.pos[i].reason);
      EXPECT_EQ(seq.pos[i].degraded, par.pos[i].degraded);
    }
  }
}

// ---------- recursive resynthesis driver ----------------------------------

TEST(ParallelResynth, SharedCacheUnderManyWorkersStaysCorrect) {
  // One NPN cache shared by 8 workers over a merged circuit with many
  // duplicate cones: whatever interleaving the pool produces, every PO
  // tree must SAT-verify and the assembled netlist must be equivalent.
  const aig::Aig circ = benchgen::merge(
      {benchgen::ripple_adder(4), benchgen::ripple_adder(4),
       benchgen::counter_next(5), benchgen::comparator(3)});
  core::DecCache cache;
  core::SynthesisOptions opts;
  opts.engine = core::Engine::kMg;
  opts.pick_best_op = true;
  opts.cache = &cache;
  for (int round = 0; round < 3; ++round) {
    const core::CircuitResynthResult r = core::run_circuit_resynth(
        circ, "par", opts, 120.0, {8}, /*verify=*/true);
    EXPECT_TRUE(r.all_verified) << "round " << round;
    for (const core::PoResynthOutcome& po : r.pos) {
      EXPECT_TRUE(po.verified) << "po " << po.po_index;
    }
  }
  // After the first round the cache holds every class, so later rounds
  // are served almost entirely from it.
  const core::DecCacheStats s = cache.stats();
  EXPECT_GT(s.hits(), 0u);
  EXPECT_GT(s.insertions, 0u);
}

TEST(ParallelResynth, ParallelNetworkEquivalentToSequential) {
  // Tree construction is per-PO deterministic; with the cache *off* the
  // parallel netlist must be byte-identical to the sequential one
  // (deterministic PO-order assembly). With caching on, only equivalence
  // is promised (hit order is a race), which ParallelResynthShared
  // covers; here we pin the determinism contract.
  const aig::Aig circ =
      benchgen::merge({benchgen::random_sop(3, 3, 1, 4, 3, 0xabc),
                       benchgen::parity_tree(6)});
  core::SynthesisOptions opts;
  opts.engine = core::Engine::kMg;
  opts.pick_best_op = true;
  const auto seq = core::run_circuit_resynth(circ, "c", opts, 120.0, {1});
  const auto par = core::run_circuit_resynth(circ, "c", opts, 120.0, {6});
  ASSERT_EQ(seq.network.num_outputs(), par.network.num_outputs());
  EXPECT_EQ(seq.network.num_ands(), par.network.num_ands());
  for (std::uint32_t o = 0; o < seq.network.num_outputs(); ++o) {
    EXPECT_EQ(seq.network.output(o), par.network.output(o)) << "po " << o;
  }
  EXPECT_EQ(seq.stats.decompositions, par.stats.decompositions);
}

}  // namespace
}  // namespace step
