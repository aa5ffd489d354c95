#include "core/circuit_driver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "aig/ops.h"
#include "aig/support.h"
#include "aig/window.h"
#include "common/thread_pool.h"

namespace step::core {

namespace {

// Degradation-ladder fallback order: each engine's cheaper neighbour
// (QBF engines fall back to the MG bootstrap engine, MG to LJH, LJH to
// nothing — its rung is the verbatim leaf / plain give-up).
std::optional<Engine> cheaper_engine(Engine e) {
  switch (e) {
    case Engine::kQbfDisjoint:
    case Engine::kQbfBalanced:
    case Engine::kQbfCombined: return Engine::kMg;
    case Engine::kMg: return Engine::kLjh;
    case Engine::kLjh: return std::nullopt;
  }
  return std::nullopt;
}

// Deadline::remaining_s() reports ~1e30 when nothing bounds it; anything
// at or above this is "no limit" rather than a real number of seconds.
constexpr double kUnboundedRemaining_s = 1e29;

}  // namespace

double effective_attempt_budget_s(double po_budget_s,
                                  const Deadline& circuit_deadline) {
  const double remaining = circuit_deadline.remaining_s();
  const double b =
      po_budget_s > 0 ? std::min(po_budget_s, remaining) : remaining;
  if (b >= kUnboundedRemaining_s) return 0.0;  // unlimited on both sides
  // An expired circuit budget must not round to 0 ("no deadline"): grant
  // an instantly-expiring attempt instead.
  return b > 0 ? b : 1e-9;
}

double ladder_rung_budget_s(double po_budget_s, double frac,
                            const Deadline& circuit_deadline) {
  double base = po_budget_s;
  if (base <= 0) {
    const double remaining = circuit_deadline.remaining_s();
    base = remaining < kUnboundedRemaining_s ? remaining : kDefaultRungBudget_s;
  }
  return effective_attempt_budget_s(base * frac, circuit_deadline);
}

int CircuitRunResult::num_decomposed() const {
  return static_cast<int>(
      std::count_if(pos.begin(), pos.end(), [](const PoOutcome& p) {
        return p.status == DecomposeStatus::kDecomposed;
      }));
}

int CircuitRunResult::num_proven_optimal() const {
  return static_cast<int>(
      std::count_if(pos.begin(), pos.end(), [](const PoOutcome& p) {
        return p.status == DecomposeStatus::kDecomposed && p.proven_optimal;
      }));
}

int CircuitRunResult::max_support() const {
  int m = 0;
  for (const PoOutcome& p : pos) m = std::max(m, p.support);
  return m;
}

OutcomeCounts CircuitRunResult::outcome_counts() const {
  OutcomeCounts c;
  for (const PoOutcome& p : pos) c.add(p.reason);
  return c;
}

int CircuitRunResult::num_degraded() const {
  return static_cast<int>(std::count_if(
      pos.begin(), pos.end(), [](const PoOutcome& p) { return p.degraded; }));
}

OutcomeCounts CircuitResynthResult::outcome_counts() const {
  OutcomeCounts c;
  for (const PoResynthOutcome& p : pos) c.add(p.reason);
  return c;
}

int CircuitRunResult::num_windows_built() const {
  return static_cast<int>(
      std::count_if(pos.begin(), pos.end(),
                    [](const PoOutcome& p) { return p.window_built; }));
}

int CircuitRunResult::num_window_decomposed() const {
  return static_cast<int>(
      std::count_if(pos.begin(), pos.end(),
                    [](const PoOutcome& p) { return p.used_window; }));
}

std::uint64_t CircuitRunResult::total_window_sdc_minterms() const {
  std::uint64_t s = 0;
  for (const PoOutcome& p : pos) s += p.window_sdc_minterms;
  return s;
}

long CircuitRunResult::total_window_sat_completions() const {
  long s = 0;
  for (const PoOutcome& p : pos) s += p.window_sat_completions;
  return s;
}

long CircuitRunResult::total_sat_calls() const {
  long s = 0;
  for (const PoOutcome& p : pos) s += p.sat_calls;
  return s;
}

long CircuitRunResult::total_qbf_calls() const {
  long s = 0;
  for (const PoOutcome& p : pos) s += p.qbf_calls;
  return s;
}

long CircuitRunResult::total_qbf_iterations() const {
  long s = 0;
  for (const PoOutcome& p : pos) s += p.qbf_iterations;
  return s;
}

std::uint64_t CircuitRunResult::total_abstraction_conflicts() const {
  std::uint64_t s = 0;
  for (const PoOutcome& p : pos) s += p.qbf_abstraction_conflicts;
  return s;
}

std::uint64_t CircuitRunResult::total_verification_conflicts() const {
  std::uint64_t s = 0;
  for (const PoOutcome& p : pos) s += p.qbf_verification_conflicts;
  return s;
}

sat::Solver::Stats CircuitRunResult::total_solver_stats() const {
  sat::Solver::Stats s;
  for (const PoOutcome& p : pos) s += p.solver_stats;
  return s;
}

CircuitRunResult run_circuit(const aig::Aig& circuit, const std::string& name,
                             const DecomposeOptions& opts,
                             double circuit_budget_s,
                             const ParallelDriverOptions& par) {
  CircuitRunResult result;
  result.circuit = name;
  result.engine = opts.engine;
  result.op = opts.op;

  Timer total;
  Deadline circuit_deadline(circuit_budget_s);
  // External cancellation (SIGINT) trips the circuit deadline: in-flight
  // cones stop at their next poll, unfinished POs become kCircuitDeadline.
  circuit_deadline.attach_cancel(par.cancel);

  // Candidate scan is a cheap structural walk over the shared circuit;
  // the cones themselves are extracted inside the jobs so only the cones
  // currently being decomposed are materialized (not the whole circuit's
  // worth at once).
  struct PoJob {
    std::uint32_t po;
    int support;
  };
  std::vector<PoJob> jobs;
  for (std::uint32_t po = 0; po < circuit.num_outputs(); ++po) {
    const int support = static_cast<int>(
        aig::structural_support(circuit, circuit.output(po)).size());
    if (support < 2) continue;  // constants and wires are not decomposable
    jobs.push_back(PoJob{po, support});
  }

  // Hardness scoring + execution order (core/schedule.h). A pure function
  // of the circuit and the policy — no timing, no thread count — so the
  // order (and everything derived from it) is identical across -jN.
  std::vector<double> scores(jobs.size(), 0.0);
  {
    const std::vector<double> est = tree_size_estimates(circuit);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      ConeCost cost;
      cost.po = jobs[j].po;
      cost.support = jobs[j].support;
      cost.est_ands = est[aig::node_of(circuit.output(jobs[j].po))];
      scores[j] = predicted_hardness(cost);
    }
  }
  const std::vector<std::size_t> order =
      schedule_order(scores, par.schedule, &result.schedule);
  // rank_of[j] = position of job j in the execution order.
  std::vector<int> rank_of(jobs.size(), 0);
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank_of[order[r]] = static_cast<int>(r);
  }

  // Slot per job: workers write disjoint entries, so aggregation is
  // deterministic (PO order) regardless of completion order.
  result.pos.resize(jobs.size());
  std::atomic<bool> hit_budget{false};

  auto absorb_costs = [](PoOutcome& outcome, const DecomposeResult& r) {
    outcome.sat_calls += r.sat_calls;
    outcome.qbf_calls += r.qbf_calls;
    outcome.qbf_iterations += r.qbf_iterations;
    outcome.qbf_abstraction_conflicts += r.qbf_abstraction_conflicts;
    outcome.qbf_verification_conflicts += r.qbf_verification_conflicts;
    outcome.solver_stats += r.solver_stats;
  };

  auto run_one = [&](std::size_t j) {
    const PoJob& job = jobs[j];
    PoOutcome& outcome = result.pos[j];
    outcome.po_index = static_cast<int>(job.po);
    outcome.support = job.support;
    outcome.predicted_hardness = scores[j];
    outcome.schedule_rank = rank_of[j];

    if (circuit_deadline.expired()) {
      hit_budget.store(true, std::memory_order_relaxed);
      outcome.status = DecomposeStatus::kUnknown;
      outcome.reason = reason_of(circuit_deadline.trip(), /*run_level=*/true);
      return;
    }

    Timer po_timer;

    // Per-cone fault stream: a pure function of (plan, PO index), so the
    // injected schedule is identical across thread counts.
    std::optional<FaultStream> faults;
    if (par.faults != nullptr && par.faults->enabled()) {
      faults.emplace(*par.faults, job.po);
    }

    // One full attempt at this cone: in DC mode the windowed function on
    // its care set first (SAT-verified against the circuit before it
    // counts), then the exact cone. Each attempt runs under its own
    // memory account, so an abandoned attempt refunds the run budget
    // before the next rung starts, and workers share nothing but the
    // read-only circuit, the deadline, and the governor's atomics.
    // Returns kOk on a conclusion (decomposed or proven not
    // decomposable), otherwise the typed failure reason.
    auto attempt = [&](DecomposeOptions aopts, bool try_window) {
      MemTracker mem(par.governor);
      if (par.governor != nullptr) aopts.mem = &mem;
      if (faults) aopts.faults = &*faults;
      aopts.run_deadline = &circuit_deadline;
      aopts.po_budget_s =
          effective_attempt_budget_s(aopts.po_budget_s, circuit_deadline);

      if (try_window) {
        if (std::optional<aig::Window> win =
                aig::compute_window(circuit, circuit.output(job.po),
                                    aopts.window, &circuit_deadline)) {
          outcome.window_built = true;
          outcome.window_inputs = win->n();
          outcome.window_sdc_minterms = win->sdc_minterms;
          outcome.care_fraction = win->care_fraction();
          outcome.window_sat_completions = win->sat_completions;
          outcome.care_overapprox = win->care_overapprox;

          const CareSet care = care_of_window(*win);
          const Cone wcone{win->aig, win->root};
          const DecomposeResult r =
              BiDecomposer(aopts).decompose(wcone, &care);
          absorb_costs(outcome, r);
          if (r.status == DecomposeStatus::kDecomposed) {
            // Verify the resynthesized node against the window before it
            // counts: composed with the cut logic it must equal the
            // original root on every producible input. An injected flip
            // discards the window result exactly like a real mismatch —
            // sound, because the exact attempt below still runs.
            bool spliceable =
                !r.functions.has_value() ||
                aig::verify_window_replacement(circuit, circuit.output(job.po),
                                               *win, r.functions->aig,
                                               r.functions->combined);
            if (spliceable && faults && faults->fire_verification()) {
              spliceable = false;
            }
            if (spliceable) {
              outcome.status = r.status;
              outcome.metrics = r.metrics;
              outcome.proven_optimal = r.proven_optimal;
              outcome.used_window = true;
              return OutcomeReason::kOk;
            }
          }
        }
      }

      const Cone cone = extract_po_cone(circuit, job.po);
      aopts.po_budget_s =
          effective_attempt_budget_s(aopts.po_budget_s, circuit_deadline);
      const DecomposeResult r = BiDecomposer(aopts).decompose(cone);
      absorb_costs(outcome, r);
      outcome.status = r.status;
      if (r.status != DecomposeStatus::kUnknown) {
        outcome.metrics = r.metrics;
        outcome.proven_optimal = r.proven_optimal;
        return OutcomeReason::kOk;
      }
      return r.reason == OutcomeReason::kOk ? OutcomeReason::kEngineDeadline
                                            : r.reason;
    };

    const OutcomeReason why = attempt(opts, opts.use_dont_cares);
    if (why != OutcomeReason::kOk) {
      // The reported reason stays the primary attempt's: the root cause,
      // even when ladder rungs below fail for other (cheaper) reasons.
      outcome.reason = why;

      // Degradation ladder (opt-in): retry an over-budget or over-memory
      // cone under progressively cheaper configurations, each on a
      // shrinking slice of the per-PO budget, with extraction + SAT
      // verification forced on — a degraded answer can be worse quality,
      // never wrong. Circuit-level failures are not retried: the run is
      // out of budget, not the cone.
      if (par.degrade && (why == OutcomeReason::kEngineDeadline ||
                          why == OutcomeReason::kMemLimit)) {
        struct Rung {
          Engine engine;
          double budget_frac;
          bool window;  ///< keep DC mode, with tightened window caps
        };
        std::vector<Rung> rungs;
        if (opts.use_dont_cares && why == OutcomeReason::kMemLimit) {
          // Smaller window first: the 2^width care enumeration and the
          // windowed relaxation matrix are DC mode's memory hogs.
          rungs.push_back({opts.engine, 0.5, true});
        }
        if (opts.use_dont_cares) {
          rungs.push_back({opts.engine, 0.5, false});
        }
        if (std::optional<Engine> ch = cheaper_engine(opts.engine)) {
          rungs.push_back({*ch, 0.25, false});
        }

        int rung_idx = 0;
        for (const Rung& rung : rungs) {
          ++rung_idx;
          if (circuit_deadline.expired()) break;
          DecomposeOptions ropts = opts;
          ropts.engine = rung.engine;
          ropts.po_budget_s = ladder_rung_budget_s(
              opts.po_budget_s, rung.budget_frac, circuit_deadline);
          ropts.use_dont_cares = rung.window;
          if (rung.window) {
            ropts.window.max_inputs = std::min(ropts.window.max_inputs, 6);
            ropts.window.max_sat_completions =
                std::max(1, ropts.window.max_sat_completions / 2);
          }
          ropts.extract = true;
          ropts.verify = true;
          if (attempt(ropts, rung.window) == OutcomeReason::kOk) {
            outcome.degraded = true;
            outcome.ladder_rung = rung_idx;
            outcome.reason = OutcomeReason::kOk;
            break;
          }
        }
      }
      if (outcome.status == DecomposeStatus::kUnknown &&
          outcome.reason == OutcomeReason::kCircuitDeadline) {
        hit_budget.store(true, std::memory_order_relaxed);
      }
    }
    outcome.cpu_s = po_timer.elapsed_s();
  };

  const int threads =
      std::min(ThreadPool::resolve_num_threads(par.num_threads),
               std::max<int>(1, static_cast<int>(jobs.size())));
  // Both paths execute the scheduled order; the pooled path additionally
  // chunks runs of small cones into one submission each (outliers stay
  // singleton) so a very wide netlist does not pay per-PO queue overhead.
  const std::vector<std::vector<std::size_t>> batches =
      schedule_batches(scores, order, par.schedule, &result.schedule);
  if (threads <= 1) {
    for (const std::size_t j : order) run_one(j);
  } else {
    ThreadPool pool(threads);
    for (const std::vector<std::size_t>& batch : batches) {
      pool.submit([&run_one, &batch] {
        for (const std::size_t j : batch) run_one(j);
      });
    }
    pool.wait_idle();
  }

  // The per-job flag only catches expiry observed *before* a job starts;
  // when the budget dies while the last worker is mid-cone, no later job
  // exists to notice. Aggregate from the shared budget state as well so
  // hit_circuit_budget is faithful (and identical across thread counts).
  result.hit_circuit_budget =
      hit_budget.load(std::memory_order_relaxed) || circuit_deadline.expired();
  result.total_cpu_s = total.elapsed_s();
  return result;
}

CircuitResynthResult run_circuit_resynth(const aig::Aig& circuit,
                                         const std::string& name,
                                         const SynthesisOptions& opts,
                                         double circuit_budget_s,
                                         const ParallelDriverOptions& par,
                                         bool verify) {
  CircuitResynthResult result;
  result.circuit = name;
  result.engine = opts.engine;

  Timer total;
  Deadline circuit_deadline(circuit_budget_s);
  circuit_deadline.attach_cancel(par.cancel);
  const DecCacheStats cache_before =
      opts.cache != nullptr ? opts.cache->stats() : DecCacheStats{};

  const std::uint32_t n_pos = circuit.num_outputs();
  result.pos.resize(n_pos);
  result.trees.resize(n_pos);
  std::vector<SynthesisStats> job_stats(n_pos);
  std::vector<std::vector<std::uint32_t>> job_inputs(n_pos);
  // Windowed POs (DC mode): the tree rewrites the *window* function and
  // is spliced over the verbatim cut logic at assembly time.
  std::vector<std::unique_ptr<aig::Window>> job_windows(n_pos);

  // Input levels are swept once here; the workers only read them.
  const std::vector<int> level_before = node_levels(circuit);

  // Tree construction fans out; workers share only the read-only circuit,
  // the deadline, and the (thread-safe) cache. Expiry degrades quality —
  // sub-cones fall back to verbatim leaves — never completeness.
  auto run_one = [&](std::uint32_t po) {
    Timer po_timer;
    PoResynthOutcome& out = result.pos[po];
    out.po_index = static_cast<int>(po);
    const Cone cone = extract_po_cone(circuit, po, &job_inputs[po]);
    out.support = cone.n();
    out.depth_before = level_before[aig::node_of(circuit.output(po))];
    job_stats[po].pos_processed = 1;

    // Per-cone governance: deterministic fault stream keyed by PO index
    // and a memory account every per-node solver charges. A trip degrades
    // sub-cones to verbatim leaves — the tree stays complete — and the
    // ladder below may rebuild the whole cone cheaper.
    std::optional<FaultStream> faults;
    if (par.faults != nullptr && par.faults->enabled()) {
      faults.emplace(*par.faults, po);
    }
    MemTracker mem(par.governor);
    SynthesisOptions sopts = opts;
    if (par.governor != nullptr) sopts.per_node.mem = &mem;
    if (faults) sopts.per_node.faults = &*faults;
    sopts.per_node.run_deadline = &circuit_deadline;

    // DC mode: rewrite the windowed function on its care set; the result
    // is SAT-verified against the window — composed with the cut logic it
    // must equal the original PO everywhere — *before* it may be spliced,
    // and it must beat the exact whole-cone rewrite on estimated area
    // (window tree plus the verbatim cut logic the splice keeps alive).
    // Any failure falls back to the exact rewrite.
    std::shared_ptr<const DecTree> windowed_tree;
    std::unique_ptr<aig::Window> window;
    SynthesisStats wstats;
    if (sopts.use_dont_cares) {
      if (std::optional<aig::Window> win =
              aig::compute_window(circuit, circuit.output(po),
                                  sopts.per_node.window, &circuit_deadline)) {
        const CareSet care = care_of_window(*win);
        const Cone wcone{win->aig, win->root};
        wstats.pos_processed = 1;
        auto tree =
            decompose_to_tree(wcone, sopts, &wstats, &circuit_deadline, &care);
        aig::Aig repl;
        std::vector<aig::Lit> rin;
        for (int i = 0; i < wcone.n(); ++i) rin.push_back(repl.add_input());
        const aig::Lit rroot = emit_tree(*tree, repl, rin);
        if (aig::verify_window_replacement(circuit, circuit.output(po), *win,
                                           repl, rroot)) {
          windowed_tree = std::move(tree);
          window = std::make_unique<aig::Window>(std::move(*win));
        }
      }
    }
    SynthesisStats estats;
    estats.pos_processed = 1;
    auto exact_tree =
        decompose_to_tree(cone, sopts, &estats, &circuit_deadline);
    bool use_window = false;
    if (windowed_tree != nullptr) {
      // AND gates the splice keeps alive below the cut — an upper bound:
      // strashing against the other POs' logic can only shrink it.
      std::uint32_t cut_ands = 0;
      std::vector<char> seen(circuit.num_nodes(), 0);
      std::vector<std::uint32_t> stack;
      for (const aig::Lit l : window->cut) stack.push_back(aig::node_of(l));
      while (!stack.empty()) {
        const std::uint32_t node = stack.back();
        stack.pop_back();
        if (seen[node] || !circuit.is_and(node)) continue;
        seen[node] = 1;
        ++cut_ands;
        stack.push_back(aig::node_of(circuit.fanin0(node)));
        stack.push_back(aig::node_of(circuit.fanin1(node)));
      }
      use_window = windowed_tree->stats().area() + cut_ands <
                   exact_tree->stats().area();
    }
    if (use_window) {
      job_stats[po] = wstats;
      result.trees[po] = std::move(windowed_tree);
      out.verified = verify;  // proven by the splice check above
      job_windows[po] = std::move(window);
    } else {
      job_stats[po] = estats;
      result.trees[po] = std::move(exact_tree);
      if (verify) out.verified = tree_equivalent(cone, *result.trees[po]);
    }
    // An injected verification flip demotes the PO to unverified: the
    // assembly keeps the tree (it is complete either way) but
    // all_verified faithfully reports the failure.
    if (verify && out.verified && faults && faults->fire_verification()) {
      out.verified = false;
      out.reason = OutcomeReason::kVerificationFailed;
    }

    // Classify what (if anything) degraded this PO's tree, and ladder a
    // memory-tripped cone: rebuild with the cheaper engine and DC off
    // under a fresh account. A rung that trips again still yields a
    // complete tree — mem trips degrade sub-cones to verbatim leaves,
    // they never corrupt — so the bottom rung is implicit.
    if (mem.tripped()) {
      out.reason = OutcomeReason::kMemLimit;
      if (par.degrade) {
        if (std::optional<Engine> ch = cheaper_engine(opts.engine)) {
          SynthesisOptions ropts = sopts;
          ropts.engine = *ch;
          ropts.use_dont_cares = false;
          MemTracker rmem(par.governor);
          ropts.per_node.mem = par.governor != nullptr ? &rmem : nullptr;
          SynthesisStats rstats;
          rstats.pos_processed = 1;
          auto rtree =
              decompose_to_tree(cone, ropts, &rstats, &circuit_deadline);
          job_stats[po] = rstats;
          result.trees[po] = std::move(rtree);
          job_windows[po].reset();
          out.verified =
              verify ? tree_equivalent(cone, *result.trees[po]) : false;
          out.degraded = true;
        }
      }
    } else if (out.reason == OutcomeReason::kOk &&
               circuit_deadline.expired()) {
      out.reason = reason_of(circuit_deadline.trip(), /*run_level=*/true);
    } else if (out.reason == OutcomeReason::kOk && faults &&
               faults->fired() > 0) {
      out.reason = OutcomeReason::kInjectedFault;
    }
    out.tree = result.trees[po]->stats();
    out.cpu_s = po_timer.elapsed_s();
  };

  const int threads =
      std::min(ThreadPool::resolve_num_threads(par.num_threads),
               std::max<int>(1, static_cast<int>(n_pos)));
  if (threads <= 1) {
    for (std::uint32_t po = 0; po < n_pos; ++po) run_one(po);
  } else {
    ThreadPool pool(threads);
    for (std::uint32_t po = 0; po < n_pos; ++po) {
      pool.submit([&run_one, po] { run_one(po); });
    }
    pool.wait_idle();
  }

  // Deterministic assembly in PO order (emission is cheap and serial).
  aig::Aig& dst = result.network;
  std::vector<aig::Lit> pi_map(circuit.num_inputs());
  for (std::uint32_t i = 0; i < circuit.num_inputs(); ++i) {
    pi_map[i] = dst.add_input(circuit.input_name(i));
  }
  result.all_verified = verify;
  for (std::uint32_t po = 0; po < n_pos; ++po) {
    aig::Lit out;
    if (job_windows[po] != nullptr) {
      // Windowed splice: the verbatim cut logic is copied (strashing
      // shares it across POs) and the rewritten window reads it.
      const aig::Window& win = *job_windows[po];
      std::vector<aig::Lit> cut_map(win.cut.size());
      for (std::size_t i = 0; i < win.cut.size(); ++i) {
        cut_map[i] = aig::copy_cone(circuit, win.cut[i], dst, pi_map);
      }
      out = emit_tree(*result.trees[po], dst, cut_map);
    } else {
      std::vector<aig::Lit> dst_inputs(job_inputs[po].size());
      for (std::size_t i = 0; i < job_inputs[po].size(); ++i) {
        dst_inputs[i] = pi_map[job_inputs[po][i]];
      }
      out = emit_tree(*result.trees[po], dst, dst_inputs);
    }
    dst.add_output(out, circuit.output_name(po));
    result.stats += job_stats[po];
    result.stats.depth_before =
        std::max(result.stats.depth_before, result.pos[po].depth_before);
    if (verify && !result.pos[po].verified) result.all_verified = false;
  }
  // One level sweep over the finished network covers every PO's
  // depth_after.
  {
    const std::vector<int> level = node_levels(dst);
    for (std::uint32_t po = 0; po < n_pos; ++po) {
      result.pos[po].depth_after = level[aig::node_of(dst.output(po))];
      result.stats.depth_after =
          std::max(result.stats.depth_after, result.pos[po].depth_after);
    }
  }
  result.stats.ands_before = circuit.num_ands();
  result.stats.ands_after = dst.num_ands();

  if (opts.cache != nullptr) {
    const DecCacheStats after = opts.cache->stats();
    result.cache.lookups = after.lookups - cache_before.lookups;
    result.cache.npn_hits = after.npn_hits - cache_before.npn_hits;
    result.cache.sig_hits = after.sig_hits - cache_before.sig_hits;
    result.cache.misses = after.misses - cache_before.misses;
    result.cache.insertions = after.insertions - cache_before.insertions;
    result.cache.sat_confirms = after.sat_confirms - cache_before.sat_confirms;
    result.cache.sat_refutes = after.sat_refutes - cache_before.sat_refutes;
  }
  result.hit_circuit_budget = circuit_deadline.expired();
  result.total_cpu_s = total.elapsed_s();
  return result;
}

QualityComparison compare_quality(const CircuitRunResult& base,
                                  const CircuitRunResult& challenger,
                                  MetricKind kind) {
  QualityComparison cmp;
  STEP_CHECK(base.pos.size() == challenger.pos.size());
  for (std::size_t i = 0; i < base.pos.size(); ++i) {
    const PoOutcome& b = base.pos[i];
    const PoOutcome& c = challenger.pos[i];
    STEP_CHECK(b.po_index == c.po_index);
    if (b.status != DecomposeStatus::kDecomposed ||
        c.status != DecomposeStatus::kDecomposed) {
      continue;
    }
    ++cmp.considered;
    const int bc = metric_cost(b.metrics, kind);
    const int cc = metric_cost(c.metrics, kind);
    if (cc < bc) {
      ++cmp.challenger_better;
    } else if (cc == bc) {
      ++cmp.equal;
    } else {
      ++cmp.challenger_worse;
    }
  }
  return cmp;
}

}  // namespace step::core
