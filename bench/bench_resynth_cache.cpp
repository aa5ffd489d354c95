// Recursive-resynthesis bench: area/depth deltas of the decomposition
// trees and the hit rate of the shared NPN-canonical cache, per suite
// circuit. Every circuit is resynthesized three times — cold (no cache),
// with a per-circuit cache, and in don't-care mode (sibling-ODC care
// sets, SAT-verified netlist) — so the JSON artifact carries the quality
// numbers, the cache effectiveness, and the DC area delta side by side.
//
//   $ STEP_BENCH_SCALE=tiny ./bench_resynth_cache -j 2 --json out.json

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace step;
  using core::CircuitResynthResult;

  const benchgen::SuiteScale scale = benchgen::scale_from_env();
  const bench::BenchBudgets budgets = bench::budgets_for(scale);
  const core::ParallelDriverOptions par =
      bench::parallel_from_env_or_args(argc, argv);
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::vector<benchgen::BenchCircuit> suite =
      benchgen::standard_suite(scale);

  bench::print_preamble("recursive resynthesis + decomposition cache", scale);
  std::printf("%-10s %5s %7s %7s %7s %7s %7s %8s %8s %9s\n", "circuit", "pos",
              "ands0", "ands1", "andsDC", "depth0", "depth1", "hits", "hit%",
              "cpu(s)");

  FILE* jf = json_path.empty() ? nullptr : std::fopen(json_path.c_str(), "w");
  if (!json_path.empty() && jf == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  bench::JsonWriter j(jf == nullptr ? stdout : jf);
  if (jf != nullptr) {
    j.begin_object();
    j.kv("bench", "resynth_cache");
    j.kv("scale", bench::scale_name(scale));
    j.kv("threads", par.num_threads);
    j.key("circuits");
    j.begin_array();
  }

  core::SynthesisOptions opts;
  opts.engine = core::Engine::kMg;  // fast heuristic splits at every node
  opts.pick_best_op = true;
  opts.per_node.po_budget_s = budgets.po_s;

  for (const benchgen::BenchCircuit& c : suite) {
    opts.cache = nullptr;
    const CircuitResynthResult cold =
        core::run_circuit_resynth(c.aig, c.name, opts, budgets.circuit_s, par);

    core::DecCache cache;
    opts.cache = &cache;
    const CircuitResynthResult warm =
        core::run_circuit_resynth(c.aig, c.name, opts, budgets.circuit_s, par);

    // Don't-care mode, cache off (DC nodes never insert, so a shared
    // cache would only blur the comparison), netlist SAT-verified.
    opts.cache = nullptr;
    opts.use_dont_cares = true;
    const CircuitResynthResult dc = core::run_circuit_resynth(
        c.aig, c.name, opts, budgets.circuit_s, par, /*verify=*/true);
    opts.use_dont_cares = false;

    std::printf("%-10s %5zu %7u %7u %7u %7d %7d %8llu %7.1f%% %9.3f\n",
                c.name.c_str(), warm.pos.size(), warm.stats.ands_before,
                warm.stats.ands_after, dc.stats.ands_after,
                warm.stats.depth_before, warm.stats.depth_after,
                static_cast<unsigned long long>(warm.cache.hits()),
                100.0 * warm.cache.hit_rate(), warm.total_cpu_s);
    if (!dc.all_verified) {
      std::fprintf(stderr, "DC resynthesis of %s failed verification\n",
                   c.name.c_str());
      return 1;
    }

    if (jf != nullptr) {
      j.begin_object();
      j.kv("circuit", c.name);
      j.kv("standin_for", c.standin_for);
      j.kv("pos", static_cast<long long>(warm.pos.size()));
      j.kv("ands_before", static_cast<long long>(warm.stats.ands_before));
      j.kv("ands_after", static_cast<long long>(warm.stats.ands_after));
      // Cache-off reference: the DC run also runs cache-off, so this is
      // the like-for-like baseline its area is gated against in CI.
      j.kv("ands_after_cold", static_cast<long long>(cold.stats.ands_after));
      j.kv("depth_before", warm.stats.depth_before);
      j.kv("depth_after", warm.stats.depth_after);
      j.kv("splits_cold", cold.stats.decompositions);
      j.kv("splits_cached", warm.stats.decompositions);
      j.kv("cpu_cold_s", cold.total_cpu_s);
      j.kv("cpu_cached_s", warm.total_cpu_s);
      j.kv("hit_budget", warm.hit_circuit_budget);
      j.key("cache");
      j.begin_object();
      j.kv("lookups", warm.cache.lookups);
      j.kv("npn_hits", warm.cache.npn_hits);
      j.kv("misses", warm.cache.misses);
      j.kv("insertions", warm.cache.insertions);
      j.kv("hit_rate", warm.cache.hit_rate());
      j.end_object();
      j.key("dc");
      j.begin_object();
      j.kv("ands_after", static_cast<long long>(dc.stats.ands_after));
      j.kv("depth_after", dc.stats.depth_after);
      j.kv("splits", dc.stats.decompositions);
      j.kv("care_nodes", dc.stats.dc_nodes);
      j.kv("care_constants", dc.stats.dc_constants);
      j.kv("verified", dc.all_verified);
      j.kv("cpu_s", dc.total_cpu_s);
      j.end_object();
      j.end_object();
    }
  }

  if (jf != nullptr) {
    j.end_array();
    j.end_object();
    std::fputc('\n', jf);
    std::fclose(jf);
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return 0;
}
