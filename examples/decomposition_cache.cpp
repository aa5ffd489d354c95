// The NPN-canonical decomposition cache in action: a circuit whose POs
// contain repeated (and input-permuted / complemented) cones is
// recursively resynthesized twice — cold and cache-backed — showing that
// equivalent cones decompose once and every later occurrence is served by
// rewiring the cached tree (see core/dec_cache.h).
//
//   $ ./decomposition_cache [mg|qd|qb|qdb]

#include <cstdio>
#include <cstring>

#include "benchgen/generators.h"
#include "core/circuit_driver.h"

int main(int argc, char** argv) {
  using namespace step;

  core::Engine engine = core::Engine::kMg;
  if (argc > 1) {
    if (std::strcmp(argv[1], "qd") == 0) engine = core::Engine::kQbfDisjoint;
    if (std::strcmp(argv[1], "qb") == 0) engine = core::Engine::kQbfBalanced;
    if (std::strcmp(argv[1], "qdb") == 0) engine = core::Engine::kQbfCombined;
  }

  // Three copies of the same adder plus two comparators: the adders'
  // per-bit sum/carry cones repeat across parts and bit positions, so
  // after the first PO almost everything is a cache hit.
  const aig::Aig circ = benchgen::merge(
      {benchgen::ripple_adder(4), benchgen::ripple_adder(4),
       benchgen::ripple_adder(4), benchgen::comparator(3),
       benchgen::comparator(3)});
  std::printf("input: %u PIs, %u POs, %u AND gates\n", circ.num_inputs(),
              circ.num_outputs(), circ.num_ands());

  core::SynthesisOptions opts;
  opts.engine = engine;
  opts.pick_best_op = true;

  // Cold run: every cone is decomposed from scratch.
  const core::CircuitResynthResult cold =
      core::run_circuit_resynth(circ, "cold", opts, /*budget_s=*/120.0);
  std::printf("cold:   %d splits, %.3f s, ANDs %u -> %u, depth %d -> %d\n",
              cold.stats.decompositions, cold.total_cpu_s,
              cold.stats.ands_before, cold.stats.ands_after,
              cold.stats.depth_before, cold.stats.depth_after);

  // Cached run: one shared NPN-canonical store across all POs.
  core::DecCache cache;
  opts.cache = &cache;
  const core::CircuitResynthResult warm = core::run_circuit_resynth(
      circ, "cached", opts, /*budget_s=*/120.0, {}, /*verify=*/true);
  std::printf("cached: %d splits, %.3f s, %d cache hits\n",
              warm.stats.decompositions, warm.total_cpu_s,
              warm.stats.cache_hits);
  std::printf("cache:  %llu lookups, %llu hits (%.0f%% hit rate),"
              " %zu stored trees\n",
              static_cast<unsigned long long>(warm.cache.lookups),
              static_cast<unsigned long long>(warm.cache.hits()),
              100.0 * warm.cache.hit_rate(), cache.size());
  std::printf("verify: %s\n", warm.all_verified
                                  ? "every PO SAT-proven equivalent"
                                  : "MISMATCH (bug!)");
  return warm.all_verified ? 0 : 1;
}
