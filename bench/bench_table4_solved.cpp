// Reproduces Table IV: "Percentage of solved POs with STEP-{QD,QB,QDB} for
// OR bi-decomposition" — the share of decomposable POs for which the QBF
// engine *proved* the optimum within the per-call timeout. (The paper
// reports 91.97 / 97.81 / 84.42 over 38582 POs; the reproducible claim is
// the ordering QB > QD > QDB, driven by how hard each model's bound
// queries are.)

#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace step;
  using core::Engine;

  const auto scale = benchgen::scale_from_env();
  const auto suite = benchgen::standard_suite(scale);
  const auto par = bench::parallel_from_env_or_args(argc, argv);
  const std::string json_path = bench::json_path_from_args(argc, argv);
  auto budgets = bench::budgets_for(scale);
  // Table IV exists because of the QBF timeout: use a deliberately tight
  // per-call budget so the hardest cones time out here like in the paper.
  budgets.qbf_call_s = std::min(budgets.qbf_call_s, 0.008);

  bench::print_preamble(
      "Table IV: percentage of solved (proven-optimal) POs, OR decomposition",
      scale);

  const Engine engines[] = {Engine::kQbfDisjoint, Engine::kQbfBalanced,
                            Engine::kQbfCombined};
  std::printf("%8s", "#Out");
  for (Engine e : engines) std::printf(" %12s(%%)", core::to_string(e));
  std::printf("\n");

  long total_pos = 0;
  double pct[3] = {};
  core::CircuitRunResult agg[3];
  for (int e = 0; e < 3; ++e) {
    long decomposed = 0, proven = 0, pos = 0;
    for (const benchgen::BenchCircuit& c : suite) {
      auto r = bench::run_suite({c}, engines[e], core::GateOp::kOr, budgets,
                                par)[0];
      pos += static_cast<long>(r.pos.size());
      decomposed += r.num_decomposed();
      proven += r.num_proven_optimal();
      agg[e].total_cpu_s += r.total_cpu_s;
      agg[e].pos.insert(agg[e].pos.end(), r.pos.begin(), r.pos.end());
    }
    total_pos = pos;
    pct[e] = decomposed == 0 ? 0.0 : 100.0 * proven / decomposed;
  }
  std::printf("%8ld", total_pos);
  for (int e = 0; e < 3; ++e) std::printf(" %15.2f", pct[e]);
  std::printf("\n");
  std::printf("# shape check (paper): QB (97.81) > QD (91.97) > QDB (84.42)\n");

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    bench::JsonWriter j(f);
    j.begin_object();
    j.kv("bench", "table4_solved");
    j.kv("scale", bench::scale_name(scale));
    j.kv("threads", par.num_threads);
    j.kv("qbf_call_timeout_s", budgets.qbf_call_s);
    j.kv("total_pos", total_pos);
    j.key("engines");
    j.begin_array();
    for (int e = 0; e < 3; ++e) {
      j.begin_object();
      j.kv("engine", core::to_string(engines[e]));
      j.kv("solved_pct", pct[e]);
      bench::json_run_stats(j, agg[e]);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return 0;
}
