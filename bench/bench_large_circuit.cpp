// Large-circuit scaling bench: streaming binary-AIGER parse throughput and
// memory envelope on 10^5-10^6-gate EPFL-style netlists. Emits
// BENCH_large.json (--json <path>), which the CI large-circuit job gates on:
// bytes_per_node <= 64 and roundtrip_ok for every parsed circuit (arena
// envelope); the exit status is non-zero otherwise.
//
// Scale knob: STEP_BENCH_SCALE=tiny|small|full -> ~2e4 / ~1e5 / ~1e6 target
// AND gates (tiny keeps the smoke-test path fast).

#include <cstdio>
#include <string>
#include <vector>

#include "aig/simulate.h"
#include "bench_common.h"
#include "benchgen/epfl.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/timer.h"
#include "io/aiger.h"

namespace {

using namespace step;  // NOLINT

std::uint64_t target_for(benchgen::SuiteScale scale) {
  switch (scale) {
    case benchgen::SuiteScale::kTiny: return 20'000;
    case benchgen::SuiteScale::kSmall: return 100'000;
    case benchgen::SuiteScale::kFull: return 1'000'000;
  }
  return 100'000;
}

/// 64-pattern random simulation signature: one fold over all output words.
std::uint64_t sim_signature(const aig::Aig& a, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> in(a.num_inputs());
  for (auto& w : in) w = rng.next();
  const std::vector<std::uint64_t> out = aig::simulate(a, in);
  std::uint64_t sig = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t w : out) {
    sig ^= w + 0x9e3779b97f4a7c15ULL + (sig << 6) + (sig >> 2);
  }
  return sig;
}

struct ParseRow {
  std::string name;
  std::uint64_t nodes = 0, ands = 0, inputs = 0, outputs = 0;
  std::uint64_t binary_bytes = 0;
  double gen_s = 0.0, write_s = 0.0, parse_s = 0.0;
  std::uint64_t peak_tracked_bytes = 0;
  double bytes_per_node = 0.0;
  std::uint64_t arena_bytes = 0;
  bool roundtrip_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  const benchgen::SuiteScale scale = benchgen::scale_from_env();
  const std::uint64_t target = target_for(scale);
  bench::print_preamble("bench_large_circuit", scale);
  std::printf("# target gates: %llu\n",
              static_cast<unsigned long long>(target));

  // --emit-dir <dir>: additionally write each generated netlist as a
  // binary-AIGER file (CI feeds one of these to `step decompose`).
  std::string emit_dir;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--emit-dir") emit_dir = argv[i + 1];
  }

  // ---- streaming parse + memory envelope over the EPFL-style suite ----
  std::vector<ParseRow> rows;
  for (benchgen::LargeCircuit& c : benchgen::large_suite(target)) {
    ParseRow row;
    row.name = c.name;

    Timer gen;  // suite construction happened above; re-time the writer
    row.gen_s = gen.elapsed_s();

    Timer wt;
    const std::string bytes = io::write_aiger_binary(c.aig);
    row.write_s = wt.elapsed_s();
    row.binary_bytes = bytes.size();
    if (!emit_dir.empty()) {
      const std::string path = emit_dir + "/" + c.name + ".aig";
      FILE* out = std::fopen(path.c_str(), "wb");
      if (out == nullptr) {
        std::perror(path.c_str());
        return 2;
      }
      std::fwrite(bytes.data(), 1, bytes.size(), out);
      std::fclose(out);
    }

    ResourceGovernor governor;
    MemTracker mem(&governor);
    Timer pt;
    const aig::Aig back = io::parse_aiger_binary(bytes, &mem);
    row.parse_s = pt.elapsed_s();

    row.nodes = back.num_nodes();
    row.ands = back.num_ands();
    row.inputs = back.num_inputs();
    row.outputs = back.num_outputs();
    row.peak_tracked_bytes = governor.peak_run_bytes();
    row.bytes_per_node =
        static_cast<double>(row.peak_tracked_bytes) /
        static_cast<double>(std::max<std::uint64_t>(row.nodes, 1));
    row.arena_bytes = back.memory_bytes();
    row.roundtrip_ok =
        sim_signature(c.aig, 0xC0FFEE) == sim_signature(back, 0xC0FFEE);

    std::printf(
        "%-22s ands=%-8llu parse=%.3fs peak=%.1fMB bytes/node=%.1f "
        "roundtrip=%s\n",
        row.name.c_str(), static_cast<unsigned long long>(row.ands),
        row.parse_s,
        static_cast<double>(row.peak_tracked_bytes) / (1024.0 * 1024.0),
        row.bytes_per_node, row.roundtrip_ok ? "ok" : "MISMATCH");
    rows.push_back(row);
  }

  // ---- artifact ---------------------------------------------------------
  const std::string json_path = bench::json_path_from_args(argc, argv);
  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::perror(json_path.c_str());
      return 2;
    }
    bench::JsonWriter j(f);
    j.begin_object();
    j.kv("bench", "large_circuit");
    j.kv("scale", bench::scale_name(scale));
    j.kv("target_gates", target);
    j.key("circuits");
    j.begin_array();
    for (const ParseRow& r : rows) {
      j.begin_object();
      j.kv("name", r.name);
      j.kv("nodes", r.nodes);
      j.kv("ands", r.ands);
      j.kv("inputs", r.inputs);
      j.kv("outputs", r.outputs);
      j.kv("binary_bytes", r.binary_bytes);
      j.kv("write_s", r.write_s);
      j.kv("parse_s", r.parse_s);
      j.kv("parse_mb_per_s",
           r.parse_s > 0
               ? static_cast<double>(r.binary_bytes) / (1e6 * r.parse_s)
               : 0.0);
      j.kv("peak_tracked_bytes", r.peak_tracked_bytes);
      j.kv("bytes_per_node", r.bytes_per_node);
      j.kv("arena_bytes", r.arena_bytes);
      j.kv("roundtrip_ok", r.roundtrip_ok);
      j.end_object();
    }
    j.end_array();
    j.end_object();  // root
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  const bool envelope_ok = [&] {
    for (const ParseRow& r : rows) {
      if (!r.roundtrip_ok || r.bytes_per_node > 64.0) return false;
    }
    return true;
  }();
  return envelope_ok ? 0 : 1;
}
