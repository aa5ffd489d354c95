#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.h"

namespace step::benchgen {

/// EPFL-combinational-suite-style generators (arithmetic + control),
/// parameterized so the large-circuit bench can dial them from 10^5 up to
/// 10^6 AND gates. Like generators.h these are fully deterministic and
/// return self-contained combinational AIGs with named inputs/outputs;
/// unlike the paper-table stand-ins they exist to stress *scale* — the
/// streaming AIGER path and the arena memory envelope — not to reproduce
/// any published row.

/// Wide carry-select adder, a[bits] + b[bits] + cin. Roughly 12 ANDs per
/// bit; bits = 100000 lands near 1.2M gates. The MSB cones span the whole
/// input vector, so supports grow linearly across the outputs.
aig::Aig epfl_adder(int bits);

/// bits x bits multiplier summing the partial-product rows with a
/// balanced tree of ripple adders (Wallace-style reduction shape).
/// Roughly 11 * bits^2 ANDs: bits = 96 is ~10^5, bits = 300 is ~10^6.
aig::Aig epfl_multiplier(int bits);

/// Logarithmic barrel shifter: data[width] << amount[log2 width], zeros
/// shifted in. width must be a power of two. Roughly 3 * width * log2
/// width ANDs: width = 4096 is ~1.5e5, width = 32768 is ~1.4e6.
aig::Aig epfl_barrel_shifter(int width);

/// 2^sel_bits-to-1 multiplexer over fresh data inputs — one output whose
/// cone is the entire circuit. Roughly 3 * 2^sel_bits ANDs: sel_bits = 15
/// is ~10^5, sel_bits = 18 is ~8e5.
aig::Aig epfl_mux(int sel_bits);

/// addr_bits-to-2^addr_bits one-hot decoder with enable — the many-small-
/// cones extreme (every output is an (addr_bits+1)-literal AND sharing
/// prefixes with its neighbours). Roughly 2^(addr_bits+1) ANDs:
/// addr_bits = 16 is ~1.3e5 ANDs across 65536 outputs.
aig::Aig epfl_decoder(int addr_bits);

/// One deliberately giant cone (an `giant_support`-input majority-of-
/// parities tower) merged with `n_small` independent random cones of
/// `small_support` inputs each, the giant cone last in PO order: one
/// outlier among many small cones.
aig::Aig giant_cone_suite(int giant_support, int n_small, int small_support,
                          std::uint64_t seed);

/// A named large circuit of the scaling suite.
struct LargeCircuit {
  std::string name;
  aig::Aig aig;
};

/// The standard large-circuit suite, each member sized to land within a
/// small factor of `target_gates` AND gates (clamped to sane generator
/// parameter ranges). Deterministic: same target, same circuits.
std::vector<LargeCircuit> large_suite(std::uint64_t target_gates);

}  // namespace step::benchgen
