#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "benchgen/generators.h"
#include "io/aiger.h"
#include "io/io_error.h"
#include "io/pla_reader.h"

namespace step::io {
namespace {

// ---------- PLA ------------------------------------------------------------------

TEST(PlaReader, ParsesTwoOutputPla) {
  const Network net = parse_pla(
      ".i 3\n.o 2\n.ilb a b c\n.ob f g\n.p 3\n"
      "1-0 10\n-11 11\n001 01\n.e\n");
  EXPECT_EQ(net.inputs, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(net.outputs, (std::vector<std::string>{"f", "g"}));
  const aig::Aig a = net.to_aig();
  // f = a¬c | bc ; g = bc | ¬a¬bc.
  for (int m = 0; m < 8; ++m) {
    const bool av = m & 1, bv = m & 2, cv = m & 4;
    const bool f = (av && !cv) || (bv && cv);
    const bool g = (bv && cv) || (!av && !bv && cv);
    std::vector<std::uint64_t> stim{av ? ~0ULL : 0, bv ? ~0ULL : 0,
                                    cv ? ~0ULL : 0};
    const auto out = aig::simulate(a, stim);
    EXPECT_EQ((out[0] & 1) != 0, f) << m;
    EXPECT_EQ((out[1] & 1) != 0, g) << m;
  }
}

TEST(PlaReader, DefaultNamesAndComments) {
  const Network net = parse_pla("# header comment\n.i 2\n.o 1\n11 1\n.e\n");
  EXPECT_EQ(net.inputs[0], "in0");
  EXPECT_EQ(net.outputs[0], "out0");
  const aig::Aig a = net.to_aig();
  const auto out = aig::simulate(a, {0b0101, 0b0011});
  EXPECT_EQ(out[0] & 0xf, 0b0001u);
}

TEST(PlaReader, TildeAndDashOutputsIgnored) {
  const Network net = parse_pla(".i 1\n.o 2\n1 1~\n0 -1\n.e\n");
  const aig::Aig a = net.to_aig();
  const auto out = aig::simulate(a, {0b01});
  EXPECT_EQ(out[0] & 0b11, 0b01u);  // f = x
  EXPECT_EQ(out[1] & 0b11, 0b10u);  // g = !x
}

TEST(PlaReader, RejectsMalformedInput) {
  EXPECT_THROW(parse_pla(".o 1\n1 1\n.e\n"), std::runtime_error);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n1 1\n.e\n"), std::runtime_error);
  EXPECT_THROW(parse_pla(".i 1\n.o 1\n2 1\n.e\n"), std::runtime_error);
  EXPECT_THROW(parse_pla(".i 1\n.o 1\n.type r\n1 1\n.e\n"), std::runtime_error);
}

TEST(PlaReader, DecomposablePlaEndToEnd) {
  // Cubes over {a0,a1} and {b0,b1}: OR bi-decomposable disjointly.
  const Network net = parse_pla(
      ".i 4\n.o 1\n.ilb a0 a1 b0 b1\n.ob f\n"
      "11-- 1\n--11 1\n10-- 1\n.e\n");
  const aig::Aig a = net.to_aig();
  EXPECT_EQ(a.num_outputs(), 1u);
  EXPECT_EQ(a.num_inputs(), 4u);
}

// ---------- AIGER ----------------------------------------------------------------

TEST(Aiger, ParsesHandWrittenAndGate) {
  // f = x & !y
  const aig::Aig a = parse_aiger(
      "aag 3 2 0 1 1\n2\n4\n6\n6 2 5\ni0 x\ni1 y\no0 f\n");
  ASSERT_EQ(a.num_inputs(), 2u);
  ASSERT_EQ(a.num_outputs(), 1u);
  EXPECT_EQ(a.input_name(0), "x");
  EXPECT_EQ(a.output_name(0), "f");
  const auto out = aig::simulate(a, {0b0101, 0b0011});
  EXPECT_EQ(out[0] & 0xf, 0b0100u);
}

TEST(Aiger, ComplementedOutput) {
  const aig::Aig a = parse_aiger("aag 1 1 0 1 0\n2\n3\n");  // f = !x
  const auto out = aig::simulate(a, {0b01});
  EXPECT_EQ(out[0] & 0b11, 0b10u);
}

TEST(Aiger, ConstantOutputs) {
  const aig::Aig a = parse_aiger("aag 0 0 0 2 0\n0\n1\n");
  const auto out = aig::simulate(a, {});
  EXPECT_EQ(out[0], 0ULL);
  EXPECT_EQ(out[1], ~0ULL);
}

TEST(Aiger, LatchesAreCutCombinationally) {
  // One latch: q' = q ^ en  (xor via three ands), output = q.
  const aig::Aig a = parse_aiger(
      "aag 5 1 1 1 3\n2\n4 10\n4\n6 2 4\n8 3 5\n10 7 9\n"
      "i0 en\nl0 q\n");
  ASSERT_EQ(a.num_inputs(), 2u);   // en + q
  ASSERT_EQ(a.num_outputs(), 2u);  // o0 + q_next
  EXPECT_EQ(a.input_name(1), "q");
  EXPECT_EQ(a.output_name(1), "q_next");
  const auto out = aig::simulate(a, {0b0101, 0b0011});
  EXPECT_EQ(out[0] & 0xf, 0b0011u);  // q passthrough
  EXPECT_EQ(out[1] & 0xf, 0b0110u);  // q ^ en
}

TEST(Aiger, RoundTripPreservesFunction) {
  const std::vector<aig::Aig> circuits = {
      benchgen::ripple_adder(4), benchgen::priority_encoder(5),
      benchgen::array_multiplier(3), benchgen::barrel_rotator(4)};
  for (const aig::Aig& a : circuits) {
    const aig::Aig b = parse_aiger(write_aiger(a));
    ASSERT_EQ(a.num_inputs(), b.num_inputs());
    ASSERT_EQ(a.num_outputs(), b.num_outputs());
    std::vector<std::uint64_t> stim(a.num_inputs());
    std::uint64_t x = 0xc0ffee123456789ULL;
    for (auto& w : stim) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
    EXPECT_EQ(aig::simulate(a, stim), aig::simulate(b, stim));
    // Names survive the round trip.
    EXPECT_EQ(a.input_name(0), b.input_name(0));
    EXPECT_EQ(a.output_name(0), b.output_name(0));
  }
}

TEST(Aiger, RejectsBadInput) {
  EXPECT_THROW(parse_aiger("aig 1 1 0 0 0\n2\n"), std::runtime_error);
  EXPECT_THROW(parse_aiger("aag 1 1 0 1 0\n3\n2\n"), std::runtime_error);  // odd input
  EXPECT_THROW(parse_aiger("aag 2 1 0 1 0\n2\n9\n"), std::runtime_error);  // range
  EXPECT_THROW(parse_aiger("aag 2 1 0 1 1\n2\n4\n4 4 2\n"),
               std::runtime_error);  // cyclic/self
}

TEST(Aiger, DanglingAndsAreCheckedButNotBuilt) {
  // AND 4 reaches no output: well-formed, it is left out of the AIG...
  const aig::Aig a = parse_aiger("aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n8 2 5\n");
  EXPECT_EQ(a.num_ands(), 1u);
  // ...but an undefined fanin or a cycle there still rejects the file.
  EXPECT_THROW(parse_aiger("aag 5 2 0 1 2\n2\n4\n6\n6 2 4\n8 2 10\n"),
               IoError);
  EXPECT_THROW(parse_aiger("aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n8 8 2\n"),
               IoError);
}

TEST(Aiger, OutOfOrderAndsResolve) {
  // AND 8 references AND 6 defined after it in the file.
  const aig::Aig a = parse_aiger("aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 2 4\n");
  const auto out = aig::simulate(a, {0b0101, 0b0011});
  EXPECT_EQ(out[0] & 0xf, 0b0001u);  // (x&y)&x = x&y
}

}  // namespace
}  // namespace step::io
