#pragma once

#include <memory>
#include <vector>

#include "core/bidec_types.h"

namespace step::core {

struct DecTree;

/// One node of an explicit decomposition tree. Leaf kinds terminate the
/// recursion (constants, literals, verbatim cones); kGate is one
/// bi-decomposition step f = child0 <op> child1; kShared grafts a whole
/// sub-tree owned elsewhere — either a recursion result over a reduced
/// support or an NPN-rewired tree served by the decomposition cache — so
/// identical cones share one tree object instead of being copied.
struct DecTreeNode {
  enum class Kind : std::uint8_t { kConst, kLiteral, kGate, kCone, kShared };

  Kind kind = Kind::kConst;

  // kConst -------------------------------------------------------------
  bool value = false;

  // kLiteral ------------------------------------------------------------
  int input = 0;         ///< support position of the owning tree
  bool negated = false;

  // kGate ---------------------------------------------------------------
  GateOp op = GateOp::kOr;
  int child0 = -1, child1 = -1;  ///< node indices within the owning tree

  // kCone ---------------------------------------------------------------
  aig::Aig cone_aig;                  ///< verbatim sub-function
  aig::Lit cone_root = aig::kLitFalse;

  // kCone and kShared ---------------------------------------------------
  /// Wiring: input i of the cone / of the shared tree reads support
  /// position inputs[i] of the owning tree.
  std::vector<int> inputs;

  // kShared -------------------------------------------------------------
  std::shared_ptr<const DecTree> shared;
  std::uint32_t input_neg = 0;   ///< bit i: complement shared input i
  bool output_neg = false;       ///< complement the shared tree's output
};

/// Size/shape summary of a tree (transitively through kShared nodes).
struct DecTreeStats {
  int gates = 0;           ///< kGate nodes = bi-decomposition splits
  int cone_leaves = 0;     ///< sub-functions emitted verbatim
  int literal_leaves = 0;
  int const_leaves = 0;
  std::uint32_t cone_ands = 0;  ///< AND gates inside verbatim cone leaves
  int depth = 0;           ///< gate levels; cone leaves count their AND depth

  /// Area in two-input gates: one per tree gate plus the AND gates of
  /// verbatim leaves.
  std::uint32_t area() const {
    return static_cast<std::uint32_t>(gates) + cone_ands;
  }
};

/// Explicit recursive bi-decomposition tree of one function over support
/// positions 0..n-1. Produced by decompose_to_tree() (core/synthesis.h),
/// cached by DecCache (per NPN class up to 6 inputs, per truth table up to
/// 16), and replayed into a netlist with emit_tree().
struct DecTree {
  int n = 0;              ///< support size of the decomposed function
  std::vector<DecTreeNode> nodes;
  int root = -1;

  int add(DecTreeNode node) {
    nodes.push_back(std::move(node));
    return static_cast<int>(nodes.size()) - 1;
  }

  DecTreeStats stats() const;
};

/// Replays the tree into `dst`: input_map[i] is the dst literal driving
/// support position i (complemented literals and constants are fine).
/// Returns the dst literal computing the tree's function.
aig::Lit emit_tree(const DecTree& t, aig::Aig& dst,
                   const std::vector<aig::Lit>& input_map);

}  // namespace step::core
