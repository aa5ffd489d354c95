#include "core/dec_tree.h"

#include <algorithm>

#include "aig/ops.h"
#include "core/synthesis.h"

namespace step::core {

namespace {

/// Accumulates stats over node `idx`; returns the node's depth.
int stats_walk(const DecTree& t, int idx, DecTreeStats& s) {
  const DecTreeNode& node = t.nodes[idx];
  switch (node.kind) {
    case DecTreeNode::Kind::kConst:
      ++s.const_leaves;
      return 0;
    case DecTreeNode::Kind::kLiteral:
      ++s.literal_leaves;
      return 0;
    case DecTreeNode::Kind::kGate: {
      ++s.gates;
      const int d0 = stats_walk(t, node.child0, s);
      const int d1 = stats_walk(t, node.child1, s);
      return 1 + std::max(d0, d1);
    }
    case DecTreeNode::Kind::kCone:
      ++s.cone_leaves;
      s.cone_ands += node.cone_aig.cone_size(node.cone_root);
      return cone_depth(node.cone_aig, node.cone_root);
    case DecTreeNode::Kind::kShared: {
      DecTreeStats sub = node.shared->stats();
      s.gates += sub.gates;
      s.cone_leaves += sub.cone_leaves;
      s.literal_leaves += sub.literal_leaves;
      s.const_leaves += sub.const_leaves;
      s.cone_ands += sub.cone_ands;
      return sub.depth;
    }
  }
  return 0;
}

aig::Lit emit_node(const DecTree& t, int idx, aig::Aig& dst,
                   const std::vector<aig::Lit>& input_map) {
  const DecTreeNode& node = t.nodes[idx];
  switch (node.kind) {
    case DecTreeNode::Kind::kConst:
      return node.value ? aig::kLitTrue : aig::kLitFalse;
    case DecTreeNode::Kind::kLiteral: {
      const aig::Lit l = input_map[node.input];
      return node.negated ? aig::lnot(l) : l;
    }
    case DecTreeNode::Kind::kGate: {
      const aig::Lit a = emit_node(t, node.child0, dst, input_map);
      const aig::Lit b = emit_node(t, node.child1, dst, input_map);
      switch (node.op) {
        case GateOp::kOr: return dst.lor(a, b);
        case GateOp::kAnd: return dst.land(a, b);
        case GateOp::kXor: return dst.lxor(a, b);
      }
      return aig::kLitFalse;
    }
    case DecTreeNode::Kind::kCone: {
      std::vector<aig::Lit> map(node.inputs.size());
      for (std::size_t i = 0; i < node.inputs.size(); ++i) {
        map[i] = input_map[node.inputs[i]];
      }
      return aig::copy_cone(node.cone_aig, node.cone_root, dst, map);
    }
    case DecTreeNode::Kind::kShared: {
      std::vector<aig::Lit> map(node.inputs.size());
      for (std::size_t i = 0; i < node.inputs.size(); ++i) {
        map[i] = input_map[node.inputs[i]];
        // input_neg only carries bits for NPN-cache hits (n <= 6); wider
        // shared nodes must not shift past the mask width (UB).
        if (i < 32 && ((node.input_neg >> i) & 1U) != 0) {
          map[i] = aig::lnot(map[i]);
        }
      }
      const aig::Lit l = emit_tree(*node.shared, dst, map);
      return node.output_neg ? aig::lnot(l) : l;
    }
  }
  return aig::kLitFalse;
}

}  // namespace

DecTreeStats DecTree::stats() const {
  DecTreeStats s;
  if (root >= 0) s.depth = stats_walk(*this, root, s);
  return s;
}

aig::Lit emit_tree(const DecTree& t, aig::Aig& dst,
                   const std::vector<aig::Lit>& input_map) {
  STEP_CHECK(t.root >= 0);
  STEP_CHECK(static_cast<int>(input_map.size()) >= t.n);
  return emit_node(t, t.root, dst, input_map);
}

}  // namespace step::core
