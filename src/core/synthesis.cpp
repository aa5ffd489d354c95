#include "core/synthesis.h"

#include <algorithm>
#include <unordered_map>

#include "aig/ops.h"
#include "aig/simulate.h"
#include "core/reduce.h"

namespace step::core {

namespace {

/// Builds DecTrees bottom-up; one instance per decompose_to_tree call.
struct TreeBuilder {
  const SynthesisOptions& opts;
  SynthesisStats* stats;
  const Deadline* deadline;

  void count_leaf() {
    if (stats != nullptr) ++stats->leaves;
  }

  bool expired() const { return deadline != nullptr && deadline->expired(); }

  std::shared_ptr<const DecTree> make_cone_leaf(const Cone& cone) {
    count_leaf();
    DecTree t;
    t.n = cone.n();
    DecTreeNode node;
    node.kind = DecTreeNode::Kind::kCone;
    node.cone_aig = cone.aig;
    node.cone_root = cone.root;
    node.inputs.resize(cone.n());
    for (int i = 0; i < cone.n(); ++i) node.inputs[i] = i;
    t.root = t.add(std::move(node));
    return std::make_shared<const DecTree>(std::move(t));
  }

  std::shared_ptr<const DecTree> make_const_leaf(bool value) {
    count_leaf();
    DecTree t;
    t.n = 0;
    DecTreeNode node;
    node.kind = DecTreeNode::Kind::kConst;
    node.value = value;
    t.root = t.add(std::move(node));
    return std::make_shared<const DecTree>(std::move(t));
  }

  std::shared_ptr<const DecTree> make_literal_leaf(bool negated) {
    count_leaf();
    DecTree t;
    t.n = 1;
    DecTreeNode node;
    node.kind = DecTreeNode::Kind::kLiteral;
    node.input = 0;
    node.negated = negated;
    t.root = t.add(std::move(node));
    return std::make_shared<const DecTree>(std::move(t));
  }

  /// Entry point per cone: reduces the support first so the core
  /// decomposition (and the cache key) sees only relevant inputs. The
  /// care set follows the reduction through existential projection; when
  /// the projection is over budget the child proceeds exactly (sound).
  std::shared_ptr<const DecTree> build(const Cone& cone, const CareSet* care,
                                       int depth) {
    if (!opts.use_dont_cares || care_is_trivial(care)) care = nullptr;
    if (opts.reduce_supports && cone.n() > 0 && !expired()) {
      std::vector<std::uint32_t> kept;
      const Cone reduced = reduce_cone(cone, &kept);
      if (static_cast<int>(kept.size()) < cone.n()) {
        std::optional<CareSet> proj;
        if (care != nullptr) {
          proj = care_project(*care, kept, opts.max_care_project);
        }
        auto sub = build_core(reduced, proj ? &*proj : nullptr, depth);
        DecTree t;
        t.n = cone.n();
        DecTreeNode node;
        node.kind = DecTreeNode::Kind::kShared;
        node.shared = std::move(sub);
        node.inputs.assign(kept.begin(), kept.end());
        t.root = t.add(std::move(node));
        return std::make_shared<const DecTree>(std::move(t));
      }
    }
    return build_core(cone, care, depth);
  }

  /// Decomposes a support-tight cone, correct on `care` (exact when null).
  std::shared_ptr<const DecTree> build_core(const Cone& cone,
                                            const CareSet* care, int depth) {
    const int n = cone.n();
    if (n == 0) {
      const bool v = (aig::simulate_cone(cone.aig, cone.root, {}) & 1ULL) != 0;
      return make_const_leaf(v);
    }
    if (n == 1) {
      const bool v0 =
          (aig::simulate_cone(cone.aig, cone.root, {0ULL}) & 1ULL) != 0;
      const bool v1 =
          (aig::simulate_cone(cone.aig, cone.root, {~0ULL}) & 1ULL) != 0;
      if (v0 == v1) return make_const_leaf(v0);
      return make_literal_leaf(/*negated=*/v0);
    }
    // Sibling ODCs routinely pin whole sub-functions: constant-on-care
    // cones collapse before any decomposition or cache traffic.
    if (care != nullptr && !expired()) {
      if (std::optional<bool> v = constant_on_care(cone, *care)) {
        if (stats != nullptr) ++stats->dc_constants;
        return make_const_leaf(*v);
      }
    }
    if (n <= opts.leaf_support || depth >= opts.max_depth || expired()) {
      return make_cone_leaf(cone);
    }

    DecCacheKey key;
    if (opts.cache != nullptr) {
      // Exact entries are correct on any care set, so lookups always
      // serve; insertion below is gated on exactness.
      if (auto hit = opts.cache->lookup(cone, &key)) {
        if (stats != nullptr) ++stats->cache_hits;
        DecTree t;
        t.n = n;
        DecTreeNode node;
        node.kind = DecTreeNode::Kind::kShared;
        node.shared = hit->tree;
        node.inputs.assign(hit->map.var.begin(), hit->map.var.end());
        node.input_neg = hit->map.neg;
        node.output_neg = hit->map.output_neg;
        t.root = t.add(std::move(node));
        return std::make_shared<const DecTree>(std::move(t));
      }
    }

    // Pick a gate and a partition.
    bool have = false;
    GateOp best_op = GateOp::kOr;
    DecomposeResult best;
    for (GateOp op : opts.ops) {
      if (expired()) break;
      DecomposeOptions dopts = opts.per_node;
      dopts.op = op;
      dopts.engine = opts.engine;
      dopts.extract = true;
      if (deadline != nullptr) {
        dopts.po_budget_s =
            std::min(dopts.po_budget_s, deadline->remaining_s());
      }
      DecomposeResult r = BiDecomposer(dopts).decompose(cone, care);
      if (r.status != DecomposeStatus::kDecomposed) continue;
      if (!have || metric_cost(r.metrics, MetricKind::kSum) <
                       metric_cost(best.metrics, MetricKind::kSum)) {
        have = true;
        best_op = op;
        best = std::move(r);
      }
      if (!opts.pick_best_op) break;
    }
    if (!have) {
      if (stats != nullptr) ++stats->undecomposable;
      return make_cone_leaf(cone);
    }
    if (stats != nullptr) {
      ++stats->decompositions;
      if (care != nullptr) ++stats->dc_nodes;
    }

    // Recurse into fA and fB: each is re-extracted as a standalone cone so
    // its inputs are exactly its own (structural) support. In DC mode each
    // child inherits the parent care restricted by its sibling's
    // observability don't-cares (see child_care).
    const ExtractedFunctions& fns = *best.functions;
    DecTree t;
    t.n = n;
    auto recurse = [&](aig::Lit f, int child) {
      Cone sub;
      std::vector<std::uint32_t> used;
      std::vector<aig::Lit> created;
      sub.root = aig::extract_cone(fns.aig, f, sub.aig, used, created);
      std::optional<CareSet> sub_care;
      if (opts.use_dont_cares) {
        const CareSet full =
            child_care(care, fns.aig, fns.fa, fns.fb, best_op, child, n);
        if (!full.trivial()) {
          sub_care = care_project(full, used, opts.max_care_project);
        }
      }
      DecTreeNode node;
      node.kind = DecTreeNode::Kind::kShared;
      node.shared = build(sub, sub_care ? &*sub_care : nullptr, depth + 1);
      node.inputs.assign(used.begin(), used.end());
      return t.add(std::move(node));
    };
    DecTreeNode gate;
    gate.kind = DecTreeNode::Kind::kGate;
    gate.op = best_op;
    gate.child0 = recurse(fns.fa, 0);
    gate.child1 = recurse(fns.fb, 1);
    t.root = t.add(std::move(gate));
    auto result = std::make_shared<const DecTree>(std::move(t));
    // A tree built under don't-cares only matches its cone on the care
    // set; caching it would corrupt later exact (or differently-cared)
    // lookups of the same function, so only exact nodes insert.
    if (opts.cache != nullptr && care == nullptr) {
      opts.cache->insert(cone, key, DecTree(*result));
    }
    return result;
  }
};

}  // namespace

SynthesisStats& SynthesisStats::operator+=(const SynthesisStats& o) {
  pos_processed += o.pos_processed;
  decompositions += o.decompositions;
  leaves += o.leaves;
  undecomposable += o.undecomposable;
  cache_hits += o.cache_hits;
  dc_nodes += o.dc_nodes;
  dc_constants += o.dc_constants;
  ands_before += o.ands_before;
  ands_after += o.ands_after;
  depth_before = std::max(depth_before, o.depth_before);
  depth_after = std::max(depth_after, o.depth_after);
  return *this;
}

std::shared_ptr<const DecTree> decompose_to_tree(const Cone& cone,
                                                 const SynthesisOptions& opts,
                                                 SynthesisStats* stats,
                                                 const Deadline* deadline,
                                                 const CareSet* care) {
  TreeBuilder builder{opts, stats, deadline};
  return builder.build(cone, care, 0);
}

bool tree_equivalent(const Cone& cone, const DecTree& tree,
                     const CareSet* care) {
  Cone replay;
  std::vector<aig::Lit> inputs(cone.n());
  for (int i = 0; i < cone.n(); ++i) inputs[i] = replay.aig.add_input();
  replay.root = emit_tree(tree, replay.aig, inputs);
  return cones_equivalent_on_care(cone, replay, care);
}

int cone_depth(const aig::Aig& a, aig::Lit root) {
  // Memoized post-order walk over the cone of `root` alone, so one call on
  // a large circuit costs O(cone), not a sweep of every node.
  std::unordered_map<std::uint32_t, int> level;
  auto level_of = [&](std::uint32_t n) {
    if (!a.is_and(n)) return 0;
    const auto it = level.find(n);
    return it == level.end() ? -1 : it->second;
  };
  std::vector<std::uint32_t> stack{aig::node_of(root)};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    if (level_of(n) >= 0) {
      stack.pop_back();
      continue;
    }
    const std::uint32_t c0 = aig::node_of(a.fanin0(n));
    const std::uint32_t c1 = aig::node_of(a.fanin1(n));
    const int l0 = level_of(c0);
    const int l1 = level_of(c1);
    if (l0 >= 0 && l1 >= 0) {
      level.emplace(n, 1 + std::max(l0, l1));
      stack.pop_back();
      continue;
    }
    if (l0 < 0) stack.push_back(c0);
    if (l1 < 0) stack.push_back(c1);
  }
  return level_of(aig::node_of(root));
}

std::vector<int> node_levels(const aig::Aig& a) {
  std::vector<int> level(a.num_nodes(), 0);
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (!a.is_and(n)) continue;
    level[n] = 1 + std::max(level[aig::node_of(a.fanin0(n))],
                            level[aig::node_of(a.fanin1(n))]);
  }
  return level;
}

SynthesisResult resynthesize(const aig::Aig& circuit,
                             const SynthesisOptions& opts) {
  SynthesisResult result;
  aig::Aig& dst = result.network;
  SynthesisStats& st = result.stats;

  std::vector<aig::Lit> pi_map(circuit.num_inputs());
  for (std::uint32_t i = 0; i < circuit.num_inputs(); ++i) {
    pi_map[i] = dst.add_input(circuit.input_name(i));
  }

  const std::vector<int> level_before = node_levels(circuit);
  for (std::uint32_t po = 0; po < circuit.num_outputs(); ++po) {
    std::vector<std::uint32_t> orig_inputs;
    const Cone cone = extract_po_cone(circuit, po, &orig_inputs);
    st.depth_before = std::max(
        st.depth_before, level_before[aig::node_of(circuit.output(po))]);
    ++st.pos_processed;

    auto tree = decompose_to_tree(cone, opts, &st);
    std::vector<aig::Lit> dst_inputs(orig_inputs.size());
    for (std::size_t i = 0; i < orig_inputs.size(); ++i) {
      dst_inputs[i] = pi_map[orig_inputs[i]];
    }
    const aig::Lit out = emit_tree(*tree, dst, dst_inputs);
    dst.add_output(out, circuit.output_name(po));
    result.trees.push_back(std::move(tree));
  }
  const std::vector<int> level_after = node_levels(dst);
  for (std::uint32_t po = 0; po < dst.num_outputs(); ++po) {
    st.depth_after =
        std::max(st.depth_after, level_after[aig::node_of(dst.output(po))]);
  }

  st.ands_before = circuit.num_ands();
  st.ands_after = dst.num_ands();
  return result;
}

}  // namespace step::core
