#pragma once

#include <memory>
#include <vector>

#include "core/dec_cache.h"
#include "core/decomposer.h"

namespace step::core {

/// Recursive bi-decomposition synthesis — the application that motivates
/// bi-decomposition in the paper's introduction (multi-level logic
/// synthesis / FPGA mapping): each PO function is rewritten as a tree of
/// two-input OR/AND/XOR gates by decomposing recursively until cones are
/// trivial or undecomposable. Because a non-trivial partition keeps
/// |XA ∪ XC| and |XB ∪ XC| strictly below |X|, the recursion terminates.
///
/// Partition quality drives the structure: disjoint partitions (QD/QDB)
/// reduce fanout sharing between the branches, balanced partitions
/// (QB/QDB) keep the gate tree shallow — which is precisely the paper's
/// argument for optimising εD and εB.
///
/// Every recursion node first drops semantically irrelevant inputs (see
/// core/reduce.h), which tightens the cache key and exposes
/// constant/literal leaves. The recursion produces explicit DecTree
/// objects (core/dec_tree.h) and can be backed by a shared cache keyed by
/// exact truth tables (core/dec_cache.h) so repeated cones of at most
/// aig::kTtMaxSupport inputs, across POs and recursion levels, decompose
/// once per run.
struct SynthesisOptions {
  /// Partition engine used at every recursion node.
  Engine engine = Engine::kQbfCombined;
  /// Gates tried at each node, in preference order. Each op is searched
  /// with extraction off; fA/fB are extracted and verified only for the
  /// op the node keeps (BiDecomposer::extract_and_verify), and an op whose
  /// verification fails gives way to the next candidate.
  std::vector<GateOp> ops = {GateOp::kOr, GateOp::kAnd, GateOp::kXor};
  /// Search every op and keep the first that verifies in order of combined
  /// cost (|XC| + imbalance), ties to the earlier op, instead of the first
  /// op found.
  bool pick_best_op = false;
  /// Stop recursing below this support size (a 2-input function is a gate).
  int leaf_support = 2;
  /// Hard recursion depth cap (safety; the support shrink bounds it too).
  int max_depth = 32;
  /// Shared decomposition cache; nullptr disables caching. The cache is
  /// thread-safe, so one instance may serve concurrent PO workers.
  DecCache* cache = nullptr;
  /// Don't-care-aware recursion: every split hands its children the
  /// parent's care set restricted by the sibling's observability
  /// don't-cares (under f = fA OR fB, fA may change wherever fB is 1),
  /// sub-functions constant on their care set collapse to constant
  /// leaves, and per-node validity/extraction/verification run on the
  /// care set. The tree still replays to a function exactly equivalent at
  /// the root (whose care is full), so whole-netlist verification is
  /// unaffected. Cache entries are only *written* by exactly-specified
  /// nodes — an exact tree serves any care set, but not vice versa.
  bool use_dont_cares = false;
  /// Per-decomposition options (budgets etc.).
  DecomposeOptions per_node;
};

struct SynthesisStats {
  int pos_processed = 0;
  int decompositions = 0;    ///< gates introduced by bi-decomposition
  int leaves = 0;            ///< cones/literals/constants emitted verbatim
  int undecomposable = 0;    ///< leaves forced by failed decomposition
  int cache_hits = 0;        ///< recursion nodes served by the cache
  int dc_nodes = 0;          ///< nodes decomposed under a non-trivial care
  int dc_constants = 0;      ///< sub-functions constant on their care set
  std::uint32_t ands_before = 0, ands_after = 0;
  int depth_before = 0, depth_after = 0;

  SynthesisStats& operator+=(const SynthesisStats& o);
};

struct SynthesisResult {
  aig::Aig network;  ///< same PIs/POs as the input circuit
  SynthesisStats stats;
  /// Per-PO decomposition trees (aligned with the circuit's POs).
  std::vector<std::shared_ptr<const DecTree>> trees;
};

/// Recursively bi-decomposes one cone (inputs == support) into an explicit
/// tree, consulting and populating `opts.cache` at every non-trivial node.
/// When `deadline` expires mid-recursion, remaining sub-cones are emitted
/// as verbatim leaves — the result is always functionally complete. A
/// non-trivial `care` (e.g. an SDC window's) makes the tree correct on the
/// care minterms only; it requires `opts.use_dont_cares`.
std::shared_ptr<const DecTree> decompose_to_tree(
    const Cone& cone, const SynthesisOptions& opts,
    SynthesisStats* stats = nullptr, const Deadline* deadline = nullptr,
    const CareSet* care = nullptr);

/// SAT miter: the tree replays to a function equivalent to `cone` — on
/// every care minterm when `care` is non-trivial, everywhere otherwise.
bool tree_equivalent(const Cone& cone, const DecTree& tree,
                     const CareSet* care = nullptr);

/// Rewrites every PO of `circuit` by recursive bi-decomposition: a serial,
/// unbudgeted, unverified run_circuit_resynth (core/circuit_driver.h; it is
/// defined in circuit_driver.cpp). The result is functionally equivalent
/// (tests verify by miter).
SynthesisResult resynthesize(const aig::Aig& circuit,
                             const SynthesisOptions& opts = {});

/// Longest path (in AND gates) from any input to `root`. Visits only the
/// cone of `root`.
int cone_depth(const aig::Aig& a, aig::Lit root);

/// Level of every node (indexed by node id): the longest AND path from an
/// input, in one sweep. Per-PO depths of a whole circuit read this once
/// instead of calling cone_depth per output.
std::vector<int> node_levels(const aig::Aig& a);

}  // namespace step::core
