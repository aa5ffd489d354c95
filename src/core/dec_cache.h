#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/resource.h"
#include "common/thread_annotations.h"
#include "core/dec_tree.h"
#include "core/npn.h"

namespace step::core {

struct DecCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t npn_hits = 0;  ///< every hit (all keys are exact tables)
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  /// Always 0. Kept only because stepbench reads them; they go with the
  /// next benchmark change.
  std::uint64_t sig_hits = 0;
  std::uint64_t sat_confirms = 0;

  std::uint64_t hits() const { return npn_hits; }
  double hit_rate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits()) / lookups;
  }
};

/// A cache hit: `tree` decomposes a function NPN-equivalent to the query;
/// `map` rewires it (tree support position i reads query support position
/// map.var[i], complemented per map.neg, output complemented per
/// map.output_neg). Hits on cones wider than kNpnMaxSupport carry the
/// identity map.
struct DecCacheHit {
  std::shared_ptr<const DecTree> tree;
  NpnVarMap map;
};

/// Opaque token carrying the canonicalization work done by lookup() so a
/// following insert() of the freshly decomposed cone does not repeat it.
struct DecCacheKey {
  int n = 0;
  TruthTable canon_tt;
  NpnTransform canon_to_fn;
};

/// Thread-safe memo of decomposition trees, shared across the POs (and
/// worker threads) of a circuit run so equivalent cones are decomposed
/// once. Every key is an exact truth table:
///   - n <= kNpnMaxSupport: the NPN-canonical table, so NPN-equivalent
///     cones share one tree (rewired on a hit);
///   - n <= aig::kTtMaxSupport: the cone's own table (identity rewiring);
///   - wider cones are not cached.
class DecCache {
 public:
  /// Looks up a tree for `cone` (whose inputs are exactly its support).
  /// When `key` is non-null it receives the token to pass to insert().
  std::optional<DecCacheHit> lookup(const Cone& cone,
                                    DecCacheKey* key = nullptr);

  /// Stores `tree` (a decomposition of `cone`) under `key` as obtained
  /// from lookup() on the same cone. First insertion per key wins; a cone
  /// wider than aig::kTtMaxSupport is not stored.
  void insert(const Cone& cone, const DecCacheKey& key, DecTree tree);

  DecCacheStats stats() const;
  std::size_t size() const;
  void clear();

  /// Resource-governor hook: insertions charge an entry-size estimate to
  /// `tracker` (the *run* account — the cache is shared across cones);
  /// clear() refunds it. The tracker must outlive the cache's last use.
  void set_mem_tracker(MemTracker* tracker);

 private:
  struct TtKey {
    int n = 0;
    TruthTable tt;
    bool operator==(const TtKey&) const = default;
  };
  struct TtKeyHash {
    std::size_t operator()(const TtKey& k) const {
      std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(k.n);
      for (std::uint64_t w : k.tt) {
        h ^= w;
        h *= 0x100000001b3ULL;
      }
      return static_cast<std::size_t>(h);
    }
  };
  struct NpnEntry {
    std::shared_ptr<const DecTree> tree;
    /// Instantiates the canonical tt as the stored function.
    NpnTransform canon_to_fn;
  };

  /// Negative-compile harness (tests/negative/thread_safety_negative.cpp):
  /// proves that an unguarded access to a STEP_GUARDED_BY field below
  /// fails the clang thread-safety build, so the annotations cannot rot.
  friend struct DecCacheTsaProbe;

  mutable Mutex mu_;
  std::unordered_map<TtKey, NpnEntry, TtKeyHash> npn_map_ STEP_GUARDED_BY(mu_);
  DecCacheStats stats_ STEP_GUARDED_BY(mu_);
  MemTracker* mem_tracker_ STEP_GUARDED_BY(mu_) = nullptr;
  std::size_t charged_bytes_ STEP_GUARDED_BY(mu_) = 0;
};

}  // namespace step::core
