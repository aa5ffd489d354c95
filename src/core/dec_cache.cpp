#include "core/dec_cache.h"

#include "aig/simulate.h"

namespace step::core {

std::optional<DecCacheHit> DecCache::lookup(const Cone& cone,
                                            DecCacheKey* key) {
  const int n = cone.n();
  DecCacheKey local;
  DecCacheKey& k = key != nullptr ? *key : local;
  k = DecCacheKey{};
  k.n = n;
  const bool cached = n <= aig::kTtMaxSupport;
  if (cached) {
    std::vector<std::uint32_t> support(n);
    for (int i = 0; i < n; ++i) support[i] = static_cast<std::uint32_t>(i);
    TruthTable tt = aig::truth_table(cone.aig, cone.root, support);
    if (n <= kNpnMaxSupport) {
      NpnCanonical canon = npn_canonicalize(tt, n);
      k.canon_tt = std::move(canon.tt);
      k.canon_to_fn = std::move(canon.transform);
    } else {
      k.canon_tt = std::move(tt);
      k.canon_to_fn = npn_identity(n);
    }
  }

  MutexLock lock(mu_);
  ++stats_.lookups;
  const auto it =
      cached ? npn_map_.find(TtKey{n, k.canon_tt}) : npn_map_.end();
  if (it == npn_map_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.npn_hits;
  return DecCacheHit{it->second.tree,
                     npn_compose(it->second.canon_to_fn, k.canon_to_fn)};
}

void DecCache::set_mem_tracker(MemTracker* tracker) {
  MutexLock lock(mu_);
  if (mem_tracker_ != nullptr && charged_bytes_ > 0) {
    mem_tracker_->release(charged_bytes_);
    charged_bytes_ = 0;
  }
  mem_tracker_ = tracker;
}

void DecCache::insert(const Cone& cone, const DecCacheKey& key, DecTree tree) {
  STEP_CHECK(key.n == cone.n());
  if (key.n > aig::kTtMaxSupport) return;
  auto shared = std::make_shared<const DecTree>(std::move(tree));
  MutexLock lock(mu_);
  ++stats_.insertions;
  if (mem_tracker_ != nullptr) {
    // Entry-size estimate: the tree nodes plus the key's truth table.
    const std::size_t bytes = sizeof(DecTreeNode) * shared->nodes.size() +
                              128 +
                              key.canon_tt.size() * sizeof(std::uint64_t);
    mem_tracker_->charge(bytes);
    charged_bytes_ += bytes;
  }
  // First insertion per key wins; concurrent duplicates are dropped (both
  // trees are correct, keeping one is enough).
  npn_map_.emplace(TtKey{key.n, key.canon_tt},
                   NpnEntry{std::move(shared), key.canon_to_fn});
}

DecCacheStats DecCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::size_t DecCache::size() const {
  MutexLock lock(mu_);
  return npn_map_.size();
}

void DecCache::clear() {
  MutexLock lock(mu_);
  npn_map_.clear();
  stats_ = DecCacheStats{};
  if (mem_tracker_ != nullptr && charged_bytes_ > 0) {
    mem_tracker_->release(charged_bytes_);
    charged_bytes_ = 0;
  }
}

}  // namespace step::core
