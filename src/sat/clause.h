#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/resource.h"
#include "sat/types.h"

namespace step::sat {

/// Reference to a clause inside the arena (index into a word array).
using CRef = std::uint32_t;
constexpr CRef kCRefUndef = 0xffffffffU;

/// Learnt-clause quality tier (Chanseok Oh's three-tier scheme). Core
/// clauses (lowest LBD) are kept forever, tier2 clauses survive while they
/// keep participating in conflicts, local clauses compete on activity.
enum class ClauseTier : std::uint32_t { kCore = 0, kTier2 = 1, kLocal = 2 };

/// Clause header + inline literal array, stored in the arena.
///
/// Layout (32-bit words):
///   word 0: size (27 bits) | learnt flag (1 bit) | unused
///   word 1: activity (float, learnt only)
///   word 2: proof id (resolution-proof logging)
///   word 3: tier (2 bits) | removed (1) | used (1) | LBD (28 bits)
/// Every clause carries a proof id so the resolution logger can name it.
class Clause {
 public:
  std::uint32_t size() const { return header_ >> 5; }
  bool learnt() const { return (header_ & 1U) != 0; }

  Lit& operator[](std::uint32_t i) { return lits_[i]; }
  const Lit& operator[](std::uint32_t i) const { return lits_[i]; }

  std::span<const Lit> lits() const { return {lits_, size()}; }
  std::span<Lit> lits() { return {lits_, size()}; }

  float activity() const { return activity_; }
  void set_activity(float a) { activity_ = a; }

  std::uint32_t proof_id() const { return proof_id_; }
  void set_proof_id(std::uint32_t id) { proof_id_ = id; }

  ClauseTier tier() const { return static_cast<ClauseTier>(extra_ & 3U); }
  void set_tier(ClauseTier t) {
    extra_ = (extra_ & ~3U) | static_cast<std::uint32_t>(t);
  }

  /// Deleted by reduce_db(), then dropped from the learnt list; space is
  /// reclaimed never (the arena is append-only so CRefs stay stable).
  bool removed() const { return (extra_ & 4U) != 0; }
  void set_removed() { extra_ |= 4U; }

  /// Touched by conflict analysis since the last reduce_db() round; tier2
  /// clauses that stay untouched are demoted to local.
  bool used() const { return (extra_ & 8U) != 0; }
  void set_used(bool u) { extra_ = u ? (extra_ | 8U) : (extra_ & ~8U); }

  std::uint32_t lbd() const { return extra_ >> 4; }
  void set_lbd(std::uint32_t l) { extra_ = (extra_ & 15U) | (l << 4); }

 private:
  friend class ClauseArena;
  void init(std::span<const Lit> ls, bool learnt) {
    header_ = (static_cast<std::uint32_t>(ls.size()) << 5) |
              (learnt ? 1U : 0U);
    activity_ = 0.0f;
    proof_id_ = 0;
    extra_ = static_cast<std::uint32_t>(ClauseTier::kLocal);
    for (std::uint32_t i = 0; i < ls.size(); ++i) lits_[i] = ls[i];
  }

  std::uint32_t header_;
  float activity_;
  std::uint32_t proof_id_;
  std::uint32_t extra_;
  Lit lits_[1];  // flexible array; arena allocates the real length
};

/// Bump-pointer arena for clauses.
///
/// Clauses are identified by CRef word offsets, which remain stable for the
/// lifetime of the arena (no garbage collection is performed while proof
/// logging is enabled; the solver's reduce_db() compacts watch lists only).
class ClauseArena {
 public:
  ClauseArena() = default;
  ClauseArena(const ClauseArena&) = delete;
  ClauseArena& operator=(const ClauseArena&) = delete;
  ClauseArena(ClauseArena&& o) noexcept
      : mem_(std::move(o.mem_)),
        mem_tracker_(o.mem_tracker_),
        charged_bytes_(o.charged_bytes_) {
    o.mem_tracker_ = nullptr;
    o.charged_bytes_ = 0;
  }
  ClauseArena& operator=(ClauseArena&& o) noexcept {
    if (this != &o) {
      if (mem_tracker_ != nullptr) mem_tracker_->release(charged_bytes_);
      mem_ = std::move(o.mem_);
      mem_tracker_ = o.mem_tracker_;
      charged_bytes_ = o.charged_bytes_;
      o.mem_tracker_ = nullptr;
      o.charged_bytes_ = 0;
    }
    return *this;
  }
  ~ClauseArena() {
    if (mem_tracker_ != nullptr) mem_tracker_->release(charged_bytes_);
  }

  CRef alloc(std::span<const Lit> lits, bool learnt) {
    STEP_CHECK(!lits.empty());
    const std::size_t need = kHeaderWords + lits.size();
    const CRef ref = static_cast<CRef>(mem_.size());
    mem_.resize(mem_.size() + need);
    clause_at(ref).init(lits, learnt);
    charge_growth();
    return ref;
  }

  Clause& operator[](CRef r) { return clause_at(r); }
  const Clause& operator[](CRef r) const {
    return const_cast<ClauseArena*>(this)->clause_at(r);
  }

  std::size_t size_words() const { return mem_.size(); }

  /// Resource-governor hook: arena capacity growth — the dominant
  /// allocation of a hard cone (learnt clauses) — is charged to the
  /// cone's tracker and refunded on destruction, so abandoning the cone
  /// returns its memory to the run budget (common/resource.h).
  void set_mem_tracker(MemTracker* tracker) {
    mem_tracker_ = tracker;
    charge_growth();
  }

 private:
  static constexpr std::size_t kHeaderWords = 4;

  void charge_growth() {
    if (mem_tracker_ == nullptr) return;
    const std::size_t cap = mem_.capacity() * sizeof(std::uint32_t);
    if (cap > charged_bytes_) {
      mem_tracker_->charge(cap - charged_bytes_);
      charged_bytes_ = cap;
    }
  }

  Clause& clause_at(CRef r) {
    return *reinterpret_cast<Clause*>(mem_.data() + r);
  }

  std::vector<std::uint32_t> mem_;
  MemTracker* mem_tracker_ = nullptr;
  std::size_t charged_bytes_ = 0;
};

}  // namespace step::sat
