#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace step::sat {

/// Block store behind a solver's watch lists.
///
/// A fresh solver gives nearly every literal a short watch list and a
/// short binary-watch list, and a one-shot solver dies soon after. With
/// std::allocator that is one malloc (and one free) per list plus one per
/// doubling. Here the small blocks (power-of-two sizes from kMinBlock to
/// kMaxBlock bytes) are carved from a few large chunks and recycled through
/// one free list per size; larger blocks go to the heap as before. The
/// pool only hands out memory, so list contents and their order are what
/// they would be with std::allocator.
class WatchPool {
 public:
  static constexpr std::size_t kMinBlock = 32;
  static constexpr std::size_t kMaxBlock = 256;

  WatchPool() = default;
  WatchPool(const WatchPool&) = delete;
  WatchPool& operator=(const WatchPool&) = delete;

  void* allocate(std::size_t bytes) {
    const int c = size_class(bytes);
    if (c < 0) return ::operator new(bytes);
    if (void* p = free_[c]) {
      free_[c] = *static_cast<void**>(p);
      return p;
    }
    const std::size_t block = kMinBlock << c;
    if (static_cast<std::size_t>(end_ - next_) < block) grow();
    void* p = next_;
    next_ += block;
    return p;
  }

  void deallocate(void* p, std::size_t bytes) {
    const int c = size_class(bytes);
    if (c < 0) {
      ::operator delete(p);
      return;
    }
    *static_cast<void**>(p) = free_[c];
    free_[c] = p;
  }

 private:
  static constexpr int kClasses = 4;  // 32, 64, 128, 256 bytes
  static_assert((kMinBlock << (kClasses - 1)) == kMaxBlock);

  /// Index of the pooled size class of exactly `bytes`, or -1.
  static int size_class(std::size_t bytes) {
    int c = 0;
    for (std::size_t b = kMinBlock; b <= kMaxBlock; b <<= 1, ++c) {
      if (b == bytes) return c;
    }
    return -1;
  }

  /// Starts a new chunk; the tail of the current one (too small for the
  /// requested block) is abandoned. Chunks double from 2 KB to 64 KB, so
  /// a tiny solver pays one small chunk and a large one few allocations.
  void grow() {
    chunk_bytes_ = chunks_.empty() ? kFirstChunk
                                   : std::min(2 * chunk_bytes_, kMaxChunk);
    chunks_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(chunk_bytes_));
    next_ = chunks_.back().get();
    end_ = next_ + chunk_bytes_;
  }

  static constexpr std::size_t kFirstChunk = 2048;
  static constexpr std::size_t kMaxChunk = 65536;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* next_ = nullptr;
  std::byte* end_ = nullptr;
  std::size_t chunk_bytes_ = 0;
  std::array<void*, kClasses> free_{};
};

/// std::vector allocator drawing from a WatchPool that outlives it.
template <typename T>
struct WatchAllocator {
  using value_type = T;

  explicit WatchAllocator(WatchPool* p) : pool(p) {}
  template <typename U>
  WatchAllocator(const WatchAllocator<U>& o) : pool(o.pool) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { pool->deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const WatchAllocator<U>& o) const {
    return pool == o.pool;
  }

  WatchPool* pool;
};

}  // namespace step::sat
