#pragma once

#include <vector>

#include "sat/types.h"

namespace step::sat {

/// Binary max-heap over variables keyed by activity, with position index
/// for decrease/increase-key. This is the VSIDS decision queue.
class VarOrderHeap {
 public:
  explicit VarOrderHeap(const std::vector<double>& activity)
      : activity_(activity) {}

  bool empty() const { return heap_.empty(); }
  bool contains(Var v) const {
    return v < static_cast<Var>(pos_.size()) && pos_[v] != -1;
  }

  /// Capacity for `n_vars` variables; contents are unchanged.
  void reserve(Var n_vars) {
    pos_.reserve(static_cast<std::size_t>(n_vars));
    heap_.reserve(static_cast<std::size_t>(n_vars));
  }

  void insert(Var v) {
    if (contains(v)) return;
    if (v >= static_cast<Var>(pos_.size())) pos_.resize(v + 1, -1);
    pos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    sift_up(pos_[v]);
  }

  Var remove_max() {
    Var top = heap_[0];
    heap_[0] = heap_.back();
    pos_[heap_[0]] = 0;
    heap_.pop_back();
    pos_[top] = -1;
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  /// Re-establish heap order after v's activity increased.
  void increased(Var v) {
    if (contains(v)) sift_up(pos_[v]);
  }

  /// Rebuild after a global activity rescale (order unchanged, no-op).
  void clear() {
    for (Var v : heap_) pos_[v] = -1;
    heap_.clear();
  }

 private:
  bool less(Var a, Var b) const { return activity_[a] < activity_[b]; }

  void sift_up(int i) {
    Var v = heap_[i];
    while (i > 0) {
      int parent = (i - 1) >> 1;
      if (!less(heap_[parent], v)) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i]] = i;
      i = parent;
    }
    heap_[i] = v;
    pos_[v] = i;
  }

  void sift_down(int i) {
    Var v = heap_[i];
    const int n = static_cast<int>(heap_.size());
    while (true) {
      int child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child], heap_[child + 1])) ++child;
      if (!less(v, heap_[child])) break;
      heap_[i] = heap_[child];
      pos_[heap_[i]] = i;
      i = child;
    }
    heap_[i] = v;
    pos_[v] = i;
  }

  const std::vector<double>& activity_;
  std::vector<Var> heap_;
  std::vector<int> pos_;
};

}  // namespace step::sat
