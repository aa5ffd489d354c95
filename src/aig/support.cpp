#include "aig/support.h"

#include <algorithm>

#include "aig/simulate.h"

namespace step::aig {

std::vector<std::uint32_t> structural_support(const Aig& a, Lit root) {
  std::vector<char> visited(a.num_nodes(), 0);
  std::vector<char> hit(a.num_inputs(), 0);
  std::vector<std::uint32_t> stack{node_of(root)};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (visited[n]) continue;
    visited[n] = 1;
    if (a.is_input(n)) {
      hit[a.input_index(n)] = 1;
    } else if (a.is_and(n)) {
      stack.push_back(node_of(a.fanin0(n)));
      stack.push_back(node_of(a.fanin1(n)));
    }
  }
  std::vector<std::uint32_t> result;
  for (std::uint32_t i = 0; i < a.num_inputs(); ++i) {
    if (hit[i]) result.push_back(i);
  }
  return result;
}

std::vector<std::uint32_t> functional_support(const Aig& a, Lit root) {
  const std::vector<std::uint32_t> structural = structural_support(a, root);
  STEP_CHECK(structural.size() <= 20);
  const std::vector<std::uint64_t> tt = truth_table(a, root, structural);
  const int n = static_cast<int>(structural.size());

  // Input j belongs iff the table differs from its j-flipped copy: the
  // two cofactors are compared a word at a time.
  std::vector<std::uint32_t> result;
  for (int j = 0; j < n; ++j) {
    for (std::size_t w = 0; w < tt.size(); ++w) {
      if (tt[w] != tt_flip_word(tt.data(), w, j)) {
        result.push_back(structural[j]);
        break;
      }
    }
  }
  return result;
}

}  // namespace step::aig
