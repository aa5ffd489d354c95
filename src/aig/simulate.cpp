#include "aig/simulate.h"

#include <algorithm>

#include "common/resource.h"

namespace step::aig {

namespace {

/// Sweeps all nodes once in id order (ids are topologically sorted).
std::vector<std::uint64_t> sweep(const Aig& a,
                                 const std::vector<std::uint64_t>& input_words) {
  STEP_CHECK(input_words.size() == a.num_inputs());
  std::vector<std::uint64_t> val(a.num_nodes(), 0);
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    if (a.is_input(n)) {
      val[n] = input_words[a.input_index(n)];
    } else {
      const Lit f0 = a.fanin0(n);
      const Lit f1 = a.fanin1(n);
      const std::uint64_t v0 =
          is_complemented(f0) ? ~val[node_of(f0)] : val[node_of(f0)];
      const std::uint64_t v1 =
          is_complemented(f1) ? ~val[node_of(f1)] : val[node_of(f1)];
      val[n] = v0 & v1;
    }
  }
  return val;
}

std::uint64_t edge_value(const std::vector<std::uint64_t>& val, Lit l) {
  return is_complemented(l) ? ~val[node_of(l)] : val[node_of(l)];
}

}  // namespace

std::vector<std::uint64_t> simulate(const Aig& a,
                                    const std::vector<std::uint64_t>& input_words) {
  const std::vector<std::uint64_t> val = sweep(a, input_words);
  std::vector<std::uint64_t> out(a.num_outputs());
  for (std::uint32_t i = 0; i < a.num_outputs(); ++i) {
    out[i] = edge_value(val, a.output(i));
  }
  return out;
}

std::uint64_t simulate_cone(const Aig& a, Lit root,
                            const std::vector<std::uint64_t>& input_words) {
  const std::vector<std::uint64_t> val = sweep(a, input_words);
  return edge_value(val, root);
}

std::vector<std::uint64_t> simulate_nodes(
    const Aig& a, const std::vector<std::uint64_t>& input_words) {
  return sweep(a, input_words);
}

ConeSimulator::ConeSimulator(const Aig& a, Lit root, MemTracker* mem)
    : mem_(mem) {
  // Collect the cone's nodes. The visited set is a sorted id vector built
  // from an explicit DFS (re-sorted with dedup after collection) rather
  // than a num_nodes-sized bitmap, so a small window on a million-gate
  // netlist costs O(cone), not O(circuit).
  std::vector<std::uint32_t> nodes;
  {
    std::vector<std::uint32_t> stack{node_of(root)};
    std::vector<std::uint32_t> seen;  // sorted snapshot for lookups
    std::size_t unsorted = 0;
    auto contains = [&](std::uint32_t n) {
      const auto mid = seen.begin() + static_cast<std::ptrdiff_t>(unsorted);
      if (std::binary_search(seen.begin(), mid, n)) return true;
      return std::find(mid, seen.end(), n) != seen.end();
    };
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      stack.pop_back();
      if (n == 0 || contains(n)) continue;
      seen.push_back(n);
      // Re-sort the snapshot once the unsorted tail grows past a small
      // bound: keeps membership checks ~O(log c) amortized.
      if (seen.size() - unsorted > 64) {
        std::sort(seen.begin(), seen.end());
        unsorted = seen.size();
      }
      if (a.is_and(n)) {
        stack.push_back(node_of(a.fanin0(n)));
        stack.push_back(node_of(a.fanin1(n)));
      }
    }
    std::sort(seen.begin(), seen.end());
    nodes = std::move(seen);
  }

  // Ascending node id = topological order. Assign local slots: constant 0,
  // support inputs next (ascending input index == ascending node id order
  // is NOT guaranteed, so sort support by input index afterwards), then
  // AND nodes.
  std::vector<std::uint32_t> and_nodes;
  std::vector<std::uint32_t> in_nodes;
  for (const std::uint32_t n : nodes) {
    if (a.is_and(n)) {
      and_nodes.push_back(n);
    } else {
      in_nodes.push_back(n);
    }
  }
  std::sort(in_nodes.begin(), in_nodes.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return a.input_index(x) < a.input_index(y);
            });
  support_.reserve(in_nodes.size());
  for (const std::uint32_t n : in_nodes) {
    support_.push_back(static_cast<std::uint32_t>(a.input_index(n)));
  }
  num_ands_ = static_cast<std::uint32_t>(and_nodes.size());

  // Local slot of each cone node: binary search over the two sorted
  // arrays; the constant is slot 0.
  auto local_slot = [&](std::uint32_t n) -> Lit {
    if (n == 0) return 0;
    const auto ai = std::lower_bound(and_nodes.begin(), and_nodes.end(), n);
    if (ai != and_nodes.end() && *ai == n) {
      return static_cast<Lit>(1 + in_nodes.size() +
                              (ai - and_nodes.begin()));
    }
    for (std::size_t i = 0; i < in_nodes.size(); ++i) {
      if (in_nodes[i] == n) return static_cast<Lit>(1 + i);
    }
    STEP_CHECK(false && "fanin outside its own cone");
    return 0;
  };

  local_f0_.reserve(and_nodes.size());
  local_f1_.reserve(and_nodes.size());
  for (const std::uint32_t n : and_nodes) {
    const Lit f0 = a.fanin0(n);
    const Lit f1 = a.fanin1(n);
    local_f0_.push_back(mk_lit(local_slot(node_of(f0)), is_complemented(f0)));
    local_f1_.push_back(mk_lit(local_slot(node_of(f1)), is_complemented(f1)));
  }
  local_root_ =
      mk_lit(local_slot(node_of(root)), is_complemented(root));
  val_.assign(1 + in_nodes.size() + and_nodes.size(), 0);

  if (mem_ != nullptr) {
    charged_ = support_.capacity() * sizeof(std::uint32_t) +
               local_f0_.capacity() * sizeof(Lit) +
               local_f1_.capacity() * sizeof(Lit) +
               val_.capacity() * sizeof(std::uint64_t);
    mem_->charge(charged_);
  }
}

ConeSimulator::~ConeSimulator() {
  if (mem_ != nullptr) mem_->release(charged_);
}

std::uint64_t ConeSimulator::run(
    const std::vector<std::uint64_t>& support_words) {
  STEP_CHECK(support_words.size() == support_.size());
  val_[0] = 0;
  std::copy(support_words.begin(), support_words.end(), val_.begin() + 1);
  std::uint64_t* v = val_.data();
  const std::size_t base = 1 + support_.size();
  for (std::size_t k = 0; k < local_f0_.size(); ++k) {
    const Lit f0 = local_f0_[k];
    const Lit f1 = local_f1_[k];
    const std::uint64_t v0 = is_complemented(f0) ? ~v[f0 >> 1] : v[f0 >> 1];
    const std::uint64_t v1 = is_complemented(f1) ? ~v[f1 >> 1] : v[f1 >> 1];
    v[base + k] = v0 & v1;
  }
  const std::uint64_t r = v[local_root_ >> 1];
  return is_complemented(local_root_) ? ~r : r;
}

std::vector<std::uint64_t> truth_table(const Aig& a, Lit root,
                                       const std::vector<std::uint32_t>& support) {
  const std::size_t n = support.size();
  STEP_CHECK(n <= 20);
  const std::size_t rows = std::size_t{1} << n;
  const std::size_t words = tt_words(n);

  // One cone-restricted simulator serves every word block: the cost per
  // block is O(cone), independent of how large the enclosing AIG is.
  ConeSimulator sim(a, root);
  // Map the caller's support positions (input indices, caller order) onto
  // the simulator's (ascending). Inputs the cone does not reach (the
  // caller may pass a superset) simulate as constant 0: they cannot
  // affect the root.
  const std::vector<std::uint32_t>& cone_sup = sim.support();
  std::vector<int> word_of(cone_sup.size(), -1);
  for (std::size_t j = 0; j < n; ++j) {
    const auto it =
        std::lower_bound(cone_sup.begin(), cone_sup.end(), support[j]);
    if (it != cone_sup.end() && *it == support[j]) {
      word_of[it - cone_sup.begin()] = static_cast<int>(j);
    }
  }

  std::vector<std::uint64_t> table(words, 0);
  std::vector<std::uint64_t> sup_words(cone_sup.size(), 0);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < cone_sup.size(); ++i) {
      const int j = word_of[i];
      if (j < 0) continue;
      // The first six support variables follow the in-word masks; the
      // remaining ones alternate per word block.
      if (j < 6) {
        sup_words[i] = kTtVarMask[j];
      } else {
        sup_words[i] = ((w >> (j - 6)) & 1U) ? ~0ULL : 0ULL;
      }
    }
    table[w] = sim.run(sup_words);
  }
  // Mask off unused rows for n < 6 so tables compare cleanly.
  if (n < 6) table[0] &= (rows == 64) ? ~0ULL : ((1ULL << rows) - 1);
  return table;
}

}  // namespace step::aig
