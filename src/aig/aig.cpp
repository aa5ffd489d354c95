#include "aig/aig.h"

#include <algorithm>

namespace step::aig {

namespace {

/// splitmix64 finalizer — strong enough that linear probing stays short
/// even on the highly regular keys adjacent AND pairs produce.
inline std::uint64_t hash_key(std::uint64_t k) {
  k += 0x9e3779b97f4a7c15ULL;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
  return k ^ (k >> 31);
}

}  // namespace

Lit Aig::add_input(std::string name) {
  const std::uint32_t node = num_nodes();
  fanin0_.push_back(kLitInvalid);
  fanin1_.push_back(kLitInvalid);
  input_index_.push_back(static_cast<std::int32_t>(inputs_.size()));
  inputs_.push_back(node);
  if (name.empty()) name = "x" + std::to_string(inputs_.size() - 1);
  input_names_.push_back(std::move(name));
  return mk_lit(node);
}

std::uint32_t Aig::add_output(Lit driver, std::string name) {
  STEP_CHECK(node_of(driver) < num_nodes());
  const std::uint32_t idx = num_outputs();
  outputs_.push_back(driver);
  if (name.empty()) name = "y" + std::to_string(idx);
  output_names_.push_back(std::move(name));
  return idx;
}

void Aig::reserve(std::uint32_t nodes, std::uint32_t inputs,
                  std::uint32_t outputs) {
  fanin0_.reserve(nodes);
  fanin1_.reserve(nodes);
  input_index_.reserve(nodes);
  if (inputs != 0) {
    inputs_.reserve(inputs);
    input_names_.reserve(inputs);
  }
  if (outputs != 0) {
    outputs_.reserve(outputs);
    output_names_.reserve(outputs);
  }
}

std::size_t Aig::memory_bytes() const {
  std::size_t bytes = fanin0_.capacity() * sizeof(Lit) +
                      fanin1_.capacity() * sizeof(Lit) +
                      input_index_.capacity() * sizeof(std::int32_t) +
                      inputs_.capacity() * sizeof(std::uint32_t) +
                      outputs_.capacity() * sizeof(Lit) +
                      strash_keys_.capacity() * sizeof(std::uint64_t) +
                      strash_vals_.capacity() * sizeof(std::uint32_t);
  bytes += input_names_.capacity() * sizeof(std::string);
  bytes += output_names_.capacity() * sizeof(std::string);
  // Short names live in SSO storage already counted above; only names
  // long enough to spill charge extra.
  for (const std::string& s : input_names_) {
    if (s.capacity() > sizeof(std::string)) bytes += s.capacity();
  }
  for (const std::string& s : output_names_) {
    if (s.capacity() > sizeof(std::string)) bytes += s.capacity();
  }
  return bytes;
}

void Aig::strash_grow() {
  const std::size_t cap =
      strash_keys_.empty() ? 1024 : strash_keys_.size() * 2;
  std::vector<std::uint64_t> keys(cap, 0);
  std::vector<std::uint32_t> vals(cap);
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < strash_keys_.size(); ++i) {
    const std::uint64_t k = strash_keys_[i];
    if (k == 0) continue;
    std::size_t slot = hash_key(k) & mask;
    while (keys[slot] != 0) slot = (slot + 1) & mask;
    keys[slot] = k;
    vals[slot] = strash_vals_[i];
  }
  strash_keys_ = std::move(keys);
  strash_vals_ = std::move(vals);
}

Lit Aig::strash_lookup_or_insert(Lit a, Lit b) {
  if (strash_used_ * 10 >= strash_keys_.size() * 7) strash_grow();
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  const std::size_t mask = strash_keys_.size() - 1;
  std::size_t slot = hash_key(key) & mask;
  while (strash_keys_[slot] != 0) {
    if (strash_keys_[slot] == key) return mk_lit(strash_vals_[slot]);
    slot = (slot + 1) & mask;
  }
  const std::uint32_t node = num_nodes();
  fanin0_.push_back(a);
  fanin1_.push_back(b);
  input_index_.push_back(-1);
  strash_keys_[slot] = key;
  strash_vals_[slot] = node;
  ++strash_used_;
  return mk_lit(node);
}

Lit Aig::land(Lit a, Lit b) {
  STEP_CHECK(node_of(a) < num_nodes() && node_of(b) < num_nodes());
  // Constant folding and trivial cases.
  if (a > b) std::swap(a, b);
  if (a == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (a == b) return a;
  if (a == lnot(b)) return kLitFalse;
  return strash_lookup_or_insert(a, b);
}

namespace {

/// Balanced AND tree over `cur[0, n)`, reduced in place pairwise level by
/// level (depth stays logarithmic). Gates are created in the same order as
/// a level-by-level copy would create them.
Lit land_tree_in_place(Aig& a, std::vector<Lit>& cur) {
  if (cur.empty()) return kLitTrue;
  std::size_t n = cur.size();
  while (n > 1) {
    std::size_t k = 0;
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      cur[k++] = a.land(cur[i], cur[i + 1]);
    }
    if (n % 2 != 0) cur[k++] = cur[n - 1];
    n = k;
  }
  return cur[0];
}

}  // namespace

Lit Aig::land_many(const std::vector<Lit>& ls) {
  std::vector<Lit> cur = ls;
  return land_tree_in_place(*this, cur);
}

Lit Aig::lor_many(const std::vector<Lit>& ls) {
  if (ls.size() == 1) return ls[0];
  std::vector<Lit> neg(ls.size());
  std::transform(ls.begin(), ls.end(), neg.begin(), lnot);
  return lnot(land_tree_in_place(*this, neg));
}

Lit Aig::lxor_many(const std::vector<Lit>& ls) {
  Lit acc = kLitFalse;
  for (Lit l : ls) acc = lxor(acc, l);
  return acc;
}

std::uint32_t Aig::cone_size(Lit root) const {
  std::vector<char> visited(num_nodes(), 0);
  std::vector<std::uint32_t> stack{node_of(root)};
  std::uint32_t count = 0;
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (visited[n]) continue;
    visited[n] = 1;
    if (!is_and(n)) continue;
    ++count;
    stack.push_back(node_of(fanin0_[n]));
    stack.push_back(node_of(fanin1_[n]));
  }
  return count;
}

}  // namespace step::aig
