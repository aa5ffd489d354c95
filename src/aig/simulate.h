#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aig/aig.h"

namespace step {
class MemTracker;
}

namespace step::aig {

/// 64-way bit-parallel simulation: `input_words[i]` carries 64 stimulus
/// bits for input i; returns one word per output.
std::vector<std::uint64_t> simulate(const Aig& a,
                                    const std::vector<std::uint64_t>& input_words);

/// Word-level simulation of a single cone.
std::uint64_t simulate_cone(const Aig& a, Lit root,
                            const std::vector<std::uint64_t>& input_words);

/// Whole-network simulation exposing every node's word (indexed by node
/// id, uncomplemented). Window extraction reads internal cut signals from
/// this, so one sweep serves many candidate cuts.
std::vector<std::uint64_t> simulate_nodes(
    const Aig& a, const std::vector<std::uint64_t>& input_words);

/// Incremental re-simulator restricted to one cone.
///
/// Construction walks the cone of `root` once and records just its nodes
/// (in ascending-id, i.e. topological, order) and its support inputs.
/// Every subsequent run() then touches only those nodes and reuses one
/// flat value buffer — on a million-gate netlist a 200-node window
/// re-simulates in 200 AND operations instead of a whole-network sweep,
/// and the working set is O(cone), not O(circuit). This is what keeps
/// run_circuit's per-cone memory inside the MemTracker envelope: the
/// optional tracker is charged for the simulator's buffers on
/// construction and refunded on destruction.
class ConeSimulator {
 public:
  /// `block_words` bounds the words per position one run_block() call
  /// may evaluate (the value buffer holds that many per cone node).
  ConeSimulator(const Aig& a, Lit root, MemTracker* mem = nullptr,
                std::size_t block_words = 1);
  ~ConeSimulator();
  ConeSimulator(const ConeSimulator&) = delete;
  ConeSimulator& operator=(const ConeSimulator&) = delete;

  /// Support input indices of the cone, ascending.
  const std::vector<std::uint32_t>& support() const { return support_; }
  /// AND nodes in the cone.
  std::uint32_t num_ands() const { return num_ands_; }

  /// Evaluates the cone on one word per *support position* (aligned with
  /// support()), returning the root's word.
  std::uint64_t run(const std::vector<std::uint64_t>& support_words);

  /// Block evaluation, node-major: each AND is computed over a block of
  /// `words` (<= block_words) words before the next, so its fanins are
  /// decoded once per block rather than once per word. The caller fills
  /// the block inputs in place; they persist across run_block() calls with
  /// the same `words`, so patterns shared by every block are written once.
  /// Word w of support position i (aligned with support()).
  std::uint64_t* block_input(std::size_t i, std::size_t words) {
    return val_.data() + (1 + i) * words;
  }
  /// Evaluates the cone on the block inputs; out[w] receives the root's
  /// word w for w < words.
  void run_block(std::size_t words, std::uint64_t* out);

 private:
  MemTracker* mem_;
  std::size_t charged_ = 0;
  std::vector<std::uint32_t> support_;
  std::uint32_t num_ands_ = 0;
  /// The cone re-expressed over *local* slots: val_[0] is constant false,
  /// slots 1..|support| the support words, then one slot per cone AND in
  /// topological order. local_f0_/local_f1_ hold each AND's fanins as
  /// local literals (2*slot + complement), so run() is a tight loop with
  /// no per-step id translation. Slot k occupies `words` consecutive
  /// entries of val_ during a run_block() call.
  std::vector<Lit> local_f0_;
  std::vector<Lit> local_f1_;
  Lit local_root_ = kLitFalse;
  std::size_t block_words_ = 1;
  std::vector<std::uint64_t> val_;
};

/// Complete truth table of `root` over the given support inputs
/// (src input indices); support.size() <= 20. Bit b of the table is the
/// function value when support input j takes bit j of b.
/// Packed in 64-bit words, so table[b >> 6] >> (b & 63) & 1 is the value.
/// `support` may be a superset of the cone's support, in any order, and
/// may name indices the AIG does not have: the root ignores them. The
/// cone is simulated node-major over blocks of at most 32 words; the
/// simulator's buffers (32 words per cone node) are charged to `mem`
/// while the table is built.
std::vector<std::uint64_t> truth_table(const Aig& a, Lit root,
                                       const std::vector<std::uint32_t>& support,
                                       MemTracker* mem = nullptr);

/// Number of 64-bit words a truth table over n variables occupies.
constexpr std::size_t tt_words(std::size_t n_vars) {
  return n_vars >= 6 ? (std::size_t{1} << (n_vars - 6)) : 1;
}

/// Reads bit `row` of a packed truth table.
inline bool tt_bit(const std::vector<std::uint64_t>& tt, std::size_t row) {
  return ((tt[row >> 6] >> (row & 63)) & 1ULL) != 0;
}

/// Widest support the truth-table tier handles: support reduction, MG's
/// seed-pair exhaustion and the exhaustive partition oracle enumerate
/// tables of at most 2^16 rows (1024 words); wider cones stay on SAT.
constexpr int kTtMaxSupport = 16;

/// In-word variable masks: bit r of kTtVarMask[j] is bit j of r. These
/// are the stimulus words of the first six truth-table variables.
inline constexpr std::uint64_t kTtVarMask[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

/// Word `w` of the table of f(x ^ e_j), i.e. of `tt` with variable j
/// negated. Variables below 6 swap bit pairs within the word by mask and
/// shift; higher variables read the partner word. A table masked to its
/// 2^n rows stays masked for every j < n.
inline std::uint64_t tt_flip_word(const std::uint64_t* tt, std::size_t w,
                                  int j) {
  if (j >= 6) return tt[w ^ (std::size_t{1} << (j - 6))];
  const int s = 1 << j;
  const std::uint64_t m = kTtVarMask[j];
  return ((tt[w] & m) >> s) | ((tt[w] << s) & m);
}

/// dst = ∃x_j·src over tables of `words` words: every row becomes
/// row ∨ row^e_j. dst may be src. A table masked to its 2^n rows stays
/// masked for every j < n.
inline void tt_exists(const std::uint64_t* src, std::uint64_t* dst,
                      std::size_t words, int j) {
  if (j >= 6) {
    const std::size_t stride = std::size_t{1} << (j - 6);
    for (std::size_t base = 0; base < words; base += 2 * stride) {
      for (std::size_t w = base; w < base + stride; ++w) {
        const std::uint64_t v = src[w] | src[w + stride];
        dst[w] = v;
        dst[w + stride] = v;
      }
    }
    return;
  }
  const int s = 1 << j;
  const std::uint64_t m = kTtVarMask[j];
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t x = src[w];
    dst[w] = x | ((x & m) >> s) | ((x << s) & m);
  }
}

}  // namespace step::aig
