#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "aig/aig.h"

namespace step {
class MemTracker;
}

namespace step::io {

/// AIGER reader/writer, ASCII ("aag") and binary ("aig") formats.
///
/// AIGER's literal encoding (2*var + complement, 0 = false) matches
/// step::aig's exactly, so the ASCII mapping is direct; the binary
/// format's ordering guarantees (AND left-hand sides strictly increasing,
/// fanins strictly below them) additionally permit a single-pass arena
/// build with node ids mapping 1:1 onto AIGER variables — no intermediate
/// representation, no elaboration map. Latches are cut combinationally on
/// read (latch output -> PI, next-state -> PO), consistent with the
/// paper's `comb` treatment; symbol-table names are honoured when present.
///
/// Every reader takes an optional MemTracker: header-derived and arena
/// allocations are charged against it *before* they happen, so a hostile
/// header or a genuinely huge input trips the configured soft cap with a
/// typed IoError ("memory limit exceeded") instead of driving the process
/// into the OOM killer.
///
/// The readers decode through decode_aiger() below, the same decoder
/// `step lint` uses, and reject a file exactly when the linter reports an
/// error finding for it: the decoder's defects, plus undefined fanins,
/// undriven outputs and cycles found while elaborating ASCII input (in
/// ANDs no output reaches, too — those are checked but not built).
aig::Aig parse_aiger(std::string_view text, MemTracker* mem = nullptr);

/// Binary-format parse of an in-memory buffer (delta-coded AND section).
/// Rejects non-monotone or 32-bit-overflowing literal deltas and
/// truncated streams with typed IoError.
aig::Aig parse_aiger_binary(std::string_view bytes, MemTracker* mem = nullptr);

/// Reads a file in either format, dispatching on the header magic
/// ("aag" vs "aig"). The file is read into one buffer (charged to `mem`
/// chunk by chunk before it grows) and decoded from there, so pipes get
/// the same header plausibility rule as regular files.
aig::Aig read_aiger_file(const std::string& path, MemTracker* mem = nullptr);

// ------------------------------------------------------------- decoder

/// Header counts, delivered once they passed the plausibility rule: each
/// count is at most 8 * input size + 1024 and below 2^31, so every
/// literal fits 32 bits and nothing sized from the header can outgrow
/// the input.
struct AigerHeader {
  std::uint32_t m = 0, i = 0, l = 0, o = 0, a = 0;
  bool binary = false;
};

/// Receives what decode_aiger() reads. Entries arrive in file order and
/// only when they passed every per-entry check (odd or out-of-range
/// literals, redefinitions, latch reset values); each failed check
/// arrives as a defect instead. The reader builds an AIG and throws on
/// the first defect; the linter turns every defect into a finding.
class AigerSink {
 public:
  virtual ~AigerSink() = default;
  virtual void header(const AigerHeader& h) = 0;
  virtual void input(std::uint32_t lit) = 0;
  virtual void latch(std::uint32_t lit, std::uint32_t next, long line) = 0;
  virtual void output(std::uint32_t lit, long line) = 0;
  virtual void and_gate(std::uint32_t lhs, std::uint32_t rhs0,
                        std::uint32_t rhs1, long line) = 0;
  /// Symbol-table entry `kind` ('i', 'l' or 'o') with an in-range index.
  virtual void symbol(char /*kind*/, std::uint32_t /*index*/,
                      std::string_view /*name*/) {}
  /// A decoding defect: finding code (e.g. "AIG-REDEF"), the object it
  /// concerns, a message and the 1-based line (0 in the binary AND
  /// section and for implicit binary definitions).
  virtual void defect(const char* code, std::string object,
                      std::string message, long line) = 0;
};

/// Decodes AIGER bytes, binary when they start with "aig ", ASCII
/// otherwise. Owns the format's byte-level rules: one entry per line with
/// exact field counts and overflow-checked unsigned fields ("\r\n"
/// tolerated), the header plausibility rule, binary varints and delta
/// monotonicity, binary M = I + L + A, and the per-entry checks. Returns
/// true when every section was read; false when a defect (malformed
/// header or line, truncation, bad delta) stopped decoding.
bool decode_aiger(std::string_view bytes, AigerSink& sink);

/// Writes a combinational AIG as ASCII AIGER with a full symbol table.
std::string write_aiger(const aig::Aig& a);

/// Writes a combinational AIG as binary AIGER (delta-coded AND section)
/// with a full symbol table. Inputs and ANDs are renumbered into the
/// format's required order; the result re-reads into an isomorphic AIG.
std::string write_aiger_binary(const aig::Aig& a);

/// Writes ASCII by default; a path ending in ".aig" selects the binary
/// format.
void write_aiger_file(const aig::Aig& a, const std::string& path);

}  // namespace step::io
