// Layout: the binary-rewriter half of the patching pipeline.
//
// Takes a (possibly patched) structured Program and emits a fresh Image:
// assigns addresses to every block, materializes fall-through edges that are
// no longer physically adjacent as explicit jmp instructions, resolves
// symbolic branch targets and call targets to absolute addresses, and
// re-encodes everything. This is the role Dyninst's binary rewriter plays in
// Section 2.4 of the paper.
//
// The work is split into two phases so verify::TrialBuilder can reuse
// per-function results across trials:
//
//   layout_function()  encodes ONE function into a position-independent
//                      FuncLayout: a local byte stream whose branch targets
//                      are block offsets within the function and whose call
//                      targets are callee function indices, plus relocation
//                      and provenance records.
//   assemble()         splices any mix of cached and fresh FuncLayouts into
//                      a complete Image: prefix-sums function addresses,
//                      patches the relocations, and replays the provenance
//                      records.
//
// relayout() is layout_function() over every function followed by
// assemble(), so an incrementally assembled image is bit-identical to a
// from-scratch one by construction -- there is only one emitting code path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "program/image.hpp"
#include "program/program.hpp"

namespace fpmix::program {

/// Position-independent encoding of one function. Immutable once built;
/// verify::TrialBuilder caches these per (function, precision signature)
/// and assemble() splices them at any address.
struct FuncLayout {
  /// Encoded body. Branch immediates hold the *local byte offset* of the
  /// target block; call immediates hold the callee *function index*.
  /// assemble() overwrites both with absolute values in the image copy.
  std::vector<std::uint8_t> bytes;

  struct Reloc {
    std::uint32_t imm_off = 0;  // offset of the 8-byte imm field in `bytes`
    std::uint64_t value = 0;    // call: callee index; branch: local target
    bool is_call = false;
  };
  std::vector<Reloc> relocs;

  /// Provenance replay records (Image::origins entries are emitted lazily at
  /// assemble time because the rule compares origin against the final
  /// address). `from_jmp` records carry the preceding instruction's raw
  /// origin and offset so the explicit-jmp inheritance rule can be replayed.
  struct OriginRec {
    std::uint32_t off = 0;        // local offset of the emitted instruction
    std::uint64_t origin = 0;     // raw origin (kNoAddr only when from_jmp)
    std::uint32_t prev_off = 0;   // from_jmp: offset of the preceding instr
    bool from_jmp = false;
  };
  std::vector<OriginRec> origins;

  // Symbol identity (assemble() builds Image::symbols from these).
  std::string name;
  std::string module;
};

/// Encodes one function into its position-independent form.
FuncLayout layout_function(const Function& fn);

/// Splices `funcs` (one FuncLayout per function, in program order) into a
/// complete image using `meta` for the non-code sections, entry function and
/// base addresses. Validates the result.
Image assemble(const Program& meta,
               const std::vector<const FuncLayout*>& funcs);

/// Produces a runnable image. The input program is not modified; instruction
/// `origin` fields are preserved into the emitted code so profiles of the
/// output can be attributed to original-program addresses.
Image relayout(const Program& prog);

/// Round-trip helper: lift + relayout, used by tests to show the pipeline is
/// faithful (a lifted-and-relaid image executes identically).
Image rewrite_identity(const Image& image);

}  // namespace fpmix::program
