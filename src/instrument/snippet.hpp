// The snippet mini-compiler (Section 2.3, Figure 6).
//
// For every floating-point instruction the patcher asks this module for a
// replacement snippet: a small chain of basic blocks that
//   1. saves the scratch state (push r0, pushx xmm15/xmm14) when it opens a
//      run of snippets,
//   2. hoists memory operands into a temporary XMM register (the paper does
//      this to avoid writing to unwritable memory and to sidestep
//      synchronization hazards),
//   3. tests each double-precision input for the 0x7FF4DEAD sentinel and
//      downcasts (single) or upcasts (double) it as required, writing
//      converted register operands back in place,
//   4. executes the operation -- rewritten to its single-precision twin when
//      the configuration maps the instruction to `single`,
//   5. boxes single-precision results back into tagged slots, and
//   6. restores the scratch state when it closes its run.
//
// A run is a sequence of wrapped instructions in one original block that
// share one save and one restore (the patcher picks the runs; see
// instrument_function). A snippet on its own is a run of one. The tag test
// needs one GPR (r0), and an addss/subss/mulss/divss/minss/maxss twin is not
// re-boxed: its dst check has just boxed dst, and the op writes only the
// low 32 bits.
//
// Packed (two-lane) values are handled lane-wise through a stack spill,
// exactly mirroring the paper's treatment of 128-bit XMM data.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/instr.hpp"
#include "config/precision.hpp"
#include "program/program.hpp"

namespace fpmix::instrument {

/// A snippet: basic blocks whose taken/fallthrough edges are indices *local
/// to this chain*. The final block's fallthrough is kChainExit and is wired
/// to the continuation block by the patcher.
struct SnippetChain {
  static constexpr program::BlockIndex kChainExit = -2;
  std::vector<program::BasicBlock> blocks;

  std::size_t instruction_count() const {
    std::size_t n = 0;
    for (const auto& b : blocks) n += b.instrs.size();
    return n;
  }
};

/// Statically known boxed/plain state of an operand register, fed by the
/// patcher's intra-block dataflow (paper Section 2.5). kUnknown emits the
/// full Figure 6 check; kPlain/kTagged let the snippet skip or
/// strength-reduce the sentinel test.
enum class TagState : std::uint8_t { kUnknown, kPlain, kTagged };

/// Scratch XMMs a snippet or a run of snippets saves besides r0.
struct ScratchXmms {
  bool mem_temp = false;   // xmm15: a hoisted memory source
  bool lane_temp = false;  // xmm14: packed lane conversions

  ScratchXmms& operator|=(const ScratchXmms& o) {
    mem_temp = mem_temp || o.mem_temp;
    lane_temp = lane_temp || o.lane_temp;
    return *this;
  }
};

/// The scratch XMMs the snippet of `ins` clobbers.
ScratchXmms scratch_xmms(const arch::Instr& ins);

/// True when `ins` names r0, sp, xmm14 or xmm15, as a register operand or
/// as an address register. Such an instruction cannot run inside a run of
/// snippets (it would see, or be undone by, the run's scratch state), so a
/// wrapped one is a run of its own.
bool uses_scratch(const arch::Instr& ins);

/// Per-snippet inputs from the patcher: dataflow facts and run placement.
/// The defaults give a self-contained snippet (a run of one) that tests
/// every f64 input for the sentinel.
struct SnippetOptions {
  /// Dataflow facts for the instruction's register operands.
  TagState dst_state = TagState::kUnknown;
  TagState src_state = TagState::kUnknown;

  /// Emit the run's saves before this snippet / its restores after it.
  bool opens_run = true;
  bool closes_run = true;
  /// Scratch XMMs the run saves: the union over its members, the same for
  /// every member, so they agree on the frame depth an sp-relative memory
  /// source is rebased by. The snippet adds its own needs.
  ScratchXmms run_xmms;
};

/// True when `ins` must be replaced by a snippet under effective precision
/// `p` (false for ignore, for bit-preserving moves, and for double-mapped
/// instructions that read no f64 data).
bool needs_snippet(const arch::Instr& ins, config::Precision p);

/// Builds the snippet for `ins` under `p`. `p` must be kSingle only when the
/// instruction is a replacement candidate. Every emitted instruction carries
/// origin = ins.addr (or ins.origin when set) for provenance.
SnippetChain build_snippet(const arch::Instr& ins, config::Precision p,
                           const SnippetOptions& options = {});

}  // namespace fpmix::instrument
