// Reference instrumenter for differential tests and the snippet ablation:
// the public splice engine with a test-only copy of the paper's Figure 6
// snippet. Every wrapped instruction gets a self-contained snippet: it
// saves and restores two scratch GPRs (r0/r1) and the scratch XMMs it
// clobbers, runs the full sentinel check on every input, and re-boxes
// every single-precision result. Production instrument_image() elides
// checks by dataflow, shares one save across a run of snippets and skips
// redundant re-boxing; it must match this reference bit for bit. The copy
// is independent of src/instrument/snippet.cpp on purpose, so a change to
// the production snippet cannot silently change the oracle too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "arch/intrinsics.hpp"
#include "arch/tag.hpp"
#include "config/config.hpp"
#include "config/structure.hpp"
#include "instrument/chain_builder.hpp"
#include "instrument/patch.hpp"
#include "instrument/snippet.hpp"
#include "program/image.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "support/error.hpp"

namespace fpmix::reference {

struct Options {
  /// Test for the 0x7FF4DEAD sentinel before narrowing (Figure 6). With
  /// false, single-mapped inputs are downcast unconditionally, so a value
  /// that is already boxed is re-converted as if its bits were a double:
  /// the ablation that shows the check is load-bearing.
  bool check_tags = true;
};

namespace detail {

using arch::Opcode;
using arch::Operand;
using instrument::ChainBuilder;

constexpr std::uint8_t kScratchA = 0;
constexpr std::uint8_t kScratchB = 1;
constexpr std::uint8_t kMemTemp = 15;
constexpr std::uint8_t kLaneTemp = 14;
constexpr std::int64_t kTagWord =
    static_cast<std::int64_t>(arch::kReplacedTag);
constexpr std::int64_t kTagHigh =
    static_cast<std::int64_t>(arch::kReplacedTagHigh);
constexpr std::int64_t kLowMask = 0xFFFFFFFFll;

inline void retag(ChainBuilder& b, std::uint8_t x) {
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratchA), Operand::xmm(x));
  b.emit(Opcode::kAnd, Operand::gpr(kScratchA), Operand::make_imm(kLowMask));
  b.emit(Opcode::kOr, Operand::gpr(kScratchA), Operand::make_imm(kTagHigh));
  b.emit(Opcode::kMovqXR, Operand::xmm(x), Operand::gpr(kScratchA));
}

inline void downcast_check(ChainBuilder& b, std::uint8_t x,
                           const Options& opts) {
  if (!opts.check_tags) {
    b.emit(Opcode::kCvtsd2ss, Operand::xmm(x), Operand::xmm(x));
    retag(b, x);
    return;
  }
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratchA), Operand::xmm(x));
  b.emit(Opcode::kMov, Operand::gpr(kScratchB), Operand::gpr(kScratchA));
  b.emit(Opcode::kShr, Operand::gpr(kScratchB), Operand::make_imm(32));
  b.emit(Opcode::kCmp, Operand::gpr(kScratchB), Operand::make_imm(kTagWord));
  const ChainBuilder::FwdBranch skip = b.branch_fwd(Opcode::kJe);
  b.emit(Opcode::kCvtsd2ss, Operand::xmm(x), Operand::xmm(x));
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratchA), Operand::xmm(x));
  b.emit(Opcode::kOr, Operand::gpr(kScratchA), Operand::make_imm(kTagHigh));
  b.emit(Opcode::kMovqXR, Operand::xmm(x), Operand::gpr(kScratchA));
  b.land(skip);
}

inline void upcast_check(ChainBuilder& b, std::uint8_t x) {
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratchA), Operand::xmm(x));
  b.emit(Opcode::kShr, Operand::gpr(kScratchA), Operand::make_imm(32));
  b.emit(Opcode::kCmp, Operand::gpr(kScratchA), Operand::make_imm(kTagWord));
  const ChainBuilder::FwdBranch skip = b.branch_fwd(Opcode::kJne);
  b.emit(Opcode::kCvtss2sd, Operand::xmm(x), Operand::xmm(x));
  b.land(skip);
}

inline void packed_check(ChainBuilder& b, std::uint8_t x, bool single,
                         const Options& opts) {
  b.emit(Opcode::kPushX, Operand::xmm(x));
  for (int lane = 0; lane < 2; ++lane) {
    const auto slot = Operand::mem_bd(arch::kSpReg, 8 * lane);
    ChainBuilder::FwdBranch skip{};
    const bool check = opts.check_tags || !single;
    if (check) {
      b.emit(Opcode::kLoad, Operand::gpr(kScratchA), slot);
      b.emit(Opcode::kShr, Operand::gpr(kScratchA), Operand::make_imm(32));
      b.emit(Opcode::kCmp, Operand::gpr(kScratchA),
             Operand::make_imm(kTagWord));
      skip = b.branch_fwd(single ? Opcode::kJe : Opcode::kJne);
    }
    b.emit(Opcode::kMovsdXM, Operand::xmm(kLaneTemp), slot);
    if (single) {
      b.emit(Opcode::kCvtsd2ss, Operand::xmm(kLaneTemp),
             Operand::xmm(kLaneTemp));
      b.emit(Opcode::kMovqRX, Operand::gpr(kScratchA),
             Operand::xmm(kLaneTemp));
      b.emit(Opcode::kOr, Operand::gpr(kScratchA),
             Operand::make_imm(kTagHigh));
      b.emit(Opcode::kStore, slot, Operand::gpr(kScratchA));
    } else {
      b.emit(Opcode::kCvtss2sd, Operand::xmm(kLaneTemp),
             Operand::xmm(kLaneTemp));
      b.emit(Opcode::kMovsdMX, slot, Operand::xmm(kLaneTemp));
    }
    if (check) b.land(skip);
  }
  b.emit(Opcode::kPopX, Operand::xmm(x));
}

inline void packed_retag(ChainBuilder& b, std::uint8_t x) {
  b.emit(Opcode::kPushX, Operand::xmm(x));
  for (int lane = 0; lane < 2; ++lane) {
    const auto slot = Operand::mem_bd(arch::kSpReg, 8 * lane);
    b.emit(Opcode::kLoad, Operand::gpr(kScratchA), slot);
    b.emit(Opcode::kAnd, Operand::gpr(kScratchA), Operand::make_imm(kLowMask));
    b.emit(Opcode::kOr, Operand::gpr(kScratchA), Operand::make_imm(kTagHigh));
    b.emit(Opcode::kStore, slot, Operand::gpr(kScratchA));
  }
  b.emit(Opcode::kPopX, Operand::xmm(x));
}

inline std::uint64_t origin_of(const arch::Instr& ins) {
  return ins.origin != arch::kNoAddr ? ins.origin : ins.addr;
}

/// The Figure 6 snippet for `ins` under `p` (needs_snippet must be true).
inline instrument::SnippetChain build_snippet(const arch::Instr& ins,
                                              config::Precision p,
                                              const Options& opts) {
  namespace in = arch::intrinsics;
  ChainBuilder b(origin_of(ins));
  const bool single = p == config::Precision::kSingle;
  if (ins.op == Opcode::kIntrin) {
    const auto id = static_cast<in::Id>(ins.src.imm);
    const in::IntrinInfo& info = in::intrin_info(id);
    b.emit(Opcode::kPush, Operand::gpr(kScratchA));
    b.emit(Opcode::kPush, Operand::gpr(kScratchB));
    for (std::uint8_t a = 0; a < info.num_f64_args; ++a) {
      if (single) downcast_check(b, a, opts);
      else upcast_check(b, a);
    }
    b.emit(Opcode::kIntrin, Operand::none(),
           Operand::make_imm(
               static_cast<std::int64_t>(single ? info.f32_twin : id)));
    if (single && info.has_f64_result) retag(b, 0);
    b.emit(Opcode::kPop, Operand::gpr(kScratchB));
    b.emit(Opcode::kPop, Operand::gpr(kScratchA));
    return b.finish();
  }

  const arch::OpcodeInfo& info = arch::opcode_info(ins.op);
  const bool packed = info.fp_lanes == 2;
  const bool mem_src = ins.src.is_mem();
  if (ins.dst.is_gpr() &&
      (ins.dst.reg == kScratchA || ins.dst.reg == kScratchB)) {
    throw ProgramError(
        "instrumented FP instruction writes a snippet scratch GPR (r0/r1)");
  }
  for (const Operand* op : {&ins.dst, &ins.src}) {
    if (op->is_xmm() && (op->reg == kMemTemp || op->reg == kLaneTemp) &&
        (mem_src || packed)) {
      throw ProgramError(
          "instrumented FP instruction uses a snippet scratch XMM "
          "(xmm14/xmm15)");
    }
    if (op->is_gpr() && op->reg == arch::kSpReg) {
      throw ProgramError(
          "instrumented FP instruction uses the stack pointer as a value");
    }
  }

  b.emit(Opcode::kPush, Operand::gpr(kScratchA));
  b.emit(Opcode::kPush, Operand::gpr(kScratchB));
  if (mem_src) b.emit(Opcode::kPushX, Operand::xmm(kMemTemp));
  if (packed) b.emit(Opcode::kPushX, Operand::xmm(kLaneTemp));

  // Hoist a memory source into xmm15, rebasing an sp-relative address by
  // the bytes just pushed.
  Operand src = ins.src;
  if (mem_src) {
    const std::int64_t pushed = 16 + 16 + (packed ? 16 : 0);
    Operand mem = ins.src;
    const std::int64_t uses =
        (mem.mem.base == arch::kSpReg ? 1 : 0) +
        (mem.mem.index == arch::kSpReg ? mem.mem.scale : 0);
    mem.mem.disp = static_cast<std::int32_t>(mem.mem.disp + uses * pushed);
    b.emit(packed ? Opcode::kMovapdXM : Opcode::kMovsdXM,
           Operand::xmm(kMemTemp), mem);
    src = Operand::xmm(kMemTemp);
  }

  if (packed) {
    if (info.reads_dst_f64) packed_check(b, ins.dst.reg, single, opts);
    if (info.reads_src_f64) packed_check(b, src.reg, single, opts);
  } else {
    const auto check = [&](std::uint8_t x) {
      if (single) downcast_check(b, x, opts);
      else upcast_check(b, x);
    };
    if (info.reads_dst_f64) check(ins.dst.reg);
    // A same-register source was just converted by the dst check.
    const bool same = ins.dst.is_xmm() && info.reads_dst_f64 &&
                      src.is_xmm() && src.reg == ins.dst.reg;
    if (info.reads_src_f64 && src.is_xmm() && !same) check(src.reg);
  }

  b.emit(single ? info.single_twin : ins.op, ins.dst, src);
  if (single && info.writes_dst_f64) {
    if (packed) packed_retag(b, ins.dst.reg);
    else retag(b, ins.dst.reg);
  }

  if (packed) b.emit(Opcode::kPopX, Operand::xmm(kLaneTemp));
  if (mem_src) b.emit(Opcode::kPopX, Operand::xmm(kMemTemp));
  b.emit(Opcode::kPop, Operand::gpr(kScratchB));
  b.emit(Opcode::kPop, Operand::gpr(kScratchA));
  return b.finish();
}

}  // namespace detail

/// instrument_image() through the Figure 6 reference snippet: each function
/// is spliced from the same precision_signature production uses. `*stats`
/// receives the splice counters (wrapped, snippet_instrs).
inline program::Image instrument_image(
    const program::Image& image, const config::StructureIndex& index,
    const config::PrecisionConfig& cfg, const Options& options = {},
    instrument::InstrumentStats* stats = nullptr) {
  program::Program prog = program::lift(image);
  instrument::InstrumentStats total;
  for (std::size_t f = 0; f < prog.functions.size(); ++f) {
    const std::string sig =
        instrument::precision_signature(index, cfg, f, prog.functions[f]);
    std::size_t next = 0;
    const auto factory = [&](const arch::Instr& ins)
        -> std::optional<instrument::SnippetChain> {
      const config::Precision p = *config::precision_from_flag(sig[next++]);
      if (!instrument::needs_snippet(ins, p)) return std::nullopt;
      return detail::build_snippet(ins, p, options);
    };
    prog.functions[f] =
        instrument::splice_function(prog.functions[f], factory, &total);
  }
  if (stats != nullptr) *stats = total;
  return program::relayout(prog);
}

}  // namespace fpmix::reference
