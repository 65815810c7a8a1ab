#include "instrument/snippet.hpp"

#include <cstdint>

#include "arch/intrinsics.hpp"
#include "arch/tag.hpp"
#include "config/structure.hpp"
#include "instrument/chain_builder.hpp"
#include "support/error.hpp"

namespace fpmix::instrument {

using arch::Instr;
using arch::Opcode;
using arch::Operand;
using config::Precision;
namespace in = arch::intrinsics;

SnippetChain ChainBuilder::finish() {
  FPMIX_CHECK(!blocks_.back().instrs.empty());
  blocks_.back().fallthrough = SnippetChain::kChainExit;
  SnippetChain chain;
  chain.blocks = std::move(blocks_);
  return chain;
}

namespace {

// Scratch register conventions: r0 for bit tests, xmm15 for hoisted memory
// operands, xmm14 for lane-wise conversions of packed values. A run of
// snippets saves them once (push r0, then pushx xmm15, pushx xmm14 as its
// members need them) and restores them in reverse order.
constexpr std::uint8_t kScratch = 0;    // "rax" of Figure 6
constexpr std::uint8_t kMemTemp = 15;   // hoisted memory operand
constexpr std::uint8_t kLaneTemp = 14;  // packed lane conversion

constexpr std::int64_t kTagWord =
    static_cast<std::int64_t>(arch::kReplacedTag);
constexpr std::int64_t kTagHigh =
    static_cast<std::int64_t>(arch::kReplacedTagHigh);
constexpr std::int64_t kLowMask = 0xFFFFFFFFll;

bool names_reg(const Operand& op, std::uint8_t gpr) {
  if (op.is_gpr()) return op.reg == gpr;
  return op.is_mem() && (op.mem.base == gpr || op.mem.index == gpr);
}

/// Boxes the single-precision result in xmm `x` lane 0: low 32 bits are
/// kept, the sentinel is written to the high 32.
void retag(ChainBuilder& b, std::uint8_t x) {
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratch), Operand::xmm(x));
  b.emit(Opcode::kAnd, Operand::gpr(kScratch), Operand::make_imm(kLowMask));
  b.emit(Opcode::kOr, Operand::gpr(kScratch), Operand::make_imm(kTagHigh));
  b.emit(Opcode::kMovqXR, Operand::xmm(x), Operand::gpr(kScratch));
}

/// Figure 6 input handling, single-precision flavour: if xmm `x` does not
/// carry the sentinel, downcast it in place and box it. `state` is the
/// dataflow fact for this register.
void downcast_check(ChainBuilder& b, std::uint8_t x,
                    TagState state = TagState::kUnknown) {
  if (state == TagState::kTagged) return;  // already boxed: nothing to do
  if (state == TagState::kPlain) {
    // Known-plain double: narrow unconditionally (sound elision).
    b.emit(Opcode::kCvtsd2ss, Operand::xmm(x), Operand::xmm(x));
    retag(b, x);
    return;
  }
  // The shifted copy in r0 is dead once compared: the box is rebuilt from
  // the converted value.
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratch), Operand::xmm(x));
  b.emit(Opcode::kShr, Operand::gpr(kScratch), Operand::make_imm(32));
  b.emit(Opcode::kCmp, Operand::gpr(kScratch), Operand::make_imm(kTagWord));
  const ChainBuilder::FwdBranch skip = b.branch_fwd(Opcode::kJe);
  b.emit(Opcode::kCvtsd2ss, Operand::xmm(x), Operand::xmm(x));
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratch), Operand::xmm(x));
  b.emit(Opcode::kOr, Operand::gpr(kScratch), Operand::make_imm(kTagHigh));
  b.emit(Opcode::kMovqXR, Operand::xmm(x), Operand::gpr(kScratch));
  b.land(skip);
}

/// Double-precision flavour: if xmm `x` carries the sentinel, widen the
/// boxed float back to a plain double in place.
void upcast_check(ChainBuilder& b, std::uint8_t x,
                  TagState state = TagState::kUnknown) {
  if (state == TagState::kPlain) return;  // known plain: nothing to do
  if (state == TagState::kTagged) {
    b.emit(Opcode::kCvtss2sd, Operand::xmm(x), Operand::xmm(x));
    return;
  }
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratch), Operand::xmm(x));
  b.emit(Opcode::kShr, Operand::gpr(kScratch), Operand::make_imm(32));
  b.emit(Opcode::kCmp, Operand::gpr(kScratch), Operand::make_imm(kTagWord));
  const ChainBuilder::FwdBranch skip = b.branch_fwd(Opcode::kJne);
  b.emit(Opcode::kCvtss2sd, Operand::xmm(x), Operand::xmm(x));
  b.land(skip);
}

/// Lane-wise check/convert of a packed register through a stack spill.
void packed_check(ChainBuilder& b, std::uint8_t x, bool single) {
  b.emit(Opcode::kPushX, Operand::xmm(x));
  for (int lane = 0; lane < 2; ++lane) {
    const auto slot = Operand::mem_bd(arch::kSpReg, 8 * lane);
    b.emit(Opcode::kLoad, Operand::gpr(kScratch), slot);
    b.emit(Opcode::kShr, Operand::gpr(kScratch), Operand::make_imm(32));
    b.emit(Opcode::kCmp, Operand::gpr(kScratch),
           Operand::make_imm(kTagWord));
    const ChainBuilder::FwdBranch skip =
        b.branch_fwd(single ? Opcode::kJe : Opcode::kJne);
    b.emit(Opcode::kMovsdXM, Operand::xmm(kLaneTemp), slot);
    if (single) {
      b.emit(Opcode::kCvtsd2ss, Operand::xmm(kLaneTemp),
             Operand::xmm(kLaneTemp));
      b.emit(Opcode::kMovqRX, Operand::gpr(kScratch),
             Operand::xmm(kLaneTemp));
      b.emit(Opcode::kOr, Operand::gpr(kScratch),
             Operand::make_imm(kTagHigh));
      b.emit(Opcode::kStore, slot, Operand::gpr(kScratch));
    } else {
      b.emit(Opcode::kCvtss2sd, Operand::xmm(kLaneTemp),
             Operand::xmm(kLaneTemp));
      b.emit(Opcode::kMovsdMX, slot, Operand::xmm(kLaneTemp));
    }
    b.land(skip);
  }
  b.emit(Opcode::kPopX, Operand::xmm(x));
}

/// Boxes both lanes of a packed result.
void packed_retag(ChainBuilder& b, std::uint8_t x) {
  b.emit(Opcode::kPushX, Operand::xmm(x));
  for (int lane = 0; lane < 2; ++lane) {
    const auto slot = Operand::mem_bd(arch::kSpReg, 8 * lane);
    b.emit(Opcode::kLoad, Operand::gpr(kScratch), slot);
    b.emit(Opcode::kAnd, Operand::gpr(kScratch), Operand::make_imm(kLowMask));
    b.emit(Opcode::kOr, Operand::gpr(kScratch), Operand::make_imm(kTagHigh));
    b.emit(Opcode::kStore, slot, Operand::gpr(kScratch));
  }
  b.emit(Opcode::kPopX, Operand::xmm(x));
}

/// The run's saved scratch state: r0 always, the XMMs as the run needs.
/// Opening a run pushes it, closing one pops it in reverse order; depth()
/// is how far below the program's sp the snippets' sp sits in between.
struct RunFrame {
  ScratchXmms xmms;

  std::int64_t depth() const {
    return 8 + (xmms.mem_temp ? 16 : 0) + (xmms.lane_temp ? 16 : 0);
  }
  void save(ChainBuilder& b) const {
    b.emit(Opcode::kPush, Operand::gpr(kScratch));
    if (xmms.mem_temp) b.emit(Opcode::kPushX, Operand::xmm(kMemTemp));
    if (xmms.lane_temp) b.emit(Opcode::kPushX, Operand::xmm(kLaneTemp));
  }
  void restore(ChainBuilder& b) const {
    if (xmms.lane_temp) b.emit(Opcode::kPopX, Operand::xmm(kLaneTemp));
    if (xmms.mem_temp) b.emit(Opcode::kPopX, Operand::xmm(kMemTemp));
    b.emit(Opcode::kPop, Operand::gpr(kScratch));
  }
};

std::uint64_t origin_of(const Instr& ins) {
  return ins.origin != arch::kNoAddr ? ins.origin : ins.addr;
}

bool reads_f64(const arch::OpcodeInfo& info) {
  return info.reads_dst_f64 || info.reads_src_f64;
}

/// Builds the snippet for an FP intrinsic call.
SnippetChain build_intrin_snippet(const Instr& ins, Precision p,
                                  const SnippetOptions& opts) {
  const auto id = static_cast<in::Id>(ins.src.imm);
  const in::IntrinInfo& info = in::intrin_info(id);
  ChainBuilder b(origin_of(ins));
  const RunFrame frame{opts.run_xmms};
  if (opts.opens_run) frame.save(b);
  const bool single = p == Precision::kSingle;
  FPMIX_CHECK(!single || in::intrin_has_f32_twin(id));
  for (std::uint8_t a = 0; a < info.num_f64_args; ++a) {
    if (single) {
      downcast_check(b, a);  // args in xmm0, xmm1
    } else {
      upcast_check(b, a);
    }
  }
  const in::Id call_id = single ? info.f32_twin : id;
  b.emit(Opcode::kIntrin, Operand::none(),
         Operand::make_imm(static_cast<std::int64_t>(call_id)));
  if (single && info.has_f64_result) retag(b, 0);
  if (opts.closes_run) frame.restore(b);
  return b.finish();
}

}  // namespace

ScratchXmms scratch_xmms(const Instr& ins) {
  return {ins.src.is_mem(), arch::opcode_info(ins.op).fp_lanes == 2};
}

bool uses_scratch(const Instr& ins) {
  for (const Operand* op : {&ins.dst, &ins.src}) {
    if (names_reg(*op, kScratch) || names_reg(*op, arch::kSpReg)) {
      return true;
    }
    if (op->is_xmm() && (op->reg == kMemTemp || op->reg == kLaneTemp)) {
      return true;
    }
  }
  return false;
}

bool needs_snippet(const arch::Instr& ins, Precision p) {
  if (p == Precision::kIgnore) return false;
  if (ins.op == Opcode::kIntrin) {
    const auto id = static_cast<in::Id>(ins.src.imm);
    if (id >= in::Id::kNumIntrinsics || !in::intrin_touches_fp(id)) {
      return false;
    }
    const in::IntrinInfo& info = in::intrin_info(id);
    if (info.num_f64_args == 0) return false;  // nothing to check or narrow
    return true;
  }
  const arch::OpcodeInfo& info = arch::opcode_info(ins.op);
  const bool single =
      p == Precision::kSingle && arch::is_replacement_candidate(ins.op);
  if (single) return true;
  // Double-mapped: only instructions that might consume a tagged slot need
  // wrapping (cvtsi2sd writes a fresh double and reads nothing).
  return reads_f64(info);
}

SnippetChain build_snippet(const arch::Instr& ins, Precision p,
                           const SnippetOptions& options) {
  FPMIX_CHECK(p != Precision::kIgnore);
  // An instruction that names scratch state must see the program's values
  // and must not be undone by a later restore: it is a run of its own.
  FPMIX_CHECK(!uses_scratch(ins) || (options.opens_run && options.closes_run));
  if (ins.op == Opcode::kIntrin) {
    return build_intrin_snippet(ins, p, options);
  }

  const arch::OpcodeInfo& info = arch::opcode_info(ins.op);
  const bool single =
      p == Precision::kSingle && arch::is_replacement_candidate(ins.op);
  FPMIX_CHECK(p != Precision::kSingle || single);
  FPMIX_CHECK(single || reads_f64(info));

  ChainBuilder b(origin_of(ins));
  const ScratchXmms own = scratch_xmms(ins);
  const bool packed = own.lane_temp;
  const bool mem_src = own.mem_temp;

  // Scratch-register conflicts. Dyninst resolves these with register
  // liveness analysis; our code generator simply never allocates r0 or
  // xmm14/xmm15 to program values, and the patcher enforces it here.
  if (ins.dst.is_gpr() && ins.dst.reg == kScratch) {
    throw ProgramError(
        "instrumented FP instruction writes the snippet scratch GPR (r0)");
  }
  for (const Operand* op : {&ins.dst, &ins.src}) {
    if (op->is_xmm() && (op->reg == kMemTemp || op->reg == kLaneTemp) &&
        (mem_src || packed)) {
      throw ProgramError(
          "instrumented FP instruction uses a snippet scratch XMM "
          "(xmm14/xmm15)");
    }
    if (op->is_gpr() && op->reg == arch::kSpReg) {
      // The saves move sp, so the value would be off by the frame depth.
      throw ProgramError(
          "instrumented FP instruction uses the stack pointer as a value");
    }
  }

  RunFrame frame{options.run_xmms};
  frame.xmms |= own;
  if (options.opens_run) frame.save(b);

  // Hoist a memory source into xmm15 ("copies any memory operands into a
  // temporary register, and modifies the replaced instruction to use only
  // register operands"). The saves moved sp down by the frame depth, so an
  // sp-relative address is rebased by it.
  Operand src = ins.src;
  if (mem_src) {
    Operand mem = ins.src;
    const std::int64_t uses = (mem.mem.base == arch::kSpReg ? 1 : 0) +
                              (mem.mem.index == arch::kSpReg ? mem.mem.scale
                                                             : 0);
    const std::int64_t disp = mem.mem.disp + uses * frame.depth();
    if (disp > INT32_MAX) {
      throw ProgramError(
          "sp-relative FP operand displacement overflows once rebased");
    }
    mem.mem.disp = static_cast<std::int32_t>(disp);
    b.emit(packed ? Opcode::kMovapdXM : Opcode::kMovsdXM,
           Operand::xmm(kMemTemp), mem);
    src = Operand::xmm(kMemTemp);
  }

  // Input checks. Dataflow states apply only to register operands (a
  // hoisted memory operand's state is always unknown).
  const TagState src_state =
      mem_src ? TagState::kUnknown : options.src_state;
  if (packed) {
    if (info.reads_dst_f64) packed_check(b, ins.dst.reg, single);
    if (info.reads_src_f64) packed_check(b, src.reg, single);
  } else {
    if (info.reads_dst_f64) {
      if (single) downcast_check(b, ins.dst.reg, options.dst_state);
      else upcast_check(b, ins.dst.reg, options.dst_state);
    }
    if (info.reads_src_f64 && src.is_xmm()) {
      // Same-register operands were just converted by the dst check.
      const TagState eff =
          (ins.dst.is_xmm() && info.reads_dst_f64 &&
           src.reg == ins.dst.reg)
              ? (single ? TagState::kTagged : TagState::kPlain)
              : src_state;
      if (single) downcast_check(b, src.reg, eff);
      else upcast_check(b, src.reg, eff);
    }
  }

  // The operation itself, possibly rewritten to its single twin.
  const Opcode op = single ? info.single_twin : ins.op;
  b.emit(op, ins.dst, src);

  // Box single results. A scalar twin that read its dst (addss, subss,
  // mulss, divss, minss, maxss) keeps it boxed: the dst check boxed it and
  // the op writes only the low 32 bits.
  if (single && info.writes_dst_f64) {
    if (packed) {
      packed_retag(b, ins.dst.reg);
    } else if (!info.reads_dst_f64) {
      retag(b, ins.dst.reg);
    }
  }

  if (options.closes_run) frame.restore(b);
  return b.finish();
}

}  // namespace fpmix::instrument
