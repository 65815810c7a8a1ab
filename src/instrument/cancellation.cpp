#include "instrument/cancellation.hpp"

#include "arch/tag.hpp"
#include "instrument/chain_builder.hpp"
#include "instrument/patch.hpp"
#include "program/layout.hpp"
#include "support/error.hpp"

namespace fpmix::instrument {

using arch::Instr;
using arch::Opcode;
using arch::Operand;

namespace {

constexpr std::uint8_t kScratchA = 0;
constexpr std::uint8_t kScratchB = 1;

bool is_cancellation_site(const Instr& ins) {
  return ins.op == Opcode::kAddsd || ins.op == Opcode::kSubsd;
}

/// Emits "r = biased_exponent(bits in r)": shr 52, and 0x7FF.
void exponent_of(ChainBuilder& b, std::uint8_t reg) {
  b.emit(Opcode::kShr, Operand::gpr(reg), Operand::make_imm(52));
  b.emit(Opcode::kAnd, Operand::gpr(reg), Operand::make_imm(0x7FF));
}

SnippetChain build_cancel_snippet(const Instr& ins,
                                  const CancellationOptions& opts,
                                  const CancellationLayout& layout,
                                  std::size_t slot) {
  const std::uint64_t origin =
      ins.origin != arch::kNoAddr ? ins.origin : ins.addr;
  ChainBuilder b(origin);

  b.emit(Opcode::kPush, Operand::gpr(kScratchA));
  b.emit(Opcode::kPush, Operand::gpr(kScratchB));

  // e_a = exponent(dst).
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratchA), Operand::xmm(ins.dst.reg));
  exponent_of(b, kScratchA);
  // e_b = exponent(src); memory operands are read directly (values are not
  // modified by this analysis, so no hoisting is needed).
  if (ins.src.is_xmm()) {
    b.emit(Opcode::kMovqRX, Operand::gpr(kScratchB),
           Operand::xmm(ins.src.reg));
  } else {
    b.emit(Opcode::kLoad, Operand::gpr(kScratchB), ins.src);
  }
  exponent_of(b, kScratchB);
  // r0 = max(e_a, e_b).
  b.emit(Opcode::kCmp, Operand::gpr(kScratchA), Operand::gpr(kScratchB));
  const auto no_swap = b.branch_fwd(Opcode::kJge);
  b.emit(Opcode::kMov, Operand::gpr(kScratchA), Operand::gpr(kScratchB));
  b.land(no_swap);

  // The original operation, untouched.
  b.emit(ins.op, ins.dst, ins.src);

  // e_r = exponent(result); cancelled bits = max_in - e_r.
  b.emit(Opcode::kMovqRX, Operand::gpr(kScratchB),
         Operand::xmm(ins.dst.reg));
  exponent_of(b, kScratchB);
  b.emit(Opcode::kSub, Operand::gpr(kScratchA), Operand::gpr(kScratchB));

  // Record when cancelled bits >= threshold.
  b.emit(Opcode::kCmp, Operand::gpr(kScratchA),
         Operand::make_imm(opts.min_cancel_bits));
  const auto skip_record = b.branch_fwd(Opcode::kJl);
  {
    // Per-instruction event counter.
    const auto slot_mem = Operand::mem_abs(static_cast<std::int32_t>(
        layout.counter_base + 8 * slot));
    b.emit(Opcode::kLoad, Operand::gpr(kScratchB), slot_mem);
    b.emit(Opcode::kAdd, Operand::gpr(kScratchB), Operand::make_imm(1));
    b.emit(Opcode::kStore, slot_mem, Operand::gpr(kScratchB));
    // Histogram bin min(bits, 63).
    b.emit(Opcode::kCmp, Operand::gpr(kScratchA), Operand::make_imm(63));
    const auto in_range = b.branch_fwd(Opcode::kJle);
    b.emit(Opcode::kMov, Operand::gpr(kScratchA), Operand::make_imm(63));
    b.land(in_range);
    const auto hist_mem = Operand::mem_bisd(
        arch::kNoReg, kScratchA, 8,
        static_cast<std::int32_t>(layout.histogram_base));
    b.emit(Opcode::kLoad, Operand::gpr(kScratchB), hist_mem);
    b.emit(Opcode::kAdd, Operand::gpr(kScratchB), Operand::make_imm(1));
    b.emit(Opcode::kStore, hist_mem, Operand::gpr(kScratchB));
  }
  b.land(skip_record);

  // Shadow-value maintenance loop (every operation): the expensive part of
  // the cited tools. An LCG step per iteration on the shadow cell.
  if (opts.shadow_iters > 0) {
    const auto shadow_mem = Operand::mem_abs(
        static_cast<std::int32_t>(layout.shadow_base));
    b.emit(Opcode::kMov, Operand::gpr(kScratchB),
           Operand::make_imm(opts.shadow_iters));
    const auto loop = b.mark();
    b.emit(Opcode::kLoad, Operand::gpr(kScratchA), shadow_mem);
    b.emit(Opcode::kImul, Operand::gpr(kScratchA),
           Operand::make_imm(static_cast<std::int64_t>(
               6364136223846793005ull)));
    b.emit(Opcode::kAdd, Operand::gpr(kScratchA),
           Operand::make_imm(static_cast<std::int64_t>(
               1442695040888963407ull)));
    b.emit(Opcode::kStore, shadow_mem, Operand::gpr(kScratchA));
    b.emit(Opcode::kSub, Operand::gpr(kScratchB), Operand::make_imm(1));
    b.emit(Opcode::kCmp, Operand::gpr(kScratchB), Operand::make_imm(0));
    b.branch_back(Opcode::kJg, loop);
  }

  b.emit(Opcode::kPop, Operand::gpr(kScratchB));
  b.emit(Opcode::kPop, Operand::gpr(kScratchA));
  return b.finish();
}

}  // namespace

CancellationResult instrument_cancellation(
    const program::Image& image, const CancellationOptions& options) {
  program::Program prog = program::lift(image);

  // Pass 1: count sites and lay out the analysis area after bss.
  std::size_t sites = 0;
  for (const auto& fn : prog.functions) {
    for (const auto& blk : fn.blocks) {
      for (const auto& ins : blk.instrs) {
        if (is_cancellation_site(ins)) ++sites;
      }
    }
  }
  CancellationResult out;
  CancellationLayout& lay = out.layout;
  const std::uint64_t bss_base =
      prog.bss_base != 0 ? prog.bss_base : prog.data_base + prog.data.size();
  std::uint64_t cursor = (bss_base + prog.bss_size + 63) & ~63ull;
  lay.counter_base = cursor;
  lay.num_slots = sites;
  cursor += 8 * sites;
  lay.histogram_base = cursor;
  cursor += 8 * 64;
  lay.shadow_base = cursor;
  cursor += 8;
  prog.bss_size = cursor - bss_base;
  constexpr std::uint64_t kStackReserve = 1ull << 20;
  while (bss_base + prog.bss_size + kStackReserve > prog.memory_size) {
    prog.memory_size *= 2;
  }

  // Pass 2: splice the analysis snippets.
  std::size_t next_slot = 0;
  const auto factory =
      [&](const Instr& ins) -> std::optional<SnippetChain> {
    if (!is_cancellation_site(ins)) return std::nullopt;
    const std::size_t slot = next_slot++;
    lay.slot_origin.push_back(ins.origin != arch::kNoAddr ? ins.origin
                                                          : ins.addr);
    return build_cancel_snippet(ins, options, lay, slot);
  };
  InstrumentStats stats;
  const program::Program patched =
      splice_snippets(prog, factory, &stats);
  FPMIX_CHECK(next_slot == sites);
  out.image = program::relayout(patched);
  return out;
}

CancellationReport read_cancellation_report(
    const vm::Machine& machine, const CancellationLayout& layout) {
  CancellationReport rep;
  for (std::size_t s = 0; s < layout.num_slots; ++s) {
    const std::uint64_t count =
        machine.read_memory_u64(layout.counter_base + 8 * s);
    if (count != 0) {
      rep.events_by_addr[layout.slot_origin[s]] += count;
      rep.total_events += count;
    }
  }
  for (std::size_t bin = 0; bin < 64; ++bin) {
    rep.bits_histogram[bin] =
        machine.read_memory_u64(layout.histogram_base + 8 * bin);
  }
  return rep;
}

}  // namespace fpmix::instrument
