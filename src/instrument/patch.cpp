#include "instrument/patch.hpp"

#include <array>

#include "arch/disasm.hpp"
#include "arch/intrinsics.hpp"
#include "program/layout.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace fpmix::instrument {

using arch::Instr;
using arch::Opcode;
using config::Precision;
namespace in = arch::intrinsics;

namespace {

bool sets_flags(Opcode op) {
  return op == Opcode::kCmp || op == Opcode::kTest ||
         op == Opcode::kUcomisd || op == Opcode::kUcomiss;
}

/// Old-block-index sentinel used while splicing: edges still pointing into
/// the original block numbering are encoded as -(old + kOldBias) and fixed
/// up once the new block list is complete.
constexpr program::BlockIndex kOldBias = 1000000;

program::BlockIndex encode_old(program::BlockIndex old) {
  return old == program::kNoIndex ? program::kNoIndex : -(old + kOldBias);
}

bool is_encoded_old(program::BlockIndex e) { return e <= -kOldBias; }

program::BlockIndex decode_old(program::BlockIndex e) {
  return -e - kOldBias;
}

/// Verifies the paper's implicit precondition that condition flags are not
/// live across an instrumented instruction (snippets clobber flags). Our
/// code generator always emits compare+branch adjacently, so this never
/// fires on DSL-built binaries; it protects hand-written programs.
/// `chains[i]` is the factory's answer for `blk.instrs[i]`.
void check_flag_liveness(
    const program::Function& fn, const program::BasicBlock& blk,
    const std::vector<std::optional<SnippetChain>>& chains) {
  const auto would_wrap = [&](std::ptrdiff_t i) {
    return chains[static_cast<std::size_t>(i)].has_value();
  };
  if (!blk.ends_with_cond_branch()) return;
  // Find the last flag setter before the terminator.
  std::ptrdiff_t setter = -1;
  for (std::ptrdiff_t i = 0;
       i < static_cast<std::ptrdiff_t>(blk.instrs.size()) - 1; ++i) {
    if (sets_flags(blk.instrs[static_cast<std::size_t>(i)].op)) setter = i;
  }
  for (std::ptrdiff_t i = setter + 1;
       i < static_cast<std::ptrdiff_t>(blk.instrs.size()) - 1; ++i) {
    if (would_wrap(i)) {
      const Instr& ins = blk.instrs[static_cast<std::size_t>(i)];
      throw ProgramError(strformat(
          "function %s: flags are live across instrumented instruction "
          "'%s' at 0x%llx",
          fn.name.c_str(), arch::instr_to_string(ins).c_str(),
          static_cast<unsigned long long>(ins.addr)));
    }
  }
  if (setter == -1) {
    // Flags flow in from a predecessor; any snippet in this block would
    // clobber them before the terminator consumes them.
    for (std::ptrdiff_t i = 0;
         i + 1 < static_cast<std::ptrdiff_t>(blk.instrs.size()); ++i) {
      if (would_wrap(i)) {
        throw ProgramError(strformat(
            "function %s: block consumes inherited flags but contains "
            "instrumented instructions", fn.name.c_str()));
      }
    }
  }
}

/// Intra-block tag-state tracker for the dataflow optimization. Tracks, for
/// each XMM register, whether its lane-0 slot is known to hold a plain
/// double, a boxed single, or unknown bits.
class TagStateTracker {
 public:
  void reset() { states_.fill(TagState::kUnknown); }

  TagState state_of(const arch::Operand& op) const {
    return op.is_xmm() ? states_[op.reg] : TagState::kUnknown;
  }

  /// Updates state for an instruction the patcher left untouched.
  void step_unwrapped(const Instr& ins) {
    switch (ins.op) {
      case Opcode::kMovsdXX:
      case Opcode::kMovapdXX:
        states_[ins.dst.reg] = states_[ins.src.reg];
        break;
      case Opcode::kCvtss2sd:
      case Opcode::kCvtsi2sd:
        states_[ins.dst.reg] = TagState::kPlain;
        break;
      case Opcode::kCall:
        reset();  // callee may leave anything in any register
        break;
      case Opcode::kIntrin: {
        const auto id = static_cast<in::Id>(ins.src.imm);
        if (id < in::Id::kNumIntrinsics &&
            in::intrin_info(id).has_f64_result) {
          states_[0] = TagState::kPlain;  // unwrapped intrinsics stay f64
        }
        break;
      }
      default:
        if (ins.dst.is_xmm()) states_[ins.dst.reg] = TagState::kUnknown;
        break;
    }
  }

  /// Updates state after a wrapped instruction: exactly the registers the
  /// snippet checked were converted in place (write-back), and an f64
  /// result is boxed (single) or plain (double).
  void step_wrapped(const Instr& ins, bool single) {
    const arch::OpcodeInfo& info = arch::opcode_info(ins.op);
    const TagState converted =
        single ? TagState::kTagged : TagState::kPlain;
    if (ins.op == Opcode::kIntrin) {
      // Arguments live in xmm0.. and an f64 result replaces xmm0 in the
      // same form as the converted arguments.
      const in::IntrinInfo& ii =
          in::intrin_info(static_cast<in::Id>(ins.src.imm));
      for (std::uint8_t a = 0; a < ii.num_f64_args; ++a) {
        states_[a] = converted;
      }
      return;
    }
    if (info.fp_lanes == 2) {
      // Packed states are not tracked (lane-wise); be conservative.
      if (ins.dst.is_xmm()) states_[ins.dst.reg] = TagState::kUnknown;
      if (ins.src.is_xmm()) states_[ins.src.reg] = TagState::kUnknown;
      return;
    }
    if (info.reads_dst_f64 && ins.dst.is_xmm()) {
      states_[ins.dst.reg] = converted;
    }
    if (info.reads_src_f64 && ins.src.is_xmm()) {
      states_[ins.src.reg] = converted;
    }
    if (ins.dst.is_xmm() && !sets_flags(ins.op)) {
      // Compares only read their dst; any other xmm dst is overwritten, and
      // a non-f64 result (cvtsd2ss's float) has no known tag state.
      states_[ins.dst.reg] =
          info.writes_dst_f64 ? converted : TagState::kUnknown;
    }
  }

 private:
  std::array<TagState, arch::kNumXmms> states_{};
};

/// Copies the non-function program metadata (sections, bases, entry).
program::Program copy_meta(const program::Program& prog) {
  program::Program out;
  out.code_base = prog.code_base;
  out.data_base = prog.data_base;
  out.data = prog.data;
  out.bss_base = prog.bss_base;
  out.bss_size = prog.bss_size;
  out.memory_size = prog.memory_size;
  out.entry_function = prog.entry_function;
  return out;
}

}  // namespace

program::Function splice_function(const program::Function& fn,
                                  const SnippetFactory& factory,
                                  InstrumentStats* stats,
                                  const std::function<void()>& on_block_start) {
  program::Function nf;
  nf.name = fn.name;
  nf.module = fn.module;
  nf.orig_addr = fn.orig_addr;

  std::vector<program::BlockIndex> head_of_old(fn.blocks.size());
  std::vector<program::BasicBlock> blocks;
  std::vector<std::optional<SnippetChain>> chains;

  for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
    const program::BasicBlock& blk = fn.blocks[bi];
    head_of_old[bi] = static_cast<program::BlockIndex>(blocks.size());

    if (on_block_start) on_block_start();
    chains.clear();
    for (const Instr& ins : blk.instrs) chains.push_back(factory(ins));
    check_flag_liveness(fn, blk, chains);

    program::BasicBlock cur;
    cur.orig_addr = blk.orig_addr;
    for (std::size_t ii = 0; ii < blk.instrs.size(); ++ii) {
      const Instr& ins = blk.instrs[ii];
      std::optional<SnippetChain>& chain = chains[ii];
      if (!chain.has_value()) {
        cur.instrs.push_back(ins);
        continue;
      }

      // Section 2.4: split the block around the instruction and splice
      // the snippet chain in its place.
      if (stats != nullptr) {
        ++stats->wrapped;
        stats->snippet_instrs += chain->instruction_count();
      }
      const auto chain_base =
          static_cast<program::BlockIndex>(blocks.size() + 1);
      cur.fallthrough = chain_base;
      if (cur.orig_addr == arch::kNoAddr) cur.orig_addr = ins.addr;
      blocks.push_back(std::move(cur));
      const auto exit_index = static_cast<program::BlockIndex>(
          chain_base +
          static_cast<program::BlockIndex>(chain->blocks.size()));
      for (program::BasicBlock& sb : chain->blocks) {
        const auto fix = [&](program::BlockIndex e) {
          if (e == SnippetChain::kChainExit) return exit_index;
          if (e == program::kNoIndex) return program::kNoIndex;
          return static_cast<program::BlockIndex>(chain_base + e);
        };
        sb.taken = fix(sb.taken);
        sb.fallthrough = fix(sb.fallthrough);
        if (sb.ends_with_branch()) {
          sb.instrs.back().src.imm = sb.taken;
        }
        if (sb.orig_addr == arch::kNoAddr) sb.orig_addr = ins.addr;
        blocks.push_back(std::move(sb));
      }
      cur = program::BasicBlock{};
      cur.orig_addr = ins.addr;
    }

    // Close the final fragment with the original block's terminator edges
    // (encoded as old indices; remapped below).
    cur.taken = encode_old(blk.taken);
    cur.fallthrough = encode_old(blk.fallthrough);
    blocks.push_back(std::move(cur));
  }

  // Remap old edges to the heads of their rebuilt blocks.
  for (program::BasicBlock& b : blocks) {
    if (is_encoded_old(b.taken)) {
      b.taken = head_of_old[static_cast<std::size_t>(decode_old(b.taken))];
      if (b.ends_with_branch()) b.instrs.back().src.imm = b.taken;
    }
    if (is_encoded_old(b.fallthrough)) {
      b.fallthrough =
          head_of_old[static_cast<std::size_t>(decode_old(b.fallthrough))];
    }
  }

  nf.blocks = std::move(blocks);
  return nf;
}

program::Program splice_snippets(const program::Program& prog,
                                 const SnippetFactory& factory,
                                 InstrumentStats* stats,
                                 const std::function<void()>& on_block_start) {
  prog.validate();
  program::Program out = copy_meta(prog);
  for (const program::Function& fn : prog.functions) {
    out.functions.push_back(
        splice_function(fn, factory, stats, on_block_start));
  }
  out.validate();
  return out;
}

std::string precision_signature(const config::StructureIndex& index,
                                const config::PrecisionConfig& cfg,
                                std::size_t f, const program::Function& fn) {
  const auto stale = [&] {
    return ProgramError(strformat(
        "function %s at 0x%llx is unknown to the structure index (stale "
        "index?)",
        fn.name.c_str(), static_cast<unsigned long long>(fn.orig_addr)));
  };
  if (f >= index.funcs().size()) throw stale();
  const config::FuncEntry& fe = index.funcs()[f];
  if (fe.blocks.size() != fn.blocks.size()) throw stale();
  std::string sig;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    const std::vector<Instr>& instrs = fn.blocks[b].instrs;
    const std::vector<std::size_t>& ids = index.blocks()[fe.blocks[b]].instrs;
    if (ids.size() != instrs.size()) throw stale();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const config::InstrEntry& ie = index.instrs()[ids[k]];
      if (ie.addr != instrs[k].addr) throw stale();
      // A `single` flag on an aggregate also covers non-candidate FP
      // instructions inside it (e.g. conversions, output calls); those
      // execute in double precision with tag checks.
      sig.push_back(
          config::precision_flag(cfg.effective_precision(index, ids[k])));
    }
  }
  return sig;
}

namespace {

/// True when a run of snippets may continue across the unwrapped `ins`:
/// it must not transfer control, move sp or touch the stack (push/pop,
/// call, ret, intrinsics), write memory (a store below sp could clobber a
/// saved slot), or name the run's scratch state or sp.
bool run_continues_across(const Instr& ins) {
  const arch::OpcodeInfo& info = arch::opcode_info(ins.op);
  if (info.is_branch || info.is_call || info.is_ret || info.is_halt) {
    return false;
  }
  switch (ins.op) {
    case Opcode::kPush:
    case Opcode::kPop:
    case Opcode::kPushX:
    case Opcode::kPopX:
    case Opcode::kIntrin:
      return false;
    default:
      break;
  }
  return !ins.dst.is_mem() && !uses_scratch(ins);
}

/// How one original instruction is patched.
struct PatchPlan {
  Precision p = Precision::kDouble;
  bool wrapped = false;
  /// Run placement of a wrapped instruction's snippet.
  bool opens_run = false;
  bool closes_run = false;
  ScratchXmms run_xmms;
};

/// Plans `fn` from its signature: each instruction's precision, whether it
/// is wrapped, and the runs of wrapped instructions that share one save of
/// the scratch state. A run never leaves its original block.
std::vector<PatchPlan> plan_function(const program::Function& fn,
                                     std::string_view signature) {
  std::vector<PatchPlan> plan;
  for (const program::BasicBlock& blk : fn.blocks) {
    bool open = false;
    std::size_t first = 0, last = 0;
    ScratchXmms xmms;
    const auto close = [&] {
      if (!open) return;
      for (std::size_t k = first; k <= last; ++k) plan[k].run_xmms = xmms;
      plan[first].opens_run = true;
      plan[last].closes_run = true;
      open = false;
    };
    for (const Instr& ins : blk.instrs) {
      FPMIX_CHECK(plan.size() < signature.size());
      const std::optional<Precision> p =
          config::precision_from_flag(signature[plan.size()]);
      FPMIX_CHECK(p.has_value());
      PatchPlan& pp = plan.emplace_back();
      pp.p = *p;
      pp.wrapped = needs_snippet(ins, *p);
      if (!pp.wrapped) {
        if (!run_continues_across(ins)) close();
        continue;
      }
      const std::size_t at = plan.size() - 1;
      if (uses_scratch(ins)) {
        close();
        pp.opens_run = pp.closes_run = true;
        continue;
      }
      if (!open) {
        open = true;
        first = at;
        xmms = {};
      }
      last = at;
      xmms |= scratch_xmms(ins);
    }
    close();
  }
  FPMIX_CHECK(plan.size() == signature.size());
  return plan;
}

}  // namespace

program::Function instrument_function(const program::Function& fn,
                                      std::string_view signature,
                                      InstrumentStats* stats) {
  InstrumentStats local;
  const std::vector<PatchPlan> plan = plan_function(fn, signature);

  // The dataflow facts are strictly intra-block: the tracker resets at
  // every block head (blocks can have multiple predecessors with different
  // tag states).
  TagStateTracker tracker;
  std::size_t next = 0;

  const auto factory = [&](const Instr& ins) -> std::optional<SnippetChain> {
    const PatchPlan& pp = plan[next++];
    if (pp.p == Precision::kIgnore) ++local.ignored;
    if (!pp.wrapped) {
      tracker.step_unwrapped(ins);
      return std::nullopt;
    }
    SnippetOptions sopts;
    sopts.dst_state = tracker.state_of(ins.dst);
    sopts.src_state = tracker.state_of(ins.src);
    sopts.opens_run = pp.opens_run;
    sopts.closes_run = pp.closes_run;
    sopts.run_xmms = pp.run_xmms;
    if (sopts.dst_state != TagState::kUnknown) ++local.checks_elided;
    if (sopts.src_state != TagState::kUnknown) ++local.checks_elided;
    const bool single = pp.p == Precision::kSingle;
    tracker.step_wrapped(ins, single);
    if (single) ++local.replaced_single;
    return build_snippet(ins, pp.p, sopts);
  };

  program::Function nf =
      splice_function(fn, factory, &local, [&] { tracker.reset(); });
  FPMIX_CHECK(next == signature.size());
  if (stats != nullptr) *stats = local;
  return nf;
}

InstrumentResult instrument(const program::Program& prog,
                            const config::StructureIndex& index,
                            const config::PrecisionConfig& cfg) {
  prog.validate();

  InstrumentResult result;
  result.patched = copy_meta(prog);
  for (std::size_t f = 0; f < prog.functions.size(); ++f) {
    const program::Function& fn = prog.functions[f];
    InstrumentStats fs;
    result.patched.functions.push_back(instrument_function(
        fn, precision_signature(index, cfg, f, fn), &fs));
    result.stats.add(fs);
  }
  result.patched.validate();
  return result;
}

program::Image instrument_image(const program::Image& image,
                                const config::StructureIndex& index,
                                const config::PrecisionConfig& cfg,
                                InstrumentStats* stats) {
  const program::Program prog = program::lift(image);
  InstrumentResult r = instrument(prog, index, cfg);
  if (stats != nullptr) *stats = r.stats;
  return program::relayout(r.patched);
}

}  // namespace fpmix::instrument
