#include "vm/exec_image.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "arch/encode.hpp"
#include "arch/opcode.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace fpmix::vm {

using arch::Instr;
using arch::Opcode;
using arch::Operand;

namespace {

void fill_ea(const arch::MemRef& m, MicroOp* u) {
  u->ea_base = m.base == arch::kNoReg ? kZeroRegSlot : m.base;
  u->ea_index = m.index == arch::kNoReg ? kZeroRegSlot : m.index;
  // Decode guarantees scale is 1/2/4/8; a shift keeps the index term off
  // the multiplier on the engine's address critical path.
  u->ea_shift = static_cast<std::uint8_t>(std::countr_zero(m.scale));
  u->ea_disp = m.disp;
}

/// A form arch::validate rejects: every image that reaches lowering was
/// decoded (and so validated), so only a hand-built Instr can get here.
[[noreturn]] void unlowerable(const Instr& ins) {
  throw VmError(strformat(
      "cannot lower opcode %u with dst kind %d, src kind %d: not a "
      "validated operand form",
      static_cast<unsigned>(ins.op), static_cast<int>(ins.dst.kind),
      static_cast<int>(ins.src.kind)));
}

/// Picks the XX or XM variant of an FP op from the src operand and fills
/// the shared fields (dst xmm in `a`; src xmm in `b` or the address
/// recipe).
MicroKind xmm_variant(const Instr& ins, MicroKind xx, MicroKind xm,
                      MicroOp* u) {
  if (!ins.dst.is_xmm()) unlowerable(ins);
  u->a = ins.dst.reg;
  if (ins.src.is_xmm()) {
    u->b = ins.src.reg;
    return xx;
  }
  if (ins.src.is_mem()) {
    fill_ea(ins.src.mem, u);
    return xm;
  }
  unlowerable(ins);
}

/// Same scheme for two-operand integer ops (gpr,gpr / gpr,imm).
MicroKind int_variant(const Instr& ins, MicroKind rr, MicroKind ri,
                      MicroOp* u) {
  if (!ins.dst.is_gpr()) unlowerable(ins);
  u->a = ins.dst.reg;
  if (ins.src.is_gpr()) {
    u->b = ins.src.reg;
    return rr;
  }
  if (ins.src.is_imm()) {
    u->imm = ins.src.imm;
    return ri;
  }
  unlowerable(ins);
}

}  // namespace

MicroOp lower_instr(const Instr& ins) {
  MicroOp u;
  const auto set = [&u](MicroKind k) {
    u.kind = static_cast<std::uint16_t>(k);
  };
  switch (ins.op) {
    case Opcode::kNop: set(MicroKind::kNop); break;
    case Opcode::kHalt: set(MicroKind::kHalt); break;

    case Opcode::kJmp: set(MicroKind::kJmp); u.imm = ins.src.imm; break;
    case Opcode::kJe: set(MicroKind::kJe); u.imm = ins.src.imm; break;
    case Opcode::kJne: set(MicroKind::kJne); u.imm = ins.src.imm; break;
    case Opcode::kJl: set(MicroKind::kJl); u.imm = ins.src.imm; break;
    case Opcode::kJle: set(MicroKind::kJle); u.imm = ins.src.imm; break;
    case Opcode::kJg: set(MicroKind::kJg); u.imm = ins.src.imm; break;
    case Opcode::kJge: set(MicroKind::kJge); u.imm = ins.src.imm; break;
    case Opcode::kJb: set(MicroKind::kJb); u.imm = ins.src.imm; break;
    case Opcode::kJbe: set(MicroKind::kJbe); u.imm = ins.src.imm; break;
    case Opcode::kJa: set(MicroKind::kJa); u.imm = ins.src.imm; break;
    case Opcode::kJae: set(MicroKind::kJae); u.imm = ins.src.imm; break;
    case Opcode::kCall:
      set(MicroKind::kCall);
      u.imm = ins.src.imm;
      u.aux = ins.addr + ins.size;  // return address, precomputed
      break;
    case Opcode::kRet: set(MicroKind::kRet); break;

    case Opcode::kMov:
      set(int_variant(ins, MicroKind::kMovRR, MicroKind::kMovRI, &u));
      break;
    case Opcode::kLoad:
      if (!ins.dst.is_gpr() || !ins.src.is_mem()) unlowerable(ins);
      set(MicroKind::kLoad);
      u.a = ins.dst.reg;
      fill_ea(ins.src.mem, &u);
      break;
    case Opcode::kStore:
      if (!ins.dst.is_mem() || !ins.src.is_gpr()) unlowerable(ins);
      set(MicroKind::kStore);
      u.b = ins.src.reg;
      fill_ea(ins.dst.mem, &u);
      break;
    case Opcode::kLea:
      if (!ins.dst.is_gpr() || !ins.src.is_mem()) unlowerable(ins);
      set(MicroKind::kLea);
      u.a = ins.dst.reg;
      fill_ea(ins.src.mem, &u);
      break;

    case Opcode::kAdd:
      set(int_variant(ins, MicroKind::kAddRR, MicroKind::kAddRI, &u));
      break;
    case Opcode::kSub:
      set(int_variant(ins, MicroKind::kSubRR, MicroKind::kSubRI, &u));
      break;
    case Opcode::kImul:
      set(int_variant(ins, MicroKind::kImulRR, MicroKind::kImulRI, &u));
      break;
    case Opcode::kIdiv:
      set(int_variant(ins, MicroKind::kIdivRR, MicroKind::kIdivRI, &u));
      break;
    case Opcode::kIrem:
      set(int_variant(ins, MicroKind::kIremRR, MicroKind::kIremRI, &u));
      break;
    case Opcode::kAnd:
      set(int_variant(ins, MicroKind::kAndRR, MicroKind::kAndRI, &u));
      break;
    case Opcode::kOr:
      set(int_variant(ins, MicroKind::kOrRR, MicroKind::kOrRI, &u));
      break;
    case Opcode::kXor:
      set(int_variant(ins, MicroKind::kXorRR, MicroKind::kXorRI, &u));
      break;
    case Opcode::kShl:
      set(int_variant(ins, MicroKind::kShlRR, MicroKind::kShlRI, &u));
      break;
    case Opcode::kShr:
      set(int_variant(ins, MicroKind::kShrRR, MicroKind::kShrRI, &u));
      break;
    case Opcode::kSar:
      set(int_variant(ins, MicroKind::kSarRR, MicroKind::kSarRI, &u));
      break;
    case Opcode::kCmp:
      set(int_variant(ins, MicroKind::kCmpRR, MicroKind::kCmpRI, &u));
      break;
    case Opcode::kTest:
      set(int_variant(ins, MicroKind::kTestRR, MicroKind::kTestRI, &u));
      break;
    case Opcode::kPush: set(MicroKind::kPush); u.a = ins.dst.reg; break;
    case Opcode::kPop: set(MicroKind::kPop); u.a = ins.dst.reg; break;

    case Opcode::kMovqXR:
      set(MicroKind::kMovqXR);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kMovqRX:
      set(MicroKind::kMovqRX);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kMovsdXX:
      set(MicroKind::kMovsdXX);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kMovsdXM:
      set(MicroKind::kMovsdXM);
      u.a = ins.dst.reg;
      fill_ea(ins.src.mem, &u);
      break;
    case Opcode::kMovsdMX:
      set(MicroKind::kMovsdMX);
      u.b = ins.src.reg;
      fill_ea(ins.dst.mem, &u);
      break;
    case Opcode::kMovssXM:
      set(MicroKind::kMovssXM);
      u.a = ins.dst.reg;
      fill_ea(ins.src.mem, &u);
      break;
    case Opcode::kMovssMX:
      set(MicroKind::kMovssMX);
      u.b = ins.src.reg;
      fill_ea(ins.dst.mem, &u);
      break;
    case Opcode::kMovapdXX:
      set(MicroKind::kMovapdXX);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kMovapdXM:
      set(MicroKind::kMovapdXM);
      u.a = ins.dst.reg;
      fill_ea(ins.src.mem, &u);
      break;
    case Opcode::kMovapdMX:
      set(MicroKind::kMovapdMX);
      u.b = ins.src.reg;
      fill_ea(ins.dst.mem, &u);
      break;
    case Opcode::kPushX: set(MicroKind::kPushX); u.a = ins.dst.reg; break;
    case Opcode::kPopX: set(MicroKind::kPopX); u.a = ins.dst.reg; break;

    case Opcode::kAddsd:
      set(xmm_variant(ins, MicroKind::kAddsdXX, MicroKind::kAddsdXM, &u));
      break;
    case Opcode::kSubsd:
      set(xmm_variant(ins, MicroKind::kSubsdXX, MicroKind::kSubsdXM, &u));
      break;
    case Opcode::kMulsd:
      set(xmm_variant(ins, MicroKind::kMulsdXX, MicroKind::kMulsdXM, &u));
      break;
    case Opcode::kDivsd:
      set(xmm_variant(ins, MicroKind::kDivsdXX, MicroKind::kDivsdXM, &u));
      break;
    case Opcode::kMinsd:
      set(xmm_variant(ins, MicroKind::kMinsdXX, MicroKind::kMinsdXM, &u));
      break;
    case Opcode::kMaxsd:
      set(xmm_variant(ins, MicroKind::kMaxsdXX, MicroKind::kMaxsdXM, &u));
      break;
    case Opcode::kSqrtsd:
      set(xmm_variant(ins, MicroKind::kSqrtsdXX, MicroKind::kSqrtsdXM, &u));
      break;
    case Opcode::kUcomisd:
      set(xmm_variant(ins, MicroKind::kUcomisdXX, MicroKind::kUcomisdXM,
                      &u));
      break;
    case Opcode::kCvtsd2ss:
      set(xmm_variant(ins, MicroKind::kCvtsd2ssXX, MicroKind::kCvtsd2ssXM,
                      &u));
      break;
    case Opcode::kCvtss2sd:
      set(xmm_variant(ins, MicroKind::kCvtss2sdXX, MicroKind::kCvtss2sdXM,
                      &u));
      break;
    case Opcode::kCvtsi2sd:
      set(MicroKind::kCvtsi2sd);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kCvttsd2si:
      set(MicroKind::kCvttsd2si);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;

    case Opcode::kAddss:
      set(xmm_variant(ins, MicroKind::kAddssXX, MicroKind::kAddssXM, &u));
      break;
    case Opcode::kSubss:
      set(xmm_variant(ins, MicroKind::kSubssXX, MicroKind::kSubssXM, &u));
      break;
    case Opcode::kMulss:
      set(xmm_variant(ins, MicroKind::kMulssXX, MicroKind::kMulssXM, &u));
      break;
    case Opcode::kDivss:
      set(xmm_variant(ins, MicroKind::kDivssXX, MicroKind::kDivssXM, &u));
      break;
    case Opcode::kMinss:
      set(xmm_variant(ins, MicroKind::kMinssXX, MicroKind::kMinssXM, &u));
      break;
    case Opcode::kMaxss:
      set(xmm_variant(ins, MicroKind::kMaxssXX, MicroKind::kMaxssXM, &u));
      break;
    case Opcode::kSqrtss:
      set(xmm_variant(ins, MicroKind::kSqrtssXX, MicroKind::kSqrtssXM, &u));
      break;
    case Opcode::kUcomiss:
      set(xmm_variant(ins, MicroKind::kUcomissXX, MicroKind::kUcomissXM,
                      &u));
      break;
    case Opcode::kCvtsi2ss:
      set(MicroKind::kCvtsi2ss);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;
    case Opcode::kCvttss2si:
      set(MicroKind::kCvttss2si);
      u.a = ins.dst.reg;
      u.b = ins.src.reg;
      break;

    case Opcode::kAddpd:
      set(xmm_variant(ins, MicroKind::kAddpdXX, MicroKind::kAddpdXM, &u));
      break;
    case Opcode::kSubpd:
      set(xmm_variant(ins, MicroKind::kSubpdXX, MicroKind::kSubpdXM, &u));
      break;
    case Opcode::kMulpd:
      set(xmm_variant(ins, MicroKind::kMulpdXX, MicroKind::kMulpdXM, &u));
      break;
    case Opcode::kDivpd:
      set(xmm_variant(ins, MicroKind::kDivpdXX, MicroKind::kDivpdXM, &u));
      break;
    case Opcode::kSqrtpd:
      set(xmm_variant(ins, MicroKind::kSqrtpdXX, MicroKind::kSqrtpdXM, &u));
      break;
    case Opcode::kAddps:
      set(xmm_variant(ins, MicroKind::kAddpsXX, MicroKind::kAddpsXM, &u));
      break;
    case Opcode::kSubps:
      set(xmm_variant(ins, MicroKind::kSubpsXX, MicroKind::kSubpsXM, &u));
      break;
    case Opcode::kMulps:
      set(xmm_variant(ins, MicroKind::kMulpsXX, MicroKind::kMulpsXM, &u));
      break;
    case Opcode::kDivps:
      set(xmm_variant(ins, MicroKind::kDivpsXX, MicroKind::kDivpsXM, &u));
      break;
    case Opcode::kSqrtps:
      set(xmm_variant(ins, MicroKind::kSqrtpsXX, MicroKind::kSqrtpsXM, &u));
      break;

    case Opcode::kAndpd:
      set(xmm_variant(ins, MicroKind::kAndpdXX, MicroKind::kAndpdXM, &u));
      break;
    case Opcode::kOrpd:
      set(xmm_variant(ins, MicroKind::kOrpdXX, MicroKind::kOrpdXM, &u));
      break;
    case Opcode::kXorpd:
      set(xmm_variant(ins, MicroKind::kXorpdXX, MicroKind::kXorpdXM, &u));
      break;

    case Opcode::kIntrin:
      set(MicroKind::kIntrin);
      u.imm = ins.src.imm;
      break;

    default:
      unlowerable(ins);
  }
  return u;
}

namespace {

[[noreturn]] void not_a_boundary(std::uint64_t at, std::uint64_t target) {
  throw VmError(strformat(
      "control transfer at 0x%llx targets 0x%llx, which is not an "
      "instruction boundary",
      static_cast<unsigned long long>(at),
      static_cast<unsigned long long>(target)));
}

[[noreturn]] void entry_not_a_boundary(std::uint64_t entry) {
  throw VmError(
      strformat("entry point 0x%llx is not an instruction boundary",
                static_cast<unsigned long long>(entry)));
}

}  // namespace

std::shared_ptr<const ExecutableImage> ExecutableImage::build(
    program::Image image) {
  // shared_ptr<ExecutableImage> first so members stay mutable during
  // construction; returned as pointer-to-const.
  auto exec = std::shared_ptr<ExecutableImage>(new ExecutableImage);
  exec->image_ = std::move(image);
  exec->image_.validate();
  exec->code_ = arch::decode_all(exec->image_.code, exec->image_.code_base);
  if (exec->code_.empty()) throw VmError("image has no code");
  exec->index_of_addr_.reserve(exec->code_.size() * 2);
  for (std::size_t i = 0; i < exec->code_.size(); ++i) {
    exec->index_of_addr_[exec->code_[i].addr] =
        static_cast<std::uint32_t>(i);
  }
  // Resolve branch/call targets to instruction indices once.
  for (Instr& ins : exec->code_) {
    const auto& info = arch::opcode_info(ins.op);
    if (info.is_branch || info.is_call) {
      const auto target = static_cast<std::uint64_t>(ins.src.imm);
      auto it = exec->index_of_addr_.find(target);
      if (it == exec->index_of_addr_.end()) not_a_boundary(ins.addr, target);
      ins.src.imm = it->second;
    }
  }
  const std::size_t entry = exec->index_of(exec->image_.entry);
  if (entry == kNoIndex) entry_not_a_boundary(exec->image_.entry);
  exec->entry_index_ = entry;

  exec->uops_.reserve(exec->code_.size());
  for (const Instr& ins : exec->code_) {
    exec->uops_.push_back(lower_instr(ins));
  }
  exec->count_ = exec->code_.size();
  exec->memory_size_ = exec->image_.memory_size;
  exec->data_base_ = exec->image_.data_base;
  exec->data_ = &exec->image_.data;
  return exec;
}

std::shared_ptr<const CodeSegment> CodeSegment::build(
    const program::FuncLayout& layout) {
  auto seg = std::shared_ptr<CodeSegment>(new CodeSegment);
  seg->byte_size_ = layout.bytes.size();
  // Decoding at image base 0 makes every instr addr a local byte offset.
  seg->code_ = arch::decode_all(layout.bytes, /*image_base=*/0);

  for (std::size_t i = 0; i < seg->code_.size(); ++i) {
    Instr& ins = seg->code_[i];
    const auto& info = arch::opcode_info(ins.op);
    if (info.is_branch) {
      const auto target = static_cast<std::uint64_t>(ins.src.imm);
      if (target == seg->byte_size_) {
        // Branch to the function's end (an empty trailing block): local
        // index one-past-the-end, resolved against the NEXT function's
        // first instruction -- or rejected -- at splice time.
        ins.src.imm = static_cast<std::int64_t>(seg->code_.size());
        if (seg->first_end_branch_ < 0) {
          seg->first_end_branch_ = static_cast<std::int64_t>(i);
        }
      } else {
        const std::size_t local = seg->index_of_offset(target);
        if (local == ExecutableImage::kNoIndex) {
          throw VmError(strformat(
              "branch at local offset 0x%llx targets local offset 0x%llx, "
              "which is not an instruction boundary in its segment",
              static_cast<unsigned long long>(ins.addr),
              static_cast<unsigned long long>(target)));
        }
        ins.src.imm = static_cast<std::int64_t>(local);
      }
    } else if (info.is_call) {
      // imm stays the callee function index until splice time.
      seg->max_callee_ = std::max(seg->max_callee_, ins.src.imm);
    }
  }
  seg->uops_.reserve(seg->code_.size());
  for (const Instr& ins : seg->code_) {
    seg->uops_.push_back(lower_instr(ins));
  }
  return seg;
}

std::size_t CodeSegment::index_of_offset(std::uint64_t off) const {
  // decode_all emits instructions in address order.
  const auto it = std::lower_bound(
      code_.begin(), code_.end(), off,
      [](const Instr& ins, std::uint64_t o) { return ins.addr < o; });
  if (it == code_.end() || it->addr != off) return ExecutableImage::kNoIndex;
  return static_cast<std::size_t>(it - code_.begin());
}

std::shared_ptr<const ExecutableImage> ExecutableImage::build_spliced(
    std::shared_ptr<const program::Program> meta,
    std::vector<std::shared_ptr<const program::FuncLayout>> layouts,
    std::vector<std::shared_ptr<const CodeSegment>> segments) {
  const std::size_t n = segments.size();
  FPMIX_CHECK(meta != nullptr && layouts.size() == n &&
              meta->functions.size() == n);
  auto exec = std::shared_ptr<ExecutableImage>(new ExecutableImage);
  exec->first_.resize(n + 1);
  exec->base_.resize(n + 1);
  std::uint64_t pc = meta->code_base;
  std::size_t total = 0;
  for (std::size_t f = 0; f < n; ++f) {
    FPMIX_CHECK(segments[f]->byte_size_ == layouts[f]->bytes.size());
    exec->base_[f] = pc;
    exec->first_[f] = total;
    pc += segments[f]->byte_size_;
    total += segments[f]->code_.size();
  }
  exec->base_[n] = pc;
  exec->first_[n] = total;

  // What assemble()'s validate() would reject (its symbols abut and cover
  // the code by construction), then what build() would.
  if (n == 0) throw ProgramError("image has no symbols");
  const std::uint64_t entry =
      exec->base_[static_cast<std::size_t>(meta->entry_function)];
  program::validate_sections(*meta, pc, entry);
  if (total == 0) throw VmError("image has no code");
  // Only a transfer into the empty functions after the last non-empty one
  // can miss an instruction: a branch off that function's end, or a call to
  // one of them. Checked in build()'s (address) order.
  std::size_t last = n;
  while (exec->first_[last - 1] == total) --last;
  --last;  // the last non-empty function
  for (std::size_t f = 0; f <= last; ++f) {
    const CodeSegment& seg = *segments[f];
    const std::uint64_t base = exec->base_[f];
    FPMIX_CHECK(seg.max_callee_ < static_cast<std::int64_t>(n));
    if (f == last && seg.first_end_branch_ >= 0) {
      not_a_boundary(
          base + seg.code_[static_cast<std::size_t>(seg.first_end_branch_)]
                     .addr,
          base + seg.byte_size_);
    }
    if (seg.max_callee_ > static_cast<std::int64_t>(last)) {
      for (const Instr& ins : seg.code_) {
        const auto callee = static_cast<std::size_t>(ins.src.imm);
        if (arch::opcode_info(ins.op).is_call && callee > last) {
          not_a_boundary(base + ins.addr, exec->base_[callee]);
        }
      }
    }
  }

  exec->meta_ = std::move(meta);
  exec->layouts_ = std::move(layouts);
  exec->segments_ = std::move(segments);
  exec->count_ = total;
  exec->memory_size_ = exec->meta_->memory_size;
  exec->data_base_ = exec->meta_->data_base;
  exec->data_ = &exec->meta_->data;
  const std::size_t entry_index = exec->index_of(entry);
  if (entry_index == kNoIndex) entry_not_a_boundary(entry);
  exec->entry_index_ = entry_index;
  return exec;
}

const program::Image& ExecutableImage::image() const {
  if (meta_ != nullptr) {
    std::call_once(image_once_, [this] {
      std::vector<const program::FuncLayout*> funcs(layouts_.size());
      for (std::size_t f = 0; f < funcs.size(); ++f) {
        funcs[f] = layouts_[f].get();
      }
      image_ = program::assemble(*meta_, funcs);
    });
  }
  return image_;
}

std::size_t ExecutableImage::segment_of(std::size_t pc) const {
  // The last segment starting at or before pc holds it (empty segments
  // share their successor's first index and sort before it).
  const auto it = std::upper_bound(first_.begin(), first_.end() - 1, pc);
  return static_cast<std::size_t>(it - first_.begin()) - 1;
}

std::size_t ExecutableImage::index_of(std::uint64_t addr) const {
  if (meta_ == nullptr) {
    auto it = index_of_addr_.find(addr);
    return it == index_of_addr_.end() ? kNoIndex
                                      : static_cast<std::size_t>(it->second);
  }
  if (addr < base_.front() || addr >= base_.back()) return kNoIndex;
  const auto it = std::upper_bound(base_.begin(), base_.end() - 1, addr);
  const std::size_t f = static_cast<std::size_t>(it - base_.begin()) - 1;
  const std::size_t local = segments_[f]->index_of_offset(addr - base_[f]);
  return local == kNoIndex ? kNoIndex : first_[f] + local;
}

Instr ExecutableImage::global_instr(std::size_t f, std::size_t local) const {
  const CodeSegment& seg = *segments_[f];
  Instr ins = seg.code_[local];
  ins.addr += base_[f];
  const auto& info = arch::opcode_info(ins.op);
  if (info.is_branch) {
    ins.src.imm += static_cast<std::int64_t>(first_[f]);
  } else if (info.is_call) {
    const auto callee = static_cast<std::size_t>(ins.src.imm);
    ins.src.imm = static_cast<std::int64_t>(first_[callee]);
  }
  return ins;
}

MicroOp ExecutableImage::global_uop(std::size_t f, std::size_t local) const {
  const CodeSegment& seg = *segments_[f];
  MicroOp u = seg.uops_[local];
  const auto& info = arch::opcode_info(seg.code_[local].op);
  if (info.is_branch) {
    u.imm += static_cast<std::int64_t>(first_[f]);
  } else if (info.is_call) {
    u.imm = static_cast<std::int64_t>(first_[static_cast<std::size_t>(u.imm)]);
    u.aux += base_[f];  // local return offset -> absolute return address
  }
  return u;
}

Instr ExecutableImage::instr_at(std::size_t pc) const {
  if (meta_ == nullptr) return code_[pc];
  const std::size_t f = segment_of(pc);
  return global_instr(f, pc - first_[f]);
}

MicroOp ExecutableImage::uop_at(std::size_t pc) const {
  if (meta_ == nullptr) return uops_[pc];
  const std::size_t f = segment_of(pc);
  return global_uop(f, pc - first_[f]);
}

const std::vector<Instr>& ExecutableImage::code() const {
  if (meta_ != nullptr) uops();  // builds both
  return code_;
}

const std::vector<MicroOp>& ExecutableImage::uops() const {
  if (meta_ != nullptr) {
    std::call_once(flat_once_, [this] {
      code_.reserve(count_);
      uops_.reserve(count_);
      for (std::size_t f = 0; f < segments_.size(); ++f) {
        for (std::size_t i = 0; i < segments_[f]->code_.size(); ++i) {
          code_.push_back(global_instr(f, i));
          uops_.push_back(global_uop(f, i));
        }
      }
    });
  }
  return uops_;
}

}  // namespace fpmix::vm
