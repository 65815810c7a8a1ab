#include "vm/machine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

#include "arch/disasm.hpp"
#include "arch/encode.hpp"
#include "arch/intrinsics.hpp"
#include "arch/tag.hpp"
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "vm/jit/jit.hpp"

namespace fpmix::vm {

using arch::Instr;
using arch::Opcode;
using arch::Operand;
using arch::OperandKind;

namespace in = arch::intrinsics;

namespace {

double f64_of(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }
float f32_of(std::uint32_t bits) { return std::bit_cast<float>(bits); }
std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Replaces the low 32 bits of `slot`, preserving the high 32.
std::uint64_t with_low32(std::uint64_t slot, std::uint32_t low) {
  return (slot & 0xFFFFFFFF00000000ull) | low;
}

}  // namespace

Machine::Machine(const program::Image& image, Options options)
    : Machine(ExecutableImage::build(image), options) {}

Machine::Machine(std::shared_ptr<const ExecutableImage> exec, Options options)
    : exec_(std::move(exec)), options_(options) {
  FPMIX_CHECK(exec_ != nullptr);
  const program::Image& image = exec_->image();
  memory_.assign(image.memory_size, 0);
  if (!image.data.empty()) {
    FPMIX_CHECK(image.data_base + image.data.size() <= memory_.size());
    std::memcpy(memory_.data() + image.data_base, image.data.data(),
                image.data.size());
  }
  mem_base_ = memory_.data();
  mem_size_ = memory_.size();
  if (options_.profile) counts_.assign(exec_->code().size(), 0);
  if (options_.mpi != nullptr) {
    FPMIX_CHECK(options_.rank >= 0 && options_.rank < options_.mpi->size());
  }
}

void Machine::trap(std::string message) const { throw Trap{std::move(message)}; }

std::string Machine::trap_context(std::size_t pc, std::uint64_t retired) const {
  if (pc >= exec_->code().size()) {
    return strformat(" [pc=%llu retired=%llu]",
                     static_cast<unsigned long long>(pc),
                     static_cast<unsigned long long>(retired));
  }
  const Instr& ins = exec_->code()[pc];
  return strformat(" [pc=%llu addr=0x%llx op=%s retired=%llu]",
                   static_cast<unsigned long long>(pc),
                   static_cast<unsigned long long>(ins.addr),
                   arch::opcode_name(ins.op),
                   static_cast<unsigned long long>(retired));
}

std::uint64_t Machine::effective_address(const arch::MemRef& m) const {
  std::uint64_t a = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(m.disp));
  if (m.base != arch::kNoReg) a += gpr_[m.base];
  if (m.index != arch::kNoReg) a += gpr_[m.index] * m.scale;
  return a;
}

std::uint64_t Machine::load(std::uint64_t addr, unsigned bytes) const {
  if (addr + bytes > mem_size_ || addr + bytes < addr) {
    trap(strformat("memory read of %u bytes at 0x%llx out of bounds", bytes,
                   static_cast<unsigned long long>(addr)));
  }
  std::uint64_t v = 0;
  std::memcpy(&v, mem_base_ + addr, bytes);
  return v;
}

void Machine::store(std::uint64_t addr, std::uint64_t value, unsigned bytes) {
  if (addr + bytes > mem_size_ || addr + bytes < addr) {
    trap(strformat("memory write of %u bytes at 0x%llx out of bounds", bytes,
                   static_cast<unsigned long long>(addr)));
  }
  std::memcpy(mem_base_ + addr, &value, bytes);
}

std::uint64_t Machine::int_value(const Operand& op) const {
  switch (op.kind) {
    case OperandKind::kGpr: return gpr_[op.reg];
    case OperandKind::kImm: return static_cast<std::uint64_t>(op.imm);
    default:
      trap("integer operand is neither register nor immediate");
  }
}

void Machine::check_not_tagged(const Instr& ins, std::uint64_t bits) const {
  if (options_.tag_trap && arch::is_tagged(bits)) {
    throw Trap{
        strformat("replaced-double sentinel consumed by '%s' at 0x%llx"
                  " (origin 0x%llx):"
                  " a narrowed value escaped the instrumentation",
                  arch::instr_to_string(ins).c_str(),
                  static_cast<unsigned long long>(ins.addr),
                  static_cast<unsigned long long>(
                      exec_->image().origin_of(ins.addr))),
        /*sentinel=*/true};
  }
}

std::uint64_t Machine::read_f64_bits(const Instr& ins, const Operand& op,
                                     unsigned lane) const {
  std::uint64_t bits;
  if (op.is_xmm()) {
    bits = (lane == 0) ? xmm_[op.reg].lo : xmm_[op.reg].hi;
  } else if (op.is_mem()) {
    bits = load(effective_address(op.mem) + 8ull * lane, 8);
  } else {
    trap("f64 operand is neither xmm nor memory");
  }
  check_not_tagged(ins, bits);
  return bits;
}

void Machine::push64(std::uint64_t v) {
  gpr_[arch::kSpReg] -= 8;
  store(gpr_[arch::kSpReg], v, 8);
}

std::uint64_t Machine::pop64() {
  const std::uint64_t v = load(gpr_[arch::kSpReg], 8);
  gpr_[arch::kSpReg] += 8;
  return v;
}

RunResult Machine::run() {
  FPMIX_CHECK(!ran_);
  ran_ = true;

  // Initial state: stack at the top of memory with a null return address; a
  // `ret` from the entry function stops the machine like `halt` does.
  gpr_[arch::kSpReg] = memory_.size();
  push64(0);
  pc_ = exec_->entry_index();

  const bool fault_planned = options_.fault != nullptr &&
                             options_.fault->kind != fault::VmFault::kNone;
  if (options_.deadline_ns == 0 && !fault_planned) return run_engine();
  return run_supervised();
}

RunResult Machine::run_engine() {
  if (options_.engine == Engine::kSwitch) return run_switch();
  if (options_.engine == Engine::kJit) {
    if (jit::jit_supported()) return run_jit();
    // Degrade once per process, loudly: results are still bit-identical, so
    // nothing downstream needs to care beyond the timing.
    static std::once_flag warned;
    std::call_once(warned, [] {
      log::warnf(
          "jit engine unavailable (%s); falling back to the micro-op engine",
          jit::jit_unsupported_reason());
    });
    options_.engine = Engine::kMicroOp;
  }
  return options_.profile ? run_micro<true>() : run_micro<false>();
}

RunResult Machine::run_supervised() {
  // Both engines persist pc_/retired_ at a budget stop and resume from them,
  // so the deadline and the fault point are enforced without touching the
  // hot dispatch loops: temporarily lower max_instructions to the next
  // supervision point, re-enter the engine, and check the wall clock / fire
  // the planned fault at each chunk boundary. The overshoot past a deadline
  // is at most one chunk of retired instructions.
  const std::uint64_t real_budget = options_.max_instructions;
  const std::uint64_t interval = std::max<std::uint64_t>(
      options_.deadline_check_interval, 1);
  const fault::VmFaultSpec* fault =
      (options_.fault != nullptr &&
       options_.fault->kind != fault::VmFault::kNone)
          ? options_.fault
          : nullptr;
  Timer timer;

  const auto deadline_result = [&]() {
    RunResult r;
    r.status = RunResult::Status::kDeadline;
    r.trap_message = strformat(
        "wall-clock deadline of %llu ms exceeded after %llu instructions",
        static_cast<unsigned long long>(options_.deadline_ns / 1000000),
        static_cast<unsigned long long>(retired_));
    r.instructions_retired = retired_;
    return r;
  };

  while (true) {
    // Fire the planned fault once its retired-instruction count is reached
    // (including at_retired == 0, before the first chunk).
    if (fault != nullptr && retired_ >= fault->at_retired) {
      const fault::VmFaultSpec spec = *fault;
      fault = nullptr;
      switch (spec.kind) {
        case fault::VmFault::kAbort: {
          RunResult r;
          r.status = RunResult::Status::kTrapped;
          r.trap_message = "injected fault: trial aborted" +
                           trap_context(pc_, retired_);
          r.instructions_retired = retired_;
          return r;
        }
        case fault::VmFault::kStall: {
          if (options_.deadline_ns == 0) {
            // Nothing would ever cancel the hang; surface it as a trap
            // instead of blocking the harness forever.
            RunResult r;
            r.status = RunResult::Status::kTrapped;
            r.trap_message =
                "injected fault: stall with no deadline configured" +
                trap_context(pc_, retired_);
            r.instructions_retired = retired_;
            return r;
          }
          // Model a hang: stop retiring instructions until the deadline
          // trips, as a real non-terminating trial would.
          while (timer.elapsed_ns() < options_.deadline_ns) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return deadline_result();
        }
        case fault::VmFault::kBitFlip:
        case fault::VmFault::kSentinel:
          apply_state_fault(spec);
          break;
        case fault::VmFault::kNone:
          break;
      }
    }

    if (options_.deadline_ns != 0 &&
        timer.elapsed_ns() >= options_.deadline_ns) {
      return deadline_result();
    }

    std::uint64_t stop_at = real_budget;
    if (options_.deadline_ns != 0) {
      stop_at = std::min(stop_at, retired_ + interval);
    }
    if (fault != nullptr) stop_at = std::min(stop_at, fault->at_retired);

    options_.max_instructions = stop_at;
    RunResult r = run_engine();
    options_.max_instructions = real_budget;

    // Anything but a chunk-boundary budget stop is a real outcome; a budget
    // stop is only real once the true budget is spent.
    if (r.status != RunResult::Status::kOutOfBudget ||
        retired_ >= real_budget) {
      return r;
    }
  }
}

void Machine::apply_state_fault(const fault::VmFaultSpec& spec) {
  SplitMix64 rng(spec.seed);
  if (spec.kind == fault::VmFault::kBitFlip) {
    // Silent data corruption: flip one bit of one 64-bit FP slot -- an xmm
    // lane, or an aligned slot of data memory.
    const std::uint64_t bit = 1ull << rng.next_below(64);
    if (mem_size_ >= 8 && rng.next_below(2) == 0) {
      const std::uint64_t slot = 8 * rng.next_below(mem_size_ / 8);
      std::uint64_t v = 0;
      std::memcpy(&v, mem_base_ + slot, 8);
      v ^= bit;
      std::memcpy(mem_base_ + slot, &v, 8);
    } else {
      Xmm& x = xmm_[rng.next_below(arch::kNumXmms)];
      (rng.next_below(2) == 0 ? x.lo : x.hi) ^= bit;
    }
  } else {  // kSentinel
    // Plant the replaced-double sentinel in every xmm low lane: the next
    // double-interpreting read trips the tag trap exactly as a narrowed
    // value escaping the instrumentation would.
    const float payload = static_cast<float>(rng.next_double());
    for (Xmm& x : xmm_) x.lo = arch::make_tagged(payload);
  }
}

RunResult Machine::run_switch() {
  RunResult result;
  try {
    while (!stopped_) {
      if (retired_ >= options_.max_instructions) {
        result.status = RunResult::Status::kOutOfBudget;
        result.trap_message = "instruction budget exhausted";
        result.instructions_retired = retired_;
        return result;
      }
      const Instr& ins = exec_->code()[pc_];
      if (options_.profile) ++counts_[pc_];
      ++retired_;
      step_switch(ins);
    }
    result.status = RunResult::Status::kHalted;
  } catch (const Trap& t) {
    result.status = RunResult::Status::kTrapped;
    result.trap_message = t.message + trap_context(pc_, retired_);
    result.sentinel_escape = t.sentinel;
  }
  result.instructions_retired = retired_;
  return result;
}

void Machine::step_switch(const Instr& ins) {
  // Most instructions fall through; control flow overrides `next`.
  std::size_t next = pc_ + 1;

  const auto take_branch_if = [&](bool cond) {
    if (cond) next = static_cast<std::size_t>(ins.src.imm);
  };

  // Scalar f64 binary: dst.lane0 = f(dst.lane0, src.lane0/mem).
  const auto binsd = [&](auto f) {
    const double a = f64_of(read_f64_bits(ins, ins.dst, 0));
    const double b = f64_of(read_f64_bits(ins, ins.src, 0));
    xmm_[ins.dst.reg].lo = bits_of(double(f(a, b)));
  };
  // Scalar f32 binary on low 32 bits.
  const auto binss = [&](auto f) {
    const float a = f32_of(static_cast<std::uint32_t>(xmm_[ins.dst.reg].lo));
    std::uint32_t src_bits;
    if (ins.src.is_xmm()) {
      src_bits = static_cast<std::uint32_t>(xmm_[ins.src.reg].lo);
    } else {
      src_bits =
          static_cast<std::uint32_t>(load(effective_address(ins.src.mem), 4));
    }
    const float b = f32_of(src_bits);
    xmm_[ins.dst.reg].lo =
        with_low32(xmm_[ins.dst.reg].lo, bits_of(float(f(a, b))));
  };
  // Packed f64: both lanes.
  const auto binpd = [&](auto f) {
    const double a0 = f64_of(read_f64_bits(ins, ins.dst, 0));
    const double a1 = f64_of(read_f64_bits(ins, ins.dst, 1));
    const double b0 = f64_of(read_f64_bits(ins, ins.src, 0));
    const double b1 = f64_of(read_f64_bits(ins, ins.src, 1));
    xmm_[ins.dst.reg].lo = bits_of(double(f(a0, b0)));
    xmm_[ins.dst.reg].hi = bits_of(double(f(a1, b1)));
  };
  // Packed f32: four lanes (two per 64-bit half).
  const auto binps = [&](auto f) {
    std::uint64_t slo, shi;
    if (ins.src.is_xmm()) {
      slo = xmm_[ins.src.reg].lo;
      shi = xmm_[ins.src.reg].hi;
    } else {
      const std::uint64_t ea = effective_address(ins.src.mem);
      slo = load(ea, 8);
      shi = load(ea + 8, 8);
    }
    const auto apply_half = [&](std::uint64_t d, std::uint64_t s) {
      const float d0 = f32_of(static_cast<std::uint32_t>(d));
      const float d1 = f32_of(static_cast<std::uint32_t>(d >> 32));
      const float s0 = f32_of(static_cast<std::uint32_t>(s));
      const float s1 = f32_of(static_cast<std::uint32_t>(s >> 32));
      const std::uint64_t r0 = bits_of(float(f(d0, s0)));
      const std::uint64_t r1 = bits_of(float(f(d1, s1)));
      return r0 | (r1 << 32);
    };
    xmm_[ins.dst.reg].lo = apply_half(xmm_[ins.dst.reg].lo, slo);
    xmm_[ins.dst.reg].hi = apply_half(xmm_[ins.dst.reg].hi, shi);
  };
  // Bitwise 128-bit.
  const auto bitop = [&](auto f) {
    std::uint64_t slo, shi;
    if (ins.src.is_xmm()) {
      slo = xmm_[ins.src.reg].lo;
      shi = xmm_[ins.src.reg].hi;
    } else {
      const std::uint64_t ea = effective_address(ins.src.mem);
      slo = load(ea, 8);
      shi = load(ea + 8, 8);
    }
    xmm_[ins.dst.reg].lo = f(xmm_[ins.dst.reg].lo, slo);
    xmm_[ins.dst.reg].hi = f(xmm_[ins.dst.reg].hi, shi);
  };
  // Integer binary on gpr dst.
  const auto binint = [&](auto f) {
    gpr_[ins.dst.reg] = f(gpr_[ins.dst.reg], int_value(ins.src));
  };

  switch (ins.op) {
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      stopped_ = true;
      break;

    case Opcode::kJmp: take_branch_if(true); break;
    case Opcode::kJe: take_branch_if(flags_.eq); break;
    case Opcode::kJne: take_branch_if(!flags_.eq); break;
    case Opcode::kJl: take_branch_if(flags_.lt); break;
    case Opcode::kJle: take_branch_if(flags_.lt || flags_.eq); break;
    case Opcode::kJg: take_branch_if(!flags_.lt && !flags_.eq); break;
    case Opcode::kJge: take_branch_if(!flags_.lt); break;
    case Opcode::kJb: take_branch_if(flags_.ltu); break;
    case Opcode::kJbe: take_branch_if(flags_.ltu || flags_.eq); break;
    case Opcode::kJa: take_branch_if(!flags_.ltu && !flags_.eq); break;
    case Opcode::kJae: take_branch_if(!flags_.ltu); break;

    case Opcode::kCall: {
      const Instr& self = ins;
      push64(self.addr + self.size);
      next = static_cast<std::size_t>(ins.src.imm);
      break;
    }
    case Opcode::kRet: {
      const std::uint64_t ra = pop64();
      if (ra == 0) {
        stopped_ = true;
        break;
      }
      const std::size_t idx = exec_->index_of(ra);
      if (idx == ExecutableImage::kNoIndex) {
        trap(strformat("ret to 0x%llx, not an instruction boundary",
                       static_cast<unsigned long long>(ra)));
      }
      next = idx;
      break;
    }

    case Opcode::kMov:
      gpr_[ins.dst.reg] = int_value(ins.src);
      break;
    case Opcode::kLoad:
      gpr_[ins.dst.reg] = load(effective_address(ins.src.mem), 8);
      break;
    case Opcode::kStore:
      store(effective_address(ins.dst.mem), gpr_[ins.src.reg], 8);
      break;
    case Opcode::kLea:
      gpr_[ins.dst.reg] = effective_address(ins.src.mem);
      break;

    case Opcode::kAdd: binint([](std::uint64_t a, std::uint64_t b) { return a + b; }); break;
    case Opcode::kSub: binint([](std::uint64_t a, std::uint64_t b) { return a - b; }); break;
    case Opcode::kImul: binint([](std::uint64_t a, std::uint64_t b) { return a * b; }); break;
    case Opcode::kIdiv: {
      const auto a = static_cast<std::int64_t>(gpr_[ins.dst.reg]);
      const auto b = static_cast<std::int64_t>(int_value(ins.src));
      if (b == 0) trap("integer division by zero");
      if (a == INT64_MIN && b == -1) trap("integer division overflow");
      gpr_[ins.dst.reg] = static_cast<std::uint64_t>(a / b);
      break;
    }
    case Opcode::kIrem: {
      const auto a = static_cast<std::int64_t>(gpr_[ins.dst.reg]);
      const auto b = static_cast<std::int64_t>(int_value(ins.src));
      if (b == 0) trap("integer remainder by zero");
      if (a == INT64_MIN && b == -1) trap("integer remainder overflow");
      gpr_[ins.dst.reg] = static_cast<std::uint64_t>(a % b);
      break;
    }
    case Opcode::kAnd: binint([](std::uint64_t a, std::uint64_t b) { return a & b; }); break;
    case Opcode::kOr: binint([](std::uint64_t a, std::uint64_t b) { return a | b; }); break;
    case Opcode::kXor: binint([](std::uint64_t a, std::uint64_t b) { return a ^ b; }); break;
    case Opcode::kShl: binint([](std::uint64_t a, std::uint64_t b) { return a << (b & 63); }); break;
    case Opcode::kShr: binint([](std::uint64_t a, std::uint64_t b) { return a >> (b & 63); }); break;
    case Opcode::kSar:
      binint([](std::uint64_t a, std::uint64_t b) {
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >>
                                          (b & 63));
      });
      break;
    case Opcode::kCmp: {
      const std::uint64_t a = gpr_[ins.dst.reg];
      const std::uint64_t b = int_value(ins.src);
      flags_.eq = a == b;
      flags_.lt = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      flags_.ltu = a < b;
      break;
    }
    case Opcode::kTest: {
      const std::uint64_t v = gpr_[ins.dst.reg] & int_value(ins.src);
      flags_.eq = v == 0;
      flags_.lt = static_cast<std::int64_t>(v) < 0;
      flags_.ltu = false;
      break;
    }
    case Opcode::kPush: push64(gpr_[ins.dst.reg]); break;
    case Opcode::kPop: gpr_[ins.dst.reg] = pop64(); break;

    case Opcode::kMovqXR:
      // Deviation from x86: preserves the upper lane, so scalar snippet
      // write-backs cannot clobber live packed data (DESIGN.md section 7).
      xmm_[ins.dst.reg].lo = gpr_[ins.src.reg];
      break;
    case Opcode::kMovqRX:
      gpr_[ins.dst.reg] = xmm_[ins.src.reg].lo;
      break;
    case Opcode::kMovsdXX:
      xmm_[ins.dst.reg].lo = xmm_[ins.src.reg].lo;
      break;
    case Opcode::kMovsdXM:
      xmm_[ins.dst.reg].lo = load(effective_address(ins.src.mem), 8);
      xmm_[ins.dst.reg].hi = 0;
      break;
    case Opcode::kMovsdMX:
      store(effective_address(ins.dst.mem), xmm_[ins.src.reg].lo, 8);
      break;
    case Opcode::kMovssXM:
      xmm_[ins.dst.reg].lo = load(effective_address(ins.src.mem), 4);
      xmm_[ins.dst.reg].hi = 0;
      break;
    case Opcode::kMovssMX:
      store(effective_address(ins.dst.mem), xmm_[ins.src.reg].lo & 0xFFFFFFFFu,
            4);
      break;
    case Opcode::kMovapdXX:
      xmm_[ins.dst.reg] = xmm_[ins.src.reg];
      break;
    case Opcode::kMovapdXM: {
      const std::uint64_t ea = effective_address(ins.src.mem);
      xmm_[ins.dst.reg].lo = load(ea, 8);
      xmm_[ins.dst.reg].hi = load(ea + 8, 8);
      break;
    }
    case Opcode::kMovapdMX: {
      const std::uint64_t ea = effective_address(ins.dst.mem);
      store(ea, xmm_[ins.src.reg].lo, 8);
      store(ea + 8, xmm_[ins.src.reg].hi, 8);
      break;
    }
    case Opcode::kPushX:
      gpr_[arch::kSpReg] -= 16;
      store(gpr_[arch::kSpReg], xmm_[ins.dst.reg].lo, 8);
      store(gpr_[arch::kSpReg] + 8, xmm_[ins.dst.reg].hi, 8);
      break;
    case Opcode::kPopX:
      xmm_[ins.dst.reg].lo = load(gpr_[arch::kSpReg], 8);
      xmm_[ins.dst.reg].hi = load(gpr_[arch::kSpReg] + 8, 8);
      gpr_[arch::kSpReg] += 16;
      break;

    case Opcode::kAddsd: binsd([](double a, double b) { return a + b; }); break;
    case Opcode::kSubsd: binsd([](double a, double b) { return a - b; }); break;
    case Opcode::kMulsd: binsd([](double a, double b) { return a * b; }); break;
    case Opcode::kDivsd: binsd([](double a, double b) { return a / b; }); break;
    case Opcode::kSqrtsd: {
      const double b = f64_of(read_f64_bits(ins, ins.src, 0));
      xmm_[ins.dst.reg].lo = bits_of(std::sqrt(b));
      break;
    }
    case Opcode::kMinsd: binsd([](double a, double b) { return b < a ? b : a; }); break;
    case Opcode::kMaxsd: binsd([](double a, double b) { return a < b ? b : a; }); break;
    case Opcode::kUcomisd: {
      const double a = f64_of(read_f64_bits(ins, ins.dst, 0));
      const double b = f64_of(read_f64_bits(ins, ins.src, 0));
      flags_.eq = a == b;
      flags_.lt = flags_.ltu = a < b;
      break;
    }
    case Opcode::kCvtsd2ss: {
      const double b = f64_of(read_f64_bits(ins, ins.src, 0));
      xmm_[ins.dst.reg].lo = bits_of(static_cast<float>(b));
      break;
    }
    case Opcode::kCvtss2sd: {
      std::uint32_t src_bits;
      if (ins.src.is_xmm()) {
        src_bits = static_cast<std::uint32_t>(xmm_[ins.src.reg].lo);
      } else {
        src_bits = static_cast<std::uint32_t>(
            load(effective_address(ins.src.mem), 4));
      }
      xmm_[ins.dst.reg].lo = bits_of(static_cast<double>(f32_of(src_bits)));
      break;
    }
    case Opcode::kCvtsi2sd:
      xmm_[ins.dst.reg].lo = bits_of(
          static_cast<double>(static_cast<std::int64_t>(gpr_[ins.src.reg])));
      break;
    case Opcode::kCvttsd2si: {
      const double v = f64_of(read_f64_bits(ins, ins.src, 0));
      if (!(v > -9.2e18 && v < 9.2e18)) {
        trap("cvttsd2si operand out of int64 range");
      }
      gpr_[ins.dst.reg] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(v));
      break;
    }

    case Opcode::kAddss: binss([](float a, float b) { return a + b; }); break;
    case Opcode::kSubss: binss([](float a, float b) { return a - b; }); break;
    case Opcode::kMulss: binss([](float a, float b) { return a * b; }); break;
    case Opcode::kDivss: binss([](float a, float b) { return a / b; }); break;
    case Opcode::kSqrtss: {
      std::uint32_t src_bits;
      if (ins.src.is_xmm()) {
        src_bits = static_cast<std::uint32_t>(xmm_[ins.src.reg].lo);
      } else {
        src_bits = static_cast<std::uint32_t>(
            load(effective_address(ins.src.mem), 4));
      }
      xmm_[ins.dst.reg].lo = with_low32(
          xmm_[ins.dst.reg].lo, bits_of(std::sqrt(f32_of(src_bits))));
      break;
    }
    case Opcode::kMinss: binss([](float a, float b) { return b < a ? b : a; }); break;
    case Opcode::kMaxss: binss([](float a, float b) { return a < b ? b : a; }); break;
    case Opcode::kUcomiss: {
      const float a = f32_of(static_cast<std::uint32_t>(xmm_[ins.dst.reg].lo));
      std::uint32_t src_bits;
      if (ins.src.is_xmm()) {
        src_bits = static_cast<std::uint32_t>(xmm_[ins.src.reg].lo);
      } else {
        src_bits = static_cast<std::uint32_t>(
            load(effective_address(ins.src.mem), 4));
      }
      const float b = f32_of(src_bits);
      flags_.eq = a == b;
      flags_.lt = flags_.ltu = a < b;
      break;
    }
    case Opcode::kCvtsi2ss:
      xmm_[ins.dst.reg].lo = with_low32(
          xmm_[ins.dst.reg].lo,
          bits_of(static_cast<float>(
              static_cast<std::int64_t>(gpr_[ins.src.reg]))));
      break;
    case Opcode::kCvttss2si: {
      const float v = f32_of(static_cast<std::uint32_t>(xmm_[ins.src.reg].lo));
      if (!(v > -9.2e18f && v < 9.2e18f)) {
        trap("cvttss2si operand out of int64 range");
      }
      gpr_[ins.dst.reg] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(v));
      break;
    }

    case Opcode::kAddpd: binpd([](double a, double b) { return a + b; }); break;
    case Opcode::kSubpd: binpd([](double a, double b) { return a - b; }); break;
    case Opcode::kMulpd: binpd([](double a, double b) { return a * b; }); break;
    case Opcode::kDivpd: binpd([](double a, double b) { return a / b; }); break;
    case Opcode::kSqrtpd: {
      const double b0 = f64_of(read_f64_bits(ins, ins.src, 0));
      const double b1 = f64_of(read_f64_bits(ins, ins.src, 1));
      xmm_[ins.dst.reg].lo = bits_of(std::sqrt(b0));
      xmm_[ins.dst.reg].hi = bits_of(std::sqrt(b1));
      break;
    }
    case Opcode::kAddps: binps([](float a, float b) { return a + b; }); break;
    case Opcode::kSubps: binps([](float a, float b) { return a - b; }); break;
    case Opcode::kMulps: binps([](float a, float b) { return a * b; }); break;
    case Opcode::kDivps: binps([](float a, float b) { return a / b; }); break;
    case Opcode::kSqrtps: {
      std::uint64_t slo, shi;
      if (ins.src.is_xmm()) {
        slo = xmm_[ins.src.reg].lo;
        shi = xmm_[ins.src.reg].hi;
      } else {
        const std::uint64_t ea = effective_address(ins.src.mem);
        slo = load(ea, 8);
        shi = load(ea + 8, 8);
      }
      const auto sqrt_half = [](std::uint64_t s) {
        const std::uint64_t r0 =
            bits_of(std::sqrt(f32_of(static_cast<std::uint32_t>(s))));
        const std::uint64_t r1 =
            bits_of(std::sqrt(f32_of(static_cast<std::uint32_t>(s >> 32))));
        return r0 | (r1 << 32);
      };
      xmm_[ins.dst.reg].lo = sqrt_half(slo);
      xmm_[ins.dst.reg].hi = sqrt_half(shi);
      break;
    }

    case Opcode::kAndpd: bitop([](std::uint64_t a, std::uint64_t b) { return a & b; }); break;
    case Opcode::kOrpd: bitop([](std::uint64_t a, std::uint64_t b) { return a | b; }); break;
    case Opcode::kXorpd: bitop([](std::uint64_t a, std::uint64_t b) { return a ^ b; }); break;

    case Opcode::kIntrin:
      exec_intrinsic(ins);
      break;

    default:
      trap(strformat("unimplemented opcode %s", arch::opcode_name(ins.op)));
  }

  pc_ = next;
}

void Machine::exec_intrinsic(const Instr& ins) {
  const auto id = static_cast<in::Id>(ins.src.imm);
  if (id >= in::Id::kNumIntrinsics) trap("invalid intrinsic id");

  // f64 math helpers --------------------------------------------------------
  const auto arg_f64 = [&](int i) {
    const std::uint64_t bits = xmm_[i].lo;
    check_not_tagged(ins, bits);
    return f64_of(bits);
  };
  const auto ret_f64 = [&](double v) { xmm_[0].lo = bits_of(v); };
  // f32 twins: argument and result in the low 32 bits. Each computes the
  // double-precision function on the widened argument, rounded once -- so an
  // all-single instrumented run matches a manual single conversion
  // bit-for-bit (Section 3.1).
  const auto arg_f32 = [&](int i) {
    return static_cast<double>(
        f32_of(static_cast<std::uint32_t>(xmm_[i].lo)));
  };
  const auto ret_f32 = [&](double v) {
    xmm_[0].lo = with_low32(xmm_[0].lo, bits_of(static_cast<float>(v)));
  };

  switch (id) {
    case in::Id::kSin: ret_f64(std::sin(arg_f64(0))); break;
    case in::Id::kCos: ret_f64(std::cos(arg_f64(0))); break;
    case in::Id::kTan: ret_f64(std::tan(arg_f64(0))); break;
    case in::Id::kExp: ret_f64(std::exp(arg_f64(0))); break;
    case in::Id::kLog: ret_f64(std::log(arg_f64(0))); break;
    case in::Id::kPow: ret_f64(std::pow(arg_f64(0), arg_f64(1))); break;
    case in::Id::kFloor: ret_f64(std::floor(arg_f64(0))); break;
    case in::Id::kCeil: ret_f64(std::ceil(arg_f64(0))); break;
    case in::Id::kFabs: ret_f64(std::fabs(arg_f64(0))); break;

    case in::Id::kSinF32: ret_f32(std::sin(arg_f32(0))); break;
    case in::Id::kCosF32: ret_f32(std::cos(arg_f32(0))); break;
    case in::Id::kTanF32: ret_f32(std::tan(arg_f32(0))); break;
    case in::Id::kExpF32: ret_f32(std::exp(arg_f32(0))); break;
    case in::Id::kLogF32: ret_f32(std::log(arg_f32(0))); break;
    case in::Id::kPowF32: ret_f32(std::pow(arg_f32(0), arg_f32(1))); break;
    case in::Id::kFloorF32: ret_f32(std::floor(arg_f32(0))); break;
    case in::Id::kCeilF32: ret_f32(std::ceil(arg_f32(0))); break;
    case in::Id::kFabsF32: ret_f32(std::fabs(arg_f32(0))); break;

    case in::Id::kOutputF64: {
      const std::uint64_t bits = xmm_[0].lo;
      check_not_tagged(ins, bits);
      output_f64_.push_back(f64_of(bits));
      break;
    }
    case in::Id::kOutputI64:
      output_i64_.push_back(static_cast<std::int64_t>(gpr_[1]));
      break;

    case in::Id::kPrintF64: {
      const std::uint64_t bits = xmm_[0].lo;
      check_not_tagged(ins, bits);
      std::printf("%.17g\n", f64_of(bits));
      break;
    }
    case in::Id::kPrintI64:
      std::printf("%lld\n", static_cast<long long>(gpr_[1]));
      break;
    case in::Id::kPrintStr: {
      const std::uint64_t addr = gpr_[1];
      const std::uint64_t len = gpr_[2];
      if (addr + len > memory_.size()) trap("print_str out of bounds");
      std::fwrite(memory_.data() + addr, 1, len, stdout);
      break;
    }

    case in::Id::kMpiRank:
      gpr_[0] = static_cast<std::uint64_t>(options_.rank);
      break;
    case in::Id::kMpiSize:
      gpr_[0] = static_cast<std::uint64_t>(
          options_.mpi != nullptr ? options_.mpi->size() : 1);
      break;
    case in::Id::kMpiBarrier:
      if (options_.mpi != nullptr) options_.mpi->barrier();
      break;
    case in::Id::kMpiAllreduceSum: {
      const std::uint64_t bits = xmm_[0].lo;
      check_not_tagged(ins, bits);
      double v = f64_of(bits);
      if (options_.mpi != nullptr) v = options_.mpi->allreduce_sum(v);
      xmm_[0].lo = bits_of(v);
      break;
    }
    case in::Id::kMpiAllreduceMax: {
      const std::uint64_t bits = xmm_[0].lo;
      check_not_tagged(ins, bits);
      double v = f64_of(bits);
      if (options_.mpi != nullptr) v = options_.mpi->allreduce_max(v);
      xmm_[0].lo = bits_of(v);
      break;
    }
    case in::Id::kMpiAllreduceVec: {
      const std::uint64_t addr = gpr_[1];
      const std::uint64_t count = gpr_[2];
      if (addr % 8 != 0) trap("mpi_allreduce_vec: unaligned buffer");
      if (addr + count * 8 > memory_.size()) {
        trap("mpi_allreduce_vec out of bounds");
      }
      auto* data = reinterpret_cast<double*>(memory_.data() + addr);
      if (options_.tag_trap) {
        for (std::uint64_t i = 0; i < count; ++i) {
          check_not_tagged(ins, std::bit_cast<std::uint64_t>(data[i]));
        }
      }
      if (options_.mpi != nullptr) {
        options_.mpi->allreduce_vec(std::span<double>(data, count));
      }
      break;
    }

    default:
      trap(strformat("unimplemented intrinsic %s", in::intrin_name(id)));
  }
}

std::vector<std::uint8_t> Machine::read_memory(std::uint64_t addr,
                                               std::size_t size) const {
  if (addr + size > memory_.size() || addr + size < addr) {
    throw VmError("read_memory out of bounds");
  }
  return std::vector<std::uint8_t>(memory_.begin() +
                                       static_cast<std::ptrdiff_t>(addr),
                                   memory_.begin() +
                                       static_cast<std::ptrdiff_t>(addr +
                                                                   size));
}

std::uint64_t Machine::read_memory_u64(std::uint64_t addr) const {
  if (addr + 8 > memory_.size()) throw VmError("read_memory out of bounds");
  std::uint64_t v = 0;
  std::memcpy(&v, memory_.data() + addr, 8);
  return v;
}

std::map<std::uint64_t, std::uint64_t> Machine::profile_by_address() const {
  std::map<std::uint64_t, std::uint64_t> out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) out[exec_->code()[i].addr] = counts_[i];
  }
  return out;
}

std::map<std::uint64_t, std::uint64_t> Machine::profile_by_origin() const {
  std::map<std::uint64_t, std::uint64_t> out;
  const program::Image& image = exec_->image();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] != 0) out[image.origin_of(exec_->code()[i].addr)] +=
        counts_[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Micro-op engine.
//
// One static handler per MicroKind (the FPMIX_MICRO_KINDS row names it).
// run_micro inlines each into its computed-goto op body; kMicroTable below
// indexes them for the JIT driver's one-op interpreter tail. Handlers take
// the current instruction index and return the next one (or
// MicroExec::kStop), so the run loop keeps the pc and the retired count in
// registers. Semantics -- including the ORDER of tag checks vs. memory
// loads, which decides which trap fires first -- mirror step_switch
// exactly, but share no code with it: tests/vm_engine_test.cpp holds the
// engines bit-identical against the switch interpreter as an independent
// oracle.
// ---------------------------------------------------------------------------

struct MicroExec {
  /// Returns the next instruction index, or kStop to stop the machine.
  using Handler = std::size_t (*)(Machine&, const MicroOp&, std::size_t);

  /// Next-pc sentinel meaning "stop cleanly": a halt, or a ret to the null
  /// return address pushed by run().
  static constexpr std::size_t kStop = ExecutableImage::kNoIndex;

  static const Instr& instr(const Machine& m, std::size_t pc) {
    return m.exec_->code()[pc];
  }

  /// Branch-free: absent base/index were redirected to the always-zero
  /// register slot at lowering time.
  static std::uint64_t ea(const Machine& m, const MicroOp& u) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(u.ea_disp)) +
           m.gpr_[u.ea_base] + (m.gpr_[u.ea_index] << u.ea_shift);
  }

  static void check_tag(Machine& m, std::uint64_t bits, std::size_t pc) {
    if (m.options_.tag_trap && arch::is_tagged(bits)) [[unlikely]] {
      m.check_not_tagged(instr(m, pc), bits);  // traps with the full diagnostic
    }
  }

  /// 8-byte load that is about to be interpreted as a double: bounds trap
  /// first (the load), then the tag trap -- same order as read_f64_bits.
  static std::uint64_t load_f64(Machine& m, std::uint64_t addr,
                                std::size_t pc) {
    const std::uint64_t bits = m.load(addr, 8);
    check_tag(m, bits, pc);
    return bits;
  }

  // --- control flow --------------------------------------------------------

  static std::size_t h_nop(Machine&, const MicroOp&, std::size_t pc) {
    return pc + 1;
  }
  static std::size_t h_halt(Machine&, const MicroOp&, std::size_t) {
    return kStop;
  }
  static std::size_t h_jmp(Machine&, const MicroOp& u, std::size_t) {
    return static_cast<std::size_t>(u.imm);
  }

#define FPMIX_H_JCC(NAME, COND)                               \
  static std::size_t NAME(Machine& m, const MicroOp& u,       \
                          std::size_t pc) {                   \
    return (COND) ? static_cast<std::size_t>(u.imm) : pc + 1; \
  }
  FPMIX_H_JCC(h_je, m.flags_.eq)
  FPMIX_H_JCC(h_jne, !m.flags_.eq)
  FPMIX_H_JCC(h_jl, m.flags_.lt)
  FPMIX_H_JCC(h_jle, m.flags_.lt || m.flags_.eq)
  FPMIX_H_JCC(h_jg, !m.flags_.lt && !m.flags_.eq)
  FPMIX_H_JCC(h_jge, !m.flags_.lt)
  FPMIX_H_JCC(h_jb, m.flags_.ltu)
  FPMIX_H_JCC(h_jbe, m.flags_.ltu || m.flags_.eq)
  FPMIX_H_JCC(h_ja, !m.flags_.ltu && !m.flags_.eq)
  FPMIX_H_JCC(h_jae, !m.flags_.ltu)
#undef FPMIX_H_JCC

  static std::size_t h_call(Machine& m, const MicroOp& u, std::size_t) {
    m.push64(u.aux);  // return address, precomputed at lowering time
    return static_cast<std::size_t>(u.imm);
  }
  static std::size_t h_ret(Machine& m, const MicroOp&, std::size_t) {
    const std::uint64_t ra = m.pop64();
    if (ra == 0) return kStop;  // the null frame pushed by run()
    const std::size_t idx = m.exec_->index_of(ra);
    if (idx == ExecutableImage::kNoIndex) {
      m.trap(strformat("ret to 0x%llx, not an instruction boundary",
                       static_cast<unsigned long long>(ra)));
    }
    return idx;
  }

  // --- integer file --------------------------------------------------------

  static std::size_t h_mov_rr(Machine& m, const MicroOp& u, std::size_t pc) {
    m.gpr_[u.a] = m.gpr_[u.b];
    return pc + 1;
  }
  static std::size_t h_mov_ri(Machine& m, const MicroOp& u, std::size_t pc) {
    m.gpr_[u.a] = static_cast<std::uint64_t>(u.imm);
    return pc + 1;
  }
  static std::size_t h_load(Machine& m, const MicroOp& u, std::size_t pc) {
    m.gpr_[u.a] = m.load(ea(m, u), 8);
    return pc + 1;
  }
  static std::size_t h_store(Machine& m, const MicroOp& u, std::size_t pc) {
    m.store(ea(m, u), m.gpr_[u.b], 8);
    return pc + 1;
  }
  static std::size_t h_lea(Machine& m, const MicroOp& u, std::size_t pc) {
    m.gpr_[u.a] = ea(m, u);
    return pc + 1;
  }

#define FPMIX_H_INT(NAME, EXPR)                                                \
  static std::size_t NAME##_rr(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t a = m.gpr_[u.a];                                       \
    const std::uint64_t b = m.gpr_[u.b];                                       \
    m.gpr_[u.a] = (EXPR);                                                      \
    return pc + 1;                                                             \
  }                                                                            \
  static std::size_t NAME##_ri(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t a = m.gpr_[u.a];                                       \
    const std::uint64_t b = static_cast<std::uint64_t>(u.imm);                 \
    m.gpr_[u.a] = (EXPR);                                                      \
    return pc + 1;                                                             \
  }
  FPMIX_H_INT(h_add, a + b)
  FPMIX_H_INT(h_sub, a - b)
  FPMIX_H_INT(h_imul, a * b)
  FPMIX_H_INT(h_and, a & b)
  FPMIX_H_INT(h_or, a | b)
  FPMIX_H_INT(h_xor, a ^ b)
  FPMIX_H_INT(h_shl, a << (b & 63))
  FPMIX_H_INT(h_shr, a >> (b & 63))
  FPMIX_H_INT(h_sar, static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(a) >> (b & 63)))
#undef FPMIX_H_INT

  static std::size_t do_idiv(Machine& m, const MicroOp& u, std::uint64_t bv,
                             std::size_t pc) {
    const auto a = static_cast<std::int64_t>(m.gpr_[u.a]);
    const auto b = static_cast<std::int64_t>(bv);
    if (b == 0) m.trap("integer division by zero");
    if (a == INT64_MIN && b == -1) m.trap("integer division overflow");
    m.gpr_[u.a] = static_cast<std::uint64_t>(a / b);
    return pc + 1;
  }
  static std::size_t do_irem(Machine& m, const MicroOp& u, std::uint64_t bv,
                             std::size_t pc) {
    const auto a = static_cast<std::int64_t>(m.gpr_[u.a]);
    const auto b = static_cast<std::int64_t>(bv);
    if (b == 0) m.trap("integer remainder by zero");
    if (a == INT64_MIN && b == -1) m.trap("integer remainder overflow");
    m.gpr_[u.a] = static_cast<std::uint64_t>(a % b);
    return pc + 1;
  }
  static std::size_t h_idiv_rr(Machine& m, const MicroOp& u, std::size_t pc) {
    return do_idiv(m, u, m.gpr_[u.b], pc);
  }
  static std::size_t h_idiv_ri(Machine& m, const MicroOp& u, std::size_t pc) {
    return do_idiv(m, u, static_cast<std::uint64_t>(u.imm), pc);
  }
  static std::size_t h_irem_rr(Machine& m, const MicroOp& u, std::size_t pc) {
    return do_irem(m, u, m.gpr_[u.b], pc);
  }
  static std::size_t h_irem_ri(Machine& m, const MicroOp& u, std::size_t pc) {
    return do_irem(m, u, static_cast<std::uint64_t>(u.imm), pc);
  }

  static std::size_t set_cmp_flags(Machine& m, std::uint64_t a,
                                   std::uint64_t b, std::size_t pc) {
    m.flags_.eq = a == b;
    m.flags_.lt = static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
    m.flags_.ltu = a < b;
    return pc + 1;
  }
  static std::size_t h_cmp_rr(Machine& m, const MicroOp& u, std::size_t pc) {
    return set_cmp_flags(m, m.gpr_[u.a], m.gpr_[u.b], pc);
  }
  static std::size_t h_cmp_ri(Machine& m, const MicroOp& u, std::size_t pc) {
    return set_cmp_flags(m, m.gpr_[u.a], static_cast<std::uint64_t>(u.imm), pc);
  }
  static std::size_t set_test_flags(Machine& m, std::uint64_t v,
                                    std::size_t pc) {
    m.flags_.eq = v == 0;
    m.flags_.lt = static_cast<std::int64_t>(v) < 0;
    m.flags_.ltu = false;
    return pc + 1;
  }
  static std::size_t h_test_rr(Machine& m, const MicroOp& u, std::size_t pc) {
    return set_test_flags(m, m.gpr_[u.a] & m.gpr_[u.b], pc);
  }
  static std::size_t h_test_ri(Machine& m, const MicroOp& u, std::size_t pc) {
    return set_test_flags(m, m.gpr_[u.a] & static_cast<std::uint64_t>(u.imm), pc);
  }

  static std::size_t h_push(Machine& m, const MicroOp& u, std::size_t pc) {
    m.push64(m.gpr_[u.a]);
    return pc + 1;
  }
  static std::size_t h_pop(Machine& m, const MicroOp& u, std::size_t pc) {
    m.gpr_[u.a] = m.pop64();
    return pc + 1;
  }

  // --- XMM data movement ---------------------------------------------------

  static std::size_t h_movq_xr(Machine& m, const MicroOp& u, std::size_t pc) {
    m.xmm_[u.a].lo = m.gpr_[u.b];  // upper lane preserved (see step_switch)
    return pc + 1;
  }
  static std::size_t h_movq_rx(Machine& m, const MicroOp& u, std::size_t pc) {
    m.gpr_[u.a] = m.xmm_[u.b].lo;
    return pc + 1;
  }
  static std::size_t h_movsd_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    m.xmm_[u.a].lo = m.xmm_[u.b].lo;
    return pc + 1;
  }
  static std::size_t h_movsd_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    m.xmm_[u.a].lo = m.load(ea(m, u), 8);
    m.xmm_[u.a].hi = 0;
    return pc + 1;
  }
  static std::size_t h_movsd_mx(Machine& m, const MicroOp& u, std::size_t pc) {
    m.store(ea(m, u), m.xmm_[u.b].lo, 8);
    return pc + 1;
  }
  static std::size_t h_movss_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    m.xmm_[u.a].lo = m.load(ea(m, u), 4);
    m.xmm_[u.a].hi = 0;
    return pc + 1;
  }
  static std::size_t h_movss_mx(Machine& m, const MicroOp& u, std::size_t pc) {
    m.store(ea(m, u), m.xmm_[u.b].lo & 0xFFFFFFFFu, 4);
    return pc + 1;
  }
  static std::size_t h_movapd_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    m.xmm_[u.a] = m.xmm_[u.b];
    return pc + 1;
  }
  static std::size_t h_movapd_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t a = ea(m, u);
    m.xmm_[u.a].lo = m.load(a, 8);
    m.xmm_[u.a].hi = m.load(a + 8, 8);
    return pc + 1;
  }
  static std::size_t h_movapd_mx(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t a = ea(m, u);
    m.store(a, m.xmm_[u.b].lo, 8);
    m.store(a + 8, m.xmm_[u.b].hi, 8);
    return pc + 1;
  }
  static std::size_t h_push_x(Machine& m, const MicroOp& u, std::size_t pc) {
    m.gpr_[arch::kSpReg] -= 16;
    m.store(m.gpr_[arch::kSpReg], m.xmm_[u.a].lo, 8);
    m.store(m.gpr_[arch::kSpReg] + 8, m.xmm_[u.a].hi, 8);
    return pc + 1;
  }
  static std::size_t h_pop_x(Machine& m, const MicroOp& u, std::size_t pc) {
    m.xmm_[u.a].lo = m.load(m.gpr_[arch::kSpReg], 8);
    m.xmm_[u.a].hi = m.load(m.gpr_[arch::kSpReg] + 8, 8);
    m.gpr_[arch::kSpReg] += 16;
    return pc + 1;
  }

  // --- scalar f64 ----------------------------------------------------------
  // Tag-check order matches read_f64_bits in step_switch: dst first, then
  // src (for XM, the dst check precedes the src bounds check).

#define FPMIX_H_SD(NAME, EXPR)                                                 \
  static std::size_t NAME##_xx(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t abits = m.xmm_[u.a].lo;                                \
    check_tag(m, abits, pc);                                                   \
    const std::uint64_t bbits = m.xmm_[u.b].lo;                                \
    check_tag(m, bbits, pc);                                                   \
    const double a = f64_of(abits);                                            \
    const double b = f64_of(bbits);                                            \
    m.xmm_[u.a].lo = bits_of(double(EXPR));                                    \
    return pc + 1;                                                             \
  }                                                                            \
  static std::size_t NAME##_xm(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t abits = m.xmm_[u.a].lo;                                \
    check_tag(m, abits, pc);                                                   \
    const std::uint64_t bbits = load_f64(m, ea(m, u), pc);                     \
    const double a = f64_of(abits);                                            \
    const double b = f64_of(bbits);                                            \
    m.xmm_[u.a].lo = bits_of(double(EXPR));                                    \
    return pc + 1;                                                             \
  }
  FPMIX_H_SD(h_addsd, a + b)
  FPMIX_H_SD(h_subsd, a - b)
  FPMIX_H_SD(h_mulsd, a * b)
  FPMIX_H_SD(h_divsd, a / b)
  FPMIX_H_SD(h_minsd, b < a ? b : a)
  FPMIX_H_SD(h_maxsd, a < b ? b : a)
#undef FPMIX_H_SD

  static std::size_t h_sqrtsd_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t bbits = m.xmm_[u.b].lo;
    check_tag(m, bbits, pc);
    m.xmm_[u.a].lo = bits_of(std::sqrt(f64_of(bbits)));
    return pc + 1;
  }
  static std::size_t h_sqrtsd_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t bbits = load_f64(m, ea(m, u), pc);
    m.xmm_[u.a].lo = bits_of(std::sqrt(f64_of(bbits)));
    return pc + 1;
  }

  static std::size_t set_fcmp_flags(Machine& m, bool eq, bool lt,
                                    std::size_t pc) {
    m.flags_.eq = eq;
    m.flags_.lt = m.flags_.ltu = lt;
    return pc + 1;
  }
  static std::size_t h_ucomisd_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t abits = m.xmm_[u.a].lo;
    check_tag(m, abits, pc);
    const std::uint64_t bbits = m.xmm_[u.b].lo;
    check_tag(m, bbits, pc);
    const double a = f64_of(abits);
    const double b = f64_of(bbits);
    return set_fcmp_flags(m, a == b, a < b, pc);
  }
  static std::size_t h_ucomisd_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t abits = m.xmm_[u.a].lo;
    check_tag(m, abits, pc);
    const std::uint64_t bbits = load_f64(m, ea(m, u), pc);
    const double a = f64_of(abits);
    const double b = f64_of(bbits);
    return set_fcmp_flags(m, a == b, a < b, pc);
  }

  static std::size_t h_cvtsd2ss_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t bbits = m.xmm_[u.b].lo;
    check_tag(m, bbits, pc);
    m.xmm_[u.a].lo = bits_of(static_cast<float>(f64_of(bbits)));
    return pc + 1;
  }
  static std::size_t h_cvtsd2ss_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t bbits = load_f64(m, ea(m, u), pc);
    m.xmm_[u.a].lo = bits_of(static_cast<float>(f64_of(bbits)));
    return pc + 1;
  }
  static std::size_t h_cvtss2sd_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    const auto src = static_cast<std::uint32_t>(m.xmm_[u.b].lo);
    m.xmm_[u.a].lo = bits_of(static_cast<double>(f32_of(src)));
    return pc + 1;
  }
  static std::size_t h_cvtss2sd_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const auto src = static_cast<std::uint32_t>(m.load(ea(m, u), 4));
    m.xmm_[u.a].lo = bits_of(static_cast<double>(f32_of(src)));
    return pc + 1;
  }
  static std::size_t h_cvtsi2sd(Machine& m, const MicroOp& u, std::size_t pc) {
    m.xmm_[u.a].lo = bits_of(
        static_cast<double>(static_cast<std::int64_t>(m.gpr_[u.b])));
    return pc + 1;
  }
  static std::size_t h_cvttsd2si(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t bbits = m.xmm_[u.b].lo;
    check_tag(m, bbits, pc);
    const double v = f64_of(bbits);
    if (!(v > -9.2e18 && v < 9.2e18)) {
      m.trap("cvttsd2si operand out of int64 range");
    }
    m.gpr_[u.a] = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    return pc + 1;
  }

  // --- scalar f32 (no tag checks: 32-bit lanes cannot carry the sentinel) --

#define FPMIX_H_SS(NAME, EXPR)                                                 \
  static std::size_t NAME##_xx(Machine& m, const MicroOp& u, std::size_t pc) { \
    const float a = f32_of(static_cast<std::uint32_t>(m.xmm_[u.a].lo));        \
    const float b = f32_of(static_cast<std::uint32_t>(m.xmm_[u.b].lo));        \
    m.xmm_[u.a].lo = with_low32(m.xmm_[u.a].lo, bits_of(float(EXPR)));         \
    return pc + 1;                                                             \
  }                                                                            \
  static std::size_t NAME##_xm(Machine& m, const MicroOp& u, std::size_t pc) { \
    const float a = f32_of(static_cast<std::uint32_t>(m.xmm_[u.a].lo));        \
    const float b = f32_of(static_cast<std::uint32_t>(m.load(ea(m, u), 4)));   \
    m.xmm_[u.a].lo = with_low32(m.xmm_[u.a].lo, bits_of(float(EXPR)));         \
    return pc + 1;                                                             \
  }
  FPMIX_H_SS(h_addss, a + b)
  FPMIX_H_SS(h_subss, a - b)
  FPMIX_H_SS(h_mulss, a * b)
  FPMIX_H_SS(h_divss, a / b)
  FPMIX_H_SS(h_minss, b < a ? b : a)
  FPMIX_H_SS(h_maxss, a < b ? b : a)
#undef FPMIX_H_SS

  static std::size_t h_sqrtss_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    const auto src = static_cast<std::uint32_t>(m.xmm_[u.b].lo);
    m.xmm_[u.a].lo =
        with_low32(m.xmm_[u.a].lo, bits_of(std::sqrt(f32_of(src))));
    return pc + 1;
  }
  static std::size_t h_sqrtss_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const auto src = static_cast<std::uint32_t>(m.load(ea(m, u), 4));
    m.xmm_[u.a].lo =
        with_low32(m.xmm_[u.a].lo, bits_of(std::sqrt(f32_of(src))));
    return pc + 1;
  }
  static std::size_t h_ucomiss_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    const float a = f32_of(static_cast<std::uint32_t>(m.xmm_[u.a].lo));
    const float b = f32_of(static_cast<std::uint32_t>(m.xmm_[u.b].lo));
    return set_fcmp_flags(m, a == b, a < b, pc);
  }
  static std::size_t h_ucomiss_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const float a = f32_of(static_cast<std::uint32_t>(m.xmm_[u.a].lo));
    const float b = f32_of(static_cast<std::uint32_t>(m.load(ea(m, u), 4)));
    return set_fcmp_flags(m, a == b, a < b, pc);
  }
  static std::size_t h_cvtsi2ss(Machine& m, const MicroOp& u, std::size_t pc) {
    m.xmm_[u.a].lo = with_low32(
        m.xmm_[u.a].lo,
        bits_of(static_cast<float>(static_cast<std::int64_t>(m.gpr_[u.b]))));
    return pc + 1;
  }
  static std::size_t h_cvttss2si(Machine& m, const MicroOp& u, std::size_t pc) {
    const float v = f32_of(static_cast<std::uint32_t>(m.xmm_[u.b].lo));
    if (!(v > -9.2e18f && v < 9.2e18f)) {
      m.trap("cvttss2si operand out of int64 range");
    }
    m.gpr_[u.a] = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    return pc + 1;
  }

  // --- packed f64 ----------------------------------------------------------
  // Read order (dst lane0, dst lane1, src lane0, src lane1) matches binpd,
  // so the first trap to fire is the same on both engines.

#define FPMIX_H_PD(NAME, EXPR)                                                 \
  static std::size_t NAME##_xx(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t a0b = m.xmm_[u.a].lo;                                  \
    check_tag(m, a0b, pc);                                                     \
    const std::uint64_t a1b = m.xmm_[u.a].hi;                                  \
    check_tag(m, a1b, pc);                                                     \
    const std::uint64_t b0b = m.xmm_[u.b].lo;                                  \
    check_tag(m, b0b, pc);                                                     \
    const std::uint64_t b1b = m.xmm_[u.b].hi;                                  \
    check_tag(m, b1b, pc);                                                     \
    const double a0 = f64_of(a0b), a1 = f64_of(a1b);                           \
    const double b0 = f64_of(b0b), b1 = f64_of(b1b);                           \
    m.xmm_[u.a].lo = bits_of(double((EXPR)(a0, b0)));                          \
    m.xmm_[u.a].hi = bits_of(double((EXPR)(a1, b1)));                          \
    return pc + 1;                                                             \
  }                                                                            \
  static std::size_t NAME##_xm(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t a0b = m.xmm_[u.a].lo;                                  \
    check_tag(m, a0b, pc);                                                     \
    const std::uint64_t a1b = m.xmm_[u.a].hi;                                  \
    check_tag(m, a1b, pc);                                                     \
    const std::uint64_t addr = ea(m, u);                                       \
    const std::uint64_t b0b = load_f64(m, addr, pc);                           \
    const std::uint64_t b1b = load_f64(m, addr + 8, pc);                       \
    const double a0 = f64_of(a0b), a1 = f64_of(a1b);                           \
    const double b0 = f64_of(b0b), b1 = f64_of(b1b);                           \
    m.xmm_[u.a].lo = bits_of(double((EXPR)(a0, b0)));                          \
    m.xmm_[u.a].hi = bits_of(double((EXPR)(a1, b1)));                          \
    return pc + 1;                                                             \
  }
  FPMIX_H_PD(h_addpd, [](double a, double b) { return a + b; })
  FPMIX_H_PD(h_subpd, [](double a, double b) { return a - b; })
  FPMIX_H_PD(h_mulpd, [](double a, double b) { return a * b; })
  FPMIX_H_PD(h_divpd, [](double a, double b) { return a / b; })
#undef FPMIX_H_PD

  static std::size_t h_sqrtpd_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t b0b = m.xmm_[u.b].lo;
    check_tag(m, b0b, pc);
    const std::uint64_t b1b = m.xmm_[u.b].hi;
    check_tag(m, b1b, pc);
    m.xmm_[u.a].lo = bits_of(std::sqrt(f64_of(b0b)));
    m.xmm_[u.a].hi = bits_of(std::sqrt(f64_of(b1b)));
    return pc + 1;
  }
  static std::size_t h_sqrtpd_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t addr = ea(m, u);
    const std::uint64_t b0b = load_f64(m, addr, pc);
    const std::uint64_t b1b = load_f64(m, addr + 8, pc);
    m.xmm_[u.a].lo = bits_of(std::sqrt(f64_of(b0b)));
    m.xmm_[u.a].hi = bits_of(std::sqrt(f64_of(b1b)));
    return pc + 1;
  }

  // --- packed f32 ----------------------------------------------------------
  // Src halves are read before any dst write so aliased src==dst (e.g.
  // `addps x0, x0`) behaves like binps.

#define FPMIX_H_PS(NAME, EXPR)                                                 \
  static std::uint64_t NAME##_half(std::uint64_t d, std::uint64_t s) {         \
    const auto f = [](float a, float b) { return float(EXPR); };               \
    const std::uint64_t r0 =                                                   \
        bits_of(f(f32_of(static_cast<std::uint32_t>(d)),                       \
                  f32_of(static_cast<std::uint32_t>(s))));                     \
    const std::uint64_t r1 =                                                   \
        bits_of(f(f32_of(static_cast<std::uint32_t>(d >> 32)),                 \
                  f32_of(static_cast<std::uint32_t>(s >> 32))));               \
    return r0 | (r1 << 32);                                                    \
  }                                                                            \
  static std::size_t NAME##_xx(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t slo = m.xmm_[u.b].lo;                                  \
    const std::uint64_t shi = m.xmm_[u.b].hi;                                  \
    m.xmm_[u.a].lo = NAME##_half(m.xmm_[u.a].lo, slo);                         \
    m.xmm_[u.a].hi = NAME##_half(m.xmm_[u.a].hi, shi);                         \
    return pc + 1;                                                             \
  }                                                                            \
  static std::size_t NAME##_xm(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t addr = ea(m, u);                                       \
    const std::uint64_t slo = m.load(addr, 8);                                 \
    const std::uint64_t shi = m.load(addr + 8, 8);                             \
    m.xmm_[u.a].lo = NAME##_half(m.xmm_[u.a].lo, slo);                         \
    m.xmm_[u.a].hi = NAME##_half(m.xmm_[u.a].hi, shi);                         \
    return pc + 1;                                                             \
  }
  FPMIX_H_PS(h_addps, a + b)
  FPMIX_H_PS(h_subps, a - b)
  FPMIX_H_PS(h_mulps, a * b)
  FPMIX_H_PS(h_divps, a / b)
#undef FPMIX_H_PS

  static std::uint64_t sqrt_half(std::uint64_t s) {
    const std::uint64_t r0 =
        bits_of(std::sqrt(f32_of(static_cast<std::uint32_t>(s))));
    const std::uint64_t r1 =
        bits_of(std::sqrt(f32_of(static_cast<std::uint32_t>(s >> 32))));
    return r0 | (r1 << 32);
  }
  static std::size_t h_sqrtps_xx(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t slo = m.xmm_[u.b].lo;
    const std::uint64_t shi = m.xmm_[u.b].hi;
    m.xmm_[u.a].lo = sqrt_half(slo);
    m.xmm_[u.a].hi = sqrt_half(shi);
    return pc + 1;
  }
  static std::size_t h_sqrtps_xm(Machine& m, const MicroOp& u, std::size_t pc) {
    const std::uint64_t addr = ea(m, u);
    const std::uint64_t slo = m.load(addr, 8);
    const std::uint64_t shi = m.load(addr + 8, 8);
    m.xmm_[u.a].lo = sqrt_half(slo);
    m.xmm_[u.a].hi = sqrt_half(shi);
    return pc + 1;
  }

  // --- 128-bit bitwise (no tag checks, like bitop) -------------------------

#define FPMIX_H_BIT(NAME, EXPR)                                                \
  static std::size_t NAME##_xx(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t slo = m.xmm_[u.b].lo;                                  \
    const std::uint64_t shi = m.xmm_[u.b].hi;                                  \
    m.xmm_[u.a].lo = (m.xmm_[u.a].lo EXPR slo);                                \
    m.xmm_[u.a].hi = (m.xmm_[u.a].hi EXPR shi);                                \
    return pc + 1;                                                             \
  }                                                                            \
  static std::size_t NAME##_xm(Machine& m, const MicroOp& u, std::size_t pc) { \
    const std::uint64_t addr = ea(m, u);                                       \
    const std::uint64_t slo = m.load(addr, 8);                                 \
    const std::uint64_t shi = m.load(addr + 8, 8);                             \
    m.xmm_[u.a].lo = (m.xmm_[u.a].lo EXPR slo);                                \
    m.xmm_[u.a].hi = (m.xmm_[u.a].hi EXPR shi);                                \
    return pc + 1;                                                             \
  }
  FPMIX_H_BIT(h_andpd, &)
  FPMIX_H_BIT(h_orpd, |)
  FPMIX_H_BIT(h_xorpd, ^)
#undef FPMIX_H_BIT

  // --- intrinsics -----------------------------------------------------------

  static std::size_t h_intrin(Machine& m, const MicroOp&, std::size_t pc) {
    m.exec_intrinsic(instr(m, pc));
    return pc + 1;
  }
};

namespace {

constexpr MicroExec::Handler kMicroTable[] = {
#define FPMIX_MICRO_HANDLER(KIND, HANDLER, FAMILY, STOPS) &MicroExec::HANDLER,
    FPMIX_MICRO_KINDS(FPMIX_MICRO_HANDLER)
#undef FPMIX_MICRO_HANDLER
};

}  // namespace

// ---------------------------------------------------------------------------
// JIT engine driver.
//
// Compiled code (src/vm/jit/) keeps guest state in the Machine's own arrays
// -- the context block pins pointers to them -- so everything outside the
// inner dispatch (chunked supervision, fault injection, profile readout)
// works unchanged. This block supplies the policy the mechanism-only jit/
// layer leaves out: the helper callbacks compiled code reaches through the
// context, the per-segment / per-image compilation caches, and the exit
// translation back into RunResult with byte-identical trap messages.
// ---------------------------------------------------------------------------

struct JitExec {
  /// Machine-side state hung off JitContext::run_state for one entry: traps
  /// cannot unwind through JIT frames, so helpers park the message here and
  /// return through the epilogue.
  struct RunState {
    Machine* m = nullptr;
    std::string trap_message;
    bool sentinel = false;
  };

  static Machine& machine(jit::JitContext* ctx) {
    return *static_cast<RunState*>(ctx->run_state)->m;
  }

  // VM flags are mirrored as bytes in the context while JIT code runs; the
  // interpreter handlers (the near-budget tail) read/write Machine::flags_,
  // so the two views are synced around every interpreted stretch.
  static void flags_to_machine(const jit::JitContext* ctx, Machine& m) {
    m.flags_.eq = ctx->flag_eq != 0;
    m.flags_.lt = ctx->flag_lt != 0;
    m.flags_.ltu = ctx->flag_ltu != 0;
  }
  static void flags_to_ctx(jit::JitContext* ctx, const Machine& m) {
    ctx->flag_eq = m.flags_.eq ? 1 : 0;
    ctx->flag_lt = m.flags_.lt ? 1 : 0;
    ctx->flag_ltu = m.flags_.ltu ? 1 : 0;
  }

  static void record_trap(jit::JitContext* ctx, std::uint64_t pc,
                          std::string message, bool sentinel) {
    auto* rs = static_cast<RunState*>(ctx->run_state);
    rs->trap_message = std::move(message);
    rs->sentinel = sentinel;
    ctx->exit_pc = pc;
    ctx->exit_status = jit::kExitTrap;
  }

  // --- helpers entered from compiled code (through the context block) ------

  /// Bounds-check failure in a JIT'd memory template: same message as
  /// Machine::load/store.
  static void help_mem_trap(jit::JitContext* ctx, std::uint64_t addr,
                            std::uint64_t bytes, std::uint64_t pc,
                            std::uint64_t is_store) {
    record_trap(
        ctx, pc,
        strformat(is_store != 0
                      ? "memory write of %u bytes at 0x%llx out of bounds"
                      : "memory read of %u bytes at 0x%llx out of bounds",
                  static_cast<unsigned>(bytes),
                  static_cast<unsigned long long>(addr)),
        false);
  }

  /// Inline tag compare matched the sentinel: compose the full diagnostic
  /// through the interpreter's own path so the message is byte-identical.
  static void help_tag_trap(jit::JitContext* ctx, std::uint64_t bits,
                            std::uint64_t pc) {
    Machine& m = machine(ctx);
    try {
      m.check_not_tagged(m.exec_->code()[pc], bits);
      // The stub only fires on a sentinel match, so check_not_tagged always
      // throws; reaching here means the compare constant drifted.
      record_trap(ctx, pc, "tag stub fired without a tagged value", false);
    } catch (const Machine::Trap& t) {
      record_trap(ctx, pc, t.message, t.sentinel);
    }
  }

  /// The off-end stub (JitImage::native_addr(total)): execution ran past
  /// the last instruction.
  static void help_exec(jit::JitContext* ctx, std::uint64_t pc) {
    record_trap(ctx, pc, "execution ran past the end of the code", false);
  }

  /// Return-address resolution for the JIT'd kRet template (the pop and the
  /// null-frame check were already done inline). Returns the native address
  /// of the return target, or null to exit (trap recorded).
  static const void* help_ret(jit::JitContext* ctx, std::uint64_t ra,
                              std::uint64_t pc) {
    Machine& m = machine(ctx);
    const std::size_t idx = m.exec_->index_of(ra);
    if (idx == ExecutableImage::kNoIndex) {
      record_trap(ctx, pc,
                  strformat("ret to 0x%llx, not an instruction boundary",
                            static_cast<unsigned long long>(ra)),
                  false);
      return nullptr;
    }
    return static_cast<const jit::JitImage*>(ctx->image)->native_addr(idx);
  }

  /// Out-of-line kIntrin: intrinsics touch neither the VM flags nor the pc,
  /// so no flag sync or native-address lookup is needed. Returns 1 to fall
  /// through, 0 on trap.
  static std::uint64_t help_intrin(jit::JitContext* ctx, std::uint64_t pc) {
    Machine& m = machine(ctx);
    try {
      m.exec_intrinsic(m.exec_->code()[pc]);
      return 1;
    } catch (const Machine::Trap& t) {
      record_trap(ctx, pc, t.message, t.sentinel);
      return 0;
    }
  }

  /// Arithmetic trap from a specialised template (idiv/irem, cvtt*): the
  /// interpreter's message is selected by id so the text stays
  /// byte-identical.
  static void help_op_trap(jit::JitContext* ctx, std::uint64_t pc,
                           std::uint64_t msg_id) {
    static const char* const kMsgs[] = {
        "integer division by zero",
        "integer remainder by zero",
        "integer division overflow",
        "integer remainder overflow",
        "cvttsd2si operand out of int64 range",
        "cvttss2si operand out of int64 range",
    };
    FPMIX_CHECK(msg_id < sizeof(kMsgs) / sizeof(kMsgs[0]));
    record_trap(ctx, pc, kMsgs[msg_id], false);
  }

  // --- inlined-intrinsic call targets --------------------------------------
  //
  // The JIT's hot-intrinsic tier calls these double(double) entries directly
  // from compiled code (arguments/results move through host xmm0). They call
  // the exact functions exec_intrinsic calls, so results are bit-identical;
  // F32 twins share the double-precision entry because compiled code widens
  // the argument and narrows the result exactly like arg_f32/ret_f32 above.
  // Null entries (pow's two-argument evaluation order, output/print/MPI)
  // keep the out-of-line help_intrin path.

  static double in_sin(double x) { return std::sin(x); }
  static double in_cos(double x) { return std::cos(x); }
  static double in_tan(double x) { return std::tan(x); }
  static double in_exp(double x) { return std::exp(x); }
  static double in_log(double x) { return std::log(x); }
  static double in_floor(double x) { return std::floor(x); }
  static double in_ceil(double x) { return std::ceil(x); }
  static double in_fabs(double x) { return std::fabs(x); }

  static const void* const* intrin_fn_table() {
    static const auto table = [] {
      std::array<const void*, static_cast<std::size_t>(in::Id::kNumIntrinsics)>
          t{};
      const auto set = [&](in::Id id, double (*fn)(double)) {
        t[static_cast<std::size_t>(id)] = reinterpret_cast<const void*>(fn);
      };
      set(in::Id::kSin, &in_sin);
      set(in::Id::kCos, &in_cos);
      set(in::Id::kTan, &in_tan);
      set(in::Id::kExp, &in_exp);
      set(in::Id::kLog, &in_log);
      set(in::Id::kFloor, &in_floor);
      set(in::Id::kCeil, &in_ceil);
      set(in::Id::kFabs, &in_fabs);
      set(in::Id::kSinF32, &in_sin);
      set(in::Id::kCosF32, &in_cos);
      set(in::Id::kTanF32, &in_tan);
      set(in::Id::kExpF32, &in_exp);
      set(in::Id::kLogF32, &in_log);
      set(in::Id::kFloorF32, &in_floor);
      set(in::Id::kCeilF32, &in_ceil);
      set(in::Id::kFabsF32, &in_fabs);
      // The compiler inlines exactly the ids this table covers; a mismatch
      // would send an id to a null slot (crash) or silently skip the tier.
      for (std::size_t i = 0; i < t.size(); ++i) {
        FPMIX_CHECK(jit::intrinsic_inlinable(static_cast<std::uint16_t>(i)) ==
                    (t[i] != nullptr));
      }
      return t;
    }();
    return table.data();
  }

  // --- timed helper variants (Options::time_jit_helpers) -------------------
  //
  // Same helpers wrapped in wall-clock accounting, installed in the context
  // instead of the plain ones so the common path pays nothing. Only the
  // helpers reachable on a non-trapping hot path are wrapped; trap helpers
  // end the run anyway.

  static void add_helper_ns(jit::JitContext* ctx, std::uint64_t t0) {
    Machine& m = machine(ctx);
    m.jit_helper_ns_ += steady_ns() - t0;
    m.jit_helper_calls_ += 1;
  }

  static void help_exec_timed(jit::JitContext* ctx, std::uint64_t pc) {
    const std::uint64_t t0 = steady_ns();
    help_exec(ctx, pc);
    add_helper_ns(ctx, t0);
  }
  static const void* help_ret_timed(jit::JitContext* ctx, std::uint64_t ra,
                                    std::uint64_t pc) {
    const std::uint64_t t0 = steady_ns();
    const void* r = help_ret(ctx, ra, pc);
    add_helper_ns(ctx, t0);
    return r;
  }
  static std::uint64_t help_intrin_timed(jit::JitContext* ctx,
                                         std::uint64_t pc) {
    const std::uint64_t t0 = steady_ns();
    const std::uint64_t r = help_intrin(ctx, pc);
    add_helper_ns(ctx, t0);
    return r;
  }

  // --- compilation caches --------------------------------------------------

  /// Compiles (or fetches) a segment's position-independent blob. Cached on
  /// the CodeSegment, so every image that splices it shares the code.
  static std::shared_ptr<const jit::SegmentBlob> blob_for(
      const CodeSegment& seg, bool profile) {
    jit::BlobCache& cache = seg.jit_cache();
    std::lock_guard<std::mutex> lock(cache.mu);
    auto& slot = cache.variant[profile ? 1 : 0];
    if (slot == nullptr) {
      slot = jit::compile_stream(seg.uops(),
                                 {/*local=*/true, /*profile=*/profile});
    }
    return slot;
  }

  /// Links (or fetches) the executable translation of a whole image. May
  /// return null when executable memory is unavailable at link time.
  static std::shared_ptr<const jit::JitImage> image_for(
      const ExecutableImage& exec, bool profile) {
    jit::ImageJitCache& cache = exec.jit_cache();
    std::lock_guard<std::mutex> lock(cache.mu);
    auto& slot = cache.variant[profile ? 1 : 0];
    if (slot != nullptr) return slot;

    std::vector<jit::LinkSegment> links;
    const auto& segs = exec.segments();
    if (!segs.empty()) {
      // Spliced image: link the per-segment blobs at their splice positions.
      // A segment's guest byte base is the rebased address of its first
      // instruction (segments store local addresses starting at 0).
      const auto& first = exec.segment_first_index();
      links.reserve(segs.size());
      for (std::size_t i = 0; i < segs.size(); ++i) {
        const CodeSegment& s = *segs[i];
        const std::uint64_t byte_base =
            s.instruction_count() == 0 ? 0 : exec.code()[first[i]].addr;
        links.push_back({blob_for(s, profile), first[i], byte_base});
      }
    } else {
      // Built from scratch (no segments): one monolithic blob in global
      // form, cached on the image itself.
      links.push_back({jit::compile_stream(
                           exec.uops(), {/*local=*/false, /*profile=*/profile}),
                       /*first_index=*/0, /*byte_base=*/0});
    }
    slot = jit::JitImage::link(links, exec.uops().size());
    return slot;
  }

  // --- the run loop glue ---------------------------------------------------

  /// Near-budget tail: a block-entry guard found the budget boundary inside
  /// its block and exited before running any of it. Interpret one
  /// instruction at a time (FPMIX_DISPATCH order: budget check, count,
  /// retire, handler) up to the exact boundary -- the interpreter is the
  /// semantic oracle, so the stop is bit-identical, including a stop
  /// between a fused compare/branch (the handler materialises the flags)
  /// and a fault applied at an exact retired count. Bounded work: strictly
  /// fewer instructions remain than the block would have retired.
  static std::uint32_t interp_near_tail(jit::JitContext* ctx, Machine& m) {
    const auto& uops = m.exec_->uops();
    std::size_t pc = static_cast<std::size_t>(ctx->exit_pc);
    flags_to_machine(ctx, m);
    while (true) {
      if (ctx->retired >= ctx->max_instructions) {
        ctx->exit_pc = pc;
        flags_to_ctx(ctx, m);
        return jit::kExitBudget;
      }
      if (pc >= uops.size()) {
        flags_to_ctx(ctx, m);
        record_trap(ctx, pc,
                    strformat("execution ran past the end of the code"),
                    false);
        return jit::kExitTrap;
      }
      if (ctx->counts != nullptr) ++ctx->counts[pc];
      ++ctx->retired;
      try {
        const MicroOp& u = uops[pc];
        const std::size_t next =
            kMicroTable[u.kind](m, u, pc);
        if (next == MicroExec::kStop) {
          flags_to_ctx(ctx, m);
          return jit::kExitHalt;
        }
        pc = next;
      } catch (const Machine::Trap& t) {
        flags_to_ctx(ctx, m);
        record_trap(ctx, pc, t.message, t.sentinel);
        return jit::kExitTrap;
      }
    }
  }

  static RunResult run(Machine& m) {
    const jit::Runtime* rt = jit::runtime();
    FPMIX_CHECK(rt != nullptr);  // run_engine verified jit_supported()
    const auto img = image_for(*m.exec_, m.options_.profile);
    if (img == nullptr) {
      // Executable memory vanished after the capability probe (hardened
      // kernel tightening mid-flight); degrade for this run.
      return m.options_.profile ? m.run_micro<true>() : m.run_micro<false>();
    }

    RunState rs;
    rs.m = &m;
    jit::JitContext ctx{};
    ctx.gpr = m.gpr_;
    ctx.mem_base = m.mem_base_;
    ctx.mem_size = m.mem_size_;
    ctx.xmm = m.xmm_;
    ctx.retired = m.retired_;
    ctx.max_instructions = m.options_.max_instructions;
    ctx.counts = m.options_.profile ? m.counts_.data() : nullptr;
    ctx.tag_cmp = m.options_.tag_trap
                      ? static_cast<std::uint64_t>(arch::kReplacedTag)
                      : jit::kTagCmpDisabled;
    ctx.exit_status = jit::kExitHalt;
    flags_to_ctx(&ctx, m);
    ctx.epilogue = rt->epilogue;
    ctx.help_mem_trap = reinterpret_cast<const void*>(&help_mem_trap);
    ctx.help_tag_trap = reinterpret_cast<const void*>(&help_tag_trap);
    if (m.options_.time_jit_helpers) {
      ctx.help_exec = reinterpret_cast<const void*>(&help_exec_timed);
      ctx.help_ret = reinterpret_cast<const void*>(&help_ret_timed);
      ctx.help_intrin = reinterpret_cast<const void*>(&help_intrin_timed);
    } else {
      ctx.help_exec = reinterpret_cast<const void*>(&help_exec);
      ctx.help_ret = reinterpret_cast<const void*>(&help_ret);
      ctx.help_intrin = reinterpret_cast<const void*>(&help_intrin);
    }
    ctx.help_op_trap = reinterpret_cast<const void*>(&help_op_trap);
    // Withholding the table forces every intrinsic through help_intrin, so
    // the Amdahl split sees intrinsic time too (the inline tier would
    // otherwise bypass the timed wrapper).
    ctx.intrin_fn =
        m.options_.time_jit_helpers ? nullptr : intrin_fn_table();
    ctx.mem_limit8 = m.mem_size_ >= 8 ? m.mem_size_ - 7 : 0;
    ctx.mem_limit4 = m.mem_size_ >= 4 ? m.mem_size_ - 3 : 0;
    ctx.run_state = &rs;
    ctx.image = img.get();

    std::uint32_t status = rt->entry(&ctx, img->native_addr(m.pc_));
    if (status == jit::kExitBudgetNear) status = interp_near_tail(&ctx, m);

    RunResult result;
    m.retired_ = ctx.retired;
    result.instructions_retired = ctx.retired;
    flags_to_machine(&ctx, m);
    switch (status) {
      case jit::kExitHalt:
        // Like the interpreters, a clean stop leaves pc_ untouched.
        m.stopped_ = true;
        result.status = RunResult::Status::kHalted;
        break;
      case jit::kExitBudget:
        m.pc_ = static_cast<std::size_t>(ctx.exit_pc);  // the unexecuted pc
        result.status = RunResult::Status::kOutOfBudget;
        result.trap_message = "instruction budget exhausted";
        break;
      default:  // jit::kExitTrap
        m.pc_ = static_cast<std::size_t>(ctx.exit_pc);
        result.status = RunResult::Status::kTrapped;
        result.trap_message =
            rs.trap_message + m.trap_context(m.pc_, ctx.retired);
        result.sentinel_escape = rs.sentinel;
        break;
    }
    return result;
  }
};

RunResult Machine::run_jit() { return JitExec::run(*this); }

// Hot fall-through pairs fused into one token: the first op must be a plain
// fall-through (never a branch), the second may be anything. A fused block
// is the literal concatenation of the two per-op sequences with the middle
// indirect dispatch removed, so retired counts, profile counts, the budget
// check and trap pcs are identical to the unfused path. Pairs chosen from
// executed-pair frequencies on the NAS kernel suite.
#define FPMIX_FUSED_PAIRS(X) \
  X(kLoad, kMovRI, h_load, h_mov_ri) \
  X(kLoad, kMovsdXM, h_load, h_movsd_xm) \
  X(kLoad, kLoad, h_load, h_load) \
  X(kLoad, kAddRR, h_load, h_add_rr) \
  X(kLoad, kAddRI, h_load, h_add_ri) \
  X(kMovsdXM, kMulsdXX, h_movsd_xm, h_mulsd_xx) \
  X(kMovsdXM, kMovsdXM, h_movsd_xm, h_movsd_xm) \
  X(kMovsdXM, kLoad, h_movsd_xm, h_load) \
  X(kMovsdXM, kSubsdXX, h_movsd_xm, h_subsd_xx) \
  X(kMovsdXM, kMovsdMX, h_movsd_xm, h_movsd_mx) \
  X(kMovsdXM, kAddsdXX, h_movsd_xm, h_addsd_xx) \
  X(kMovsdMX, kLoad, h_movsd_mx, h_load) \
  X(kMovsdMX, kMovsdXM, h_movsd_mx, h_movsd_xm) \
  X(kMovRI, kAddRR, h_mov_ri, h_add_rr) \
  X(kMovRI, kImulRR, h_mov_ri, h_imul_rr) \
  X(kMovRI, kCmpRR, h_mov_ri, h_cmp_rr) \
  X(kAddRR, kMovsdXM, h_add_rr, h_movsd_xm) \
  X(kAddRR, kLoad, h_add_rr, h_load) \
  X(kAddRI, kStore, h_add_ri, h_store) \
  X(kImulRR, kLoad, h_imul_rr, h_load) \
  X(kStore, kJmp, h_store, h_jmp) \
  X(kCmpRR, kJge, h_cmp_rr, h_jge) \
  X(kCmpRR, kJl, h_cmp_rr, h_jl) \
  X(kCmpRR, kJne, h_cmp_rr, h_jne) \
  X(kCmpRI, kJge, h_cmp_ri, h_jge) \
  X(kCmpRI, kJl, h_cmp_ri, h_jl) \
  X(kCmpRI, kJne, h_cmp_ri, h_jne) \
  X(kAddsdXX, kMovsdMX, h_addsd_xx, h_movsd_mx) \
  X(kSubsdXX, kMovsdMX, h_subsd_xx, h_movsd_mx) \
  X(kMulsdXX, kAddsdXX, h_mulsd_xx, h_addsd_xx) \
  X(kMulsdXX, kSubsdXX, h_mulsd_xx, h_subsd_xx)

template <bool Profile>
RunResult Machine::run_micro() {
  const MicroOp* const uops = exec_->uops().data();
  const std::uint64_t max_instructions = options_.max_instructions;
  // The pc and the retired count live in locals: handler code is opaque to
  // the register allocator only at the memory level, so member state would
  // otherwise be spilled and reloaded on every instruction.
  std::size_t pc = pc_;
  std::uint64_t retired = retired_;
  std::uint64_t* const counts = Profile ? counts_.data() : nullptr;
  RunResult result;

  // Token-threaded core. Each op body ends with its own dispatch (computed
  // goto), so the branch predictor sees one indirect jump per opcode site
  // instead of a single shared dispatch point, and the handler functions --
  // direct calls here -- inline into the label blocks. The labels and the
  // bodies are both generated from FPMIX_MICRO_KINDS, so they are total over
  // MicroKind by construction.
  const void* const labels[] = {
#define FPMIX_LABEL(KIND, HANDLER, FAMILY, STOPS) &&L_##KIND,
      FPMIX_MICRO_KINDS(FPMIX_LABEL)
#undef FPMIX_LABEL
  };

  // Resolve each op's token to its label address once per run; dispatch then
  // needs a single load indexed by pc (issued in parallel with the uop load)
  // instead of uop.kind followed by a table lookup -- two dependent loads on
  // the critical path.
  const std::size_t code_len = exec_->uops().size();
  std::vector<const void*> threaded(code_len);
  for (std::size_t i = 0; i < code_len; ++i) {
    const void* t = labels[uops[i].kind];
#define FPMIX_RESOLVE(KA, KB, HA, HB)                                   \
    if (uops[i].kind == static_cast<std::uint16_t>(MicroKind::KA) &&    \
        i + 1 < code_len &&                                             \
        uops[i + 1].kind == static_cast<std::uint16_t>(MicroKind::KB))  \
      t = &&L2_##KA##_##KB;
    FPMIX_FUSED_PAIRS(FPMIX_RESOLVE)
#undef FPMIX_RESOLVE
    threaded[i] = t;
  }
  const void* const* const tokens = threaded.data();

#define FPMIX_DISPATCH()                                       \
  do {                                                         \
    if (retired >= max_instructions) [[unlikely]] goto budget; \
    if constexpr (Profile) ++counts[pc];                       \
    ++retired;                                                 \
    u = &uops[pc];                                             \
    goto* tokens[pc];                                          \
  } while (0)
  // Ops that can stop the machine (halt, ret-to-null) check for the
  // sentinel; the rest skip it.
#define FPMIX_OP(KIND, HANDLER, FAMILY, STOPS)     \
  L_##KIND:                                        \
  pc = MicroExec::HANDLER(*this, *u, pc);          \
  if constexpr (STOPS != 0) {                      \
    if (pc == MicroExec::kStop) goto halted;       \
  }                                                \
  FPMIX_DISPATCH();

  const MicroOp* u = nullptr;
  try {
    FPMIX_DISPATCH();

    FPMIX_MICRO_KINDS(FPMIX_OP)

#define FPMIX_OP2(KA, KB, HA, HB)                                \
  L2_##KA##_##KB:                                                \
  pc = MicroExec::HA(*this, *u, pc);                             \
  if (retired >= max_instructions) [[unlikely]] goto budget;     \
  if constexpr (Profile) ++counts[pc];                           \
  ++retired;                                                     \
  u = &uops[pc];                                                 \
  pc = MicroExec::HB(*this, *u, pc);                             \
  FPMIX_DISPATCH();
    FPMIX_FUSED_PAIRS(FPMIX_OP2)
#undef FPMIX_OP2

  halted:
    stopped_ = true;
    result.status = RunResult::Status::kHalted;
  } catch (const Trap& t) {
    pc_ = pc;  // the index of the instruction that trapped
    result.status = RunResult::Status::kTrapped;
    result.trap_message = t.message + trap_context(pc, retired);
    result.sentinel_escape = t.sentinel;
  }
  retired_ = retired;
  result.instructions_retired = retired;
  return result;

budget:
  pc_ = pc;
  retired_ = retired;
  result.status = RunResult::Status::kOutOfBudget;
  result.trap_message = "instruction budget exhausted";
  result.instructions_retired = retired;
  return result;

#undef FPMIX_OP
#undef FPMIX_DISPATCH
#undef FPMIX_FUSED_PAIRS
}

template RunResult Machine::run_micro<true>();
template RunResult Machine::run_micro<false>();

}  // namespace fpmix::vm