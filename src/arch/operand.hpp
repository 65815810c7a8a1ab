// Instruction operands: registers, immediates and memory references.
#pragma once

#include <cstdint>

namespace fpmix::arch {

/// Register numbers 0..15 for both files. GPR 15 is the stack pointer by
/// convention (the assembler exposes it as `sp`).
inline constexpr std::uint8_t kNumGprs = 16;
inline constexpr std::uint8_t kNumXmms = 16;
inline constexpr std::uint8_t kSpReg = 15;

/// Sentinel meaning "no register" in a memory reference.
inline constexpr std::uint8_t kNoReg = 0xFF;

/// A memory reference: [base + index*scale + disp]. Any of base/index may be
/// kNoReg; an absolute address is expressed with both absent.
struct MemRef {
  std::uint8_t base = kNoReg;
  std::uint8_t index = kNoReg;
  std::uint8_t scale = 1;  // 1, 2, 4 or 8
  std::int32_t disp = 0;

  friend bool operator==(const MemRef&, const MemRef&) = default;
};

enum class OperandKind : std::uint8_t {
  kNone = 0,
  kGpr = 1,
  kXmm = 2,
  kImm = 3,
  kMem = 4,
};

/// A single operand. Plain struct (no invariants beyond kind-discriminated
/// fields); the encoder validates operand forms against the opcode.
struct Operand {
  OperandKind kind = OperandKind::kNone;
  std::uint8_t reg = 0;   // kGpr / kXmm
  std::int64_t imm = 0;   // kImm
  MemRef mem;             // kMem

  static Operand none() { return Operand{}; }
  static Operand gpr(std::uint8_t r) {
    return Operand{OperandKind::kGpr, r, 0, {}};
  }
  static Operand xmm(std::uint8_t r) {
    return Operand{OperandKind::kXmm, r, 0, {}};
  }
  static Operand make_imm(std::int64_t v) {
    return Operand{OperandKind::kImm, 0, v, {}};
  }
  static Operand make_mem(MemRef m) {
    return Operand{OperandKind::kMem, 0, 0, m};
  }
  /// [base + disp]
  static Operand mem_bd(std::uint8_t base, std::int32_t disp) {
    return make_mem(MemRef{base, kNoReg, 1, disp});
  }
  /// [base + index*scale + disp]
  static Operand mem_bisd(std::uint8_t base, std::uint8_t index,
                          std::uint8_t scale, std::int32_t disp) {
    return make_mem(MemRef{base, index, scale, disp});
  }
  /// [disp] absolute
  static Operand mem_abs(std::int32_t addr) {
    return make_mem(MemRef{kNoReg, kNoReg, 1, addr});
  }

  bool is_gpr() const { return kind == OperandKind::kGpr; }
  bool is_xmm() const { return kind == OperandKind::kXmm; }
  bool is_imm() const { return kind == OperandKind::kImm; }
  bool is_mem() const { return kind == OperandKind::kMem; }

  friend bool operator==(const Operand&, const Operand&) = default;
};

}  // namespace fpmix::arch
