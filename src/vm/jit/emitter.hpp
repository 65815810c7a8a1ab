// Minimal x86-64 instruction emitter for the template JIT.
//
// Covers exactly the encodings the micro-op templates need: 64-bit ALU in
// register and [base+disp] memory forms, 8/32/64-bit moves, lea with a full
// SIB recipe, setcc/jcc on the mirrored VM flags, indirect call/jmp through
// the context block, and the scalar-SSE subset (movq/movd, arithmetic,
// compares, converts, and the cmpsd/andpd blend used to reproduce the
// interpreter's min/max selection semantics exactly).
//
// Labels are single-use-bind, multi-use-reference rel32 fixups; everything
// that crosses blob boundaries goes through jit::Reloc instead and is
// patched at link time.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "support/error.hpp"

namespace fpmix::vm::jit {

// Host register numbers (hardware encoding).
enum HostReg : int {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// Condition codes (the `cc` nibble of 0F 8x / 0F 9x).
enum Cond : int {
  CC_B = 0x2, CC_AE = 0x3, CC_E = 0x4, CC_NE = 0x5, CC_BE = 0x6, CC_A = 0x7,
  CC_S = 0x8, CC_NP = 0xB, CC_L = 0xC, CC_GE = 0xD, CC_LE = 0xE, CC_G = 0xF,
};

// 64-bit ALU selector: {reg->mem opcode, mem->reg opcode, /n for 81}.
enum class Alu : int { kAdd = 0, kOr = 1, kAnd = 4, kSub = 5, kXor = 6, kCmp = 7 };

class Emitter {
 public:
  std::vector<std::uint8_t> code;

  std::size_t size() const { return code.size(); }

  void u8(std::uint8_t v) { code.push_back(v); }
  void u32(std::uint32_t v) {
    const std::size_t at = code.size();
    code.resize(at + 4);
    std::memcpy(code.data() + at, &v, 4);
  }
  void u64(std::uint64_t v) {
    const std::size_t at = code.size();
    code.resize(at + 8);
    std::memcpy(code.data() + at, &v, 8);
  }
  void patch32(std::size_t at, std::uint32_t v) {
    std::memcpy(code.data() + at, &v, 4);
  }

  // --- labels (intra-blob rel32) ------------------------------------------

  struct Label {
    std::ptrdiff_t pos = -1;
    std::vector<std::size_t> fixups;  // offsets of pending rel32 sites
  };

  void bind(Label& l) {
    FPMIX_CHECK(l.pos < 0);
    l.pos = static_cast<std::ptrdiff_t>(code.size());
    for (const std::size_t at : l.fixups) {
      patch32(at, static_cast<std::uint32_t>(l.pos -
                                             static_cast<std::ptrdiff_t>(at) -
                                             4));
    }
    l.fixups.clear();
  }

  void rel32_to(Label& l) {
    if (l.pos >= 0) {
      u32(static_cast<std::uint32_t>(
          l.pos - static_cast<std::ptrdiff_t>(code.size()) - 4));
    } else {
      l.fixups.push_back(code.size());
      u32(0);
    }
  }

  // --- encoding primitives -------------------------------------------------

  void rex(bool w, int reg, int index, int base) {
    const std::uint8_t r = 0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) |
                           ((index >> 3) << 1) | (base >> 3);
    if (r != 0x40 || w) u8(r);
  }

  void modrm(int mod, int reg, int rm) {
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }

  /// ModRM+SIB+disp for [base + disp] (no index). Handles the rsp/r12 SIB
  /// requirement and the rbp/r13 mandatory-disp rule.
  void mem_bd(int reg, int base, std::int32_t disp) {
    const bool need_sib = (base & 7) == RSP;
    const bool disp8 = disp >= -128 && disp <= 127;
    const bool need_disp = disp != 0 || (base & 7) == RBP;
    const int mod = !need_disp ? 0 : (disp8 ? 1 : 2);
    modrm(mod, reg, need_sib ? 4 : base);
    if (need_sib) u8(static_cast<std::uint8_t>((4 << 3) | (base & 7) | 0x00));
    if (need_disp) {
      if (disp8) u8(static_cast<std::uint8_t>(disp));
      else u32(static_cast<std::uint32_t>(disp));
    }
  }

  /// ModRM+SIB+disp for [base + index*2^scale + disp]; index must not be RSP.
  void mem_bisd(int reg, int base, int index, int scale, std::int32_t disp) {
    FPMIX_CHECK((index & 7) != RSP || index >= 8);  // rsp unusable as index
    const bool disp8 = disp >= -128 && disp <= 127;
    const bool need_disp = disp != 0 || (base & 7) == RBP;
    const int mod = !need_disp ? 0 : (disp8 ? 1 : 2);
    modrm(mod, reg, 4);
    u8(static_cast<std::uint8_t>((scale << 6) | ((index & 7) << 3) |
                                 (base & 7)));
    if (need_disp) {
      if (disp8) u8(static_cast<std::uint8_t>(disp));
      else u32(static_cast<std::uint32_t>(disp));
    }
  }

  // --- 64-bit moves --------------------------------------------------------

  void mov_rm(int dst, int base, std::int32_t disp) {  // mov r64, [base+disp]
    rex(true, dst, 0, base); u8(0x8B); mem_bd(dst, base, disp);
  }
  void mov_mr(int base, std::int32_t disp, int src) {  // mov [base+disp], r64
    rex(true, src, 0, base); u8(0x89); mem_bd(src, base, disp);
  }
  void mov_rr(int dst, int src) {
    rex(true, src, 0, dst); u8(0x89); modrm(3, src, dst);
  }
  void mov_ri64(int dst, std::uint64_t imm) {  // movabs
    rex(true, 0, 0, dst); u8(static_cast<std::uint8_t>(0xB8 | (dst & 7)));
    u64(imm);
  }
  void mov_ri32(int dst, std::uint32_t imm) {  // mov r32, imm32 (zero-extends)
    rex(false, 0, 0, dst); u8(static_cast<std::uint8_t>(0xB8 | (dst & 7)));
    u32(imm);
  }
  void mov_mi32s(int base, std::int32_t disp, std::int32_t imm) {
    // mov qword [base+disp], imm32 (sign-extended)
    rex(true, 0, 0, base); u8(0xC7); mem_bd(0, base, disp);
    u32(static_cast<std::uint32_t>(imm));
  }
  void mov_mi32_d(int base, std::int32_t disp, std::uint32_t imm) {
    // mov dword [base+disp], imm32
    rex(false, 0, 0, base); u8(0xC7); mem_bd(0, base, disp);
    u32(imm);
  }
  void mov_mi8(int base, std::int32_t disp, std::uint8_t imm) {
    rex(false, 0, 0, base); u8(0xC6); mem_bd(0, base, disp); u8(imm);
  }
  void mov_ri32s(int dst, std::int32_t imm) {  // mov r64, imm32 (sign-extend)
    rex(true, 0, 0, dst); u8(0xC7); modrm(3, 0, dst);
    u32(static_cast<std::uint32_t>(imm));
  }
  void mov_mr8(int base, std::int32_t disp, int src) {  // mov byte [b+d], r8
    rex(false, src, 0, base); u8(0x88); mem_bd(src, base, disp);
  }

  // --- 32-bit moves (zero-extending loads / low-lane stores) ---------------

  void mov_rm32(int dst, int base, std::int32_t disp) {
    rex(false, dst, 0, base); u8(0x8B); mem_bd(dst, base, disp);
  }

  // --- guest-memory forms: [base + index] (scale 1, no disp unless given) --

  void mov_rmx(int dst, int base, int index, std::int32_t disp) {
    rex(true, dst, index, base); u8(0x8B); mem_bisd(dst, base, index, 0, disp);
  }
  void mov_mxr(int base, int index, std::int32_t disp, int src) {
    rex(true, src, index, base); u8(0x89); mem_bisd(src, base, index, 0, disp);
  }
  void mov_rmx32(int dst, int base, int index, std::int32_t disp) {
    rex(false, dst, index, base); u8(0x8B); mem_bisd(dst, base, index, 0, disp);
  }
  void mov_mxr32(int base, int index, std::int32_t disp, int src) {
    rex(false, src, index, base); u8(0x89); mem_bisd(src, base, index, 0, disp);
  }

  // --- lea -----------------------------------------------------------------

  void lea_bd(int dst, int base, std::int32_t disp) {
    rex(true, dst, 0, base); u8(0x8D); mem_bd(dst, base, disp);
  }
  void lea_bisd(int dst, int base, int index, int scale, std::int32_t disp) {
    rex(true, dst, index, base); u8(0x8D);
    mem_bisd(dst, base, index, scale, disp);
  }

  // --- 64-bit ALU ----------------------------------------------------------

  static int alu_op_mr(Alu op) { return static_cast<int>(op) * 8 + 1; }
  static int alu_op_rm(Alu op) { return static_cast<int>(op) * 8 + 3; }

  void alu_mr(Alu op, int base, std::int32_t disp, int src) {
    rex(true, src, 0, base); u8(static_cast<std::uint8_t>(alu_op_mr(op)));
    mem_bd(src, base, disp);
  }
  void alu_rm(Alu op, int dst, int base, std::int32_t disp) {
    rex(true, dst, 0, base); u8(static_cast<std::uint8_t>(alu_op_rm(op)));
    mem_bd(dst, base, disp);
  }
  void alu_rr(Alu op, int dst, int src) {
    rex(true, src, 0, dst); u8(static_cast<std::uint8_t>(alu_op_mr(op)));
    modrm(3, src, dst);
  }
  void alu_ri(Alu op, int dst, std::int32_t imm) {
    rex(true, 0, 0, dst); u8(0x81); modrm(3, static_cast<int>(op), dst);
    u32(static_cast<std::uint32_t>(imm));
  }
  void alu_ri8(Alu op, int dst, std::int8_t imm) {
    rex(true, 0, 0, dst); u8(0x83); modrm(3, static_cast<int>(op), dst);
    u8(static_cast<std::uint8_t>(imm));
  }
  void alu_mi(Alu op, int base, std::int32_t disp, std::int32_t imm) {
    rex(true, 0, 0, base); u8(0x81); mem_bd(static_cast<int>(op), base, disp);
    u32(static_cast<std::uint32_t>(imm));
  }
  void imul_rm(int dst, int base, std::int32_t disp) {
    rex(true, dst, 0, base); u8(0x0F); u8(0xAF); mem_bd(dst, base, disp);
  }
  void imul_rr(int dst, int src) {
    rex(true, dst, 0, src); u8(0x0F); u8(0xAF); modrm(3, dst, src);
  }
  void imul_rmi(int dst, int base, std::int32_t disp, std::int32_t imm) {
    // imul r64, [base+disp], imm32
    rex(true, dst, 0, base); u8(0x69); mem_bd(dst, base, disp);
    u32(static_cast<std::uint32_t>(imm));
  }
  void test_rr(int a, int b) {  // test a, b (AND flags)
    rex(true, b, 0, a); u8(0x85); modrm(3, b, a);
  }
  void test_ri(int reg, std::int32_t imm) {
    rex(true, 0, 0, reg); u8(0xF7); modrm(3, 0, reg);
    u32(static_cast<std::uint32_t>(imm));
  }

  // --- shifts --------------------------------------------------------------

  /// op: 4 = shl, 5 = shr, 7 = sar. Shift [base+disp] by cl.
  void shift_m_cl(int op, int base, std::int32_t disp) {
    rex(true, 0, 0, base); u8(0xD3); mem_bd(op, base, disp);
  }
  void shift_m_i8(int op, int base, std::int32_t disp, std::uint8_t imm) {
    rex(true, 0, 0, base); u8(0xC1); mem_bd(op, base, disp); u8(imm);
  }
  void shr_ri8(int reg, std::uint8_t imm) {
    rex(true, 0, 0, reg); u8(0xC1); modrm(3, 5, reg); u8(imm);
  }
  void shl_ri8(int reg, std::uint8_t imm) {
    rex(true, 0, 0, reg); u8(0xC1); modrm(3, 4, reg); u8(imm);
  }

  // --- inc / misc ----------------------------------------------------------

  void inc_r(int reg) { rex(true, 0, 0, reg); u8(0xFF); modrm(3, 0, reg); }
  /// inc qword [base + disp32] with a forced 4-byte displacement (so the
  /// profile-counter reloc always has a full patchable field). Returns the
  /// offset of the disp32.
  std::size_t inc_m_disp32(int base) {
    rex(true, 0, 0, base); u8(0xFF);
    modrm(2, 0, (base & 7) == RSP ? 4 : base);
    if ((base & 7) == RSP) u8(static_cast<std::uint8_t>((4 << 3) | (base & 7)));
    const std::size_t at = code.size();
    u32(0);
    return at;
  }
  void cmp_mi8_b(int base, std::int32_t disp, std::uint8_t imm) {
    // cmp byte [base+disp], imm8
    rex(false, 0, 0, base); u8(0x80); mem_bd(7, base, disp); u8(imm);
  }
  void mov_rm8(int dst, int base, std::int32_t disp) {
    // movzx r32, byte [base+disp]
    rex(false, dst, 0, base); u8(0x0F); u8(0xB6); mem_bd(dst, base, disp);
  }
  void or_rr8(int dst, int src) {  // or dst8, src8 (low byte regs only)
    FPMIX_CHECK(dst < 4 && src < 4);
    u8(0x08); modrm(3, src, dst);
  }
  void and_rr8(int dst, int src) {
    FPMIX_CHECK(dst < 4 && src < 4);
    u8(0x20); modrm(3, src, dst);
  }
  void setcc_m(int cc, int base, std::int32_t disp) {
    rex(false, 0, 0, base); u8(0x0F);
    u8(static_cast<std::uint8_t>(0x90 | cc)); mem_bd(0, base, disp);
  }
  void setcc_r(int cc, int reg) {
    FPMIX_CHECK(reg < 4);
    u8(0x0F); u8(static_cast<std::uint8_t>(0x90 | cc)); modrm(3, 0, reg);
  }

  // --- control flow --------------------------------------------------------

  void jcc(int cc, Label& l) {
    u8(0x0F); u8(static_cast<std::uint8_t>(0x80 | cc)); rel32_to(l);
  }
  /// jcc with the rel32 left for a link-time Reloc; returns its offset.
  std::size_t jcc_reloc(int cc) {
    u8(0x0F); u8(static_cast<std::uint8_t>(0x80 | cc));
    const std::size_t at = code.size();
    u32(0);
    return at;
  }
  void jmp(Label& l) { u8(0xE9); rel32_to(l); }
  std::size_t jmp_reloc() {
    u8(0xE9);
    const std::size_t at = code.size();
    u32(0);
    return at;
  }
  void jmp_r(int reg) { rex(false, 0, 0, reg); u8(0xFF); modrm(3, 4, reg); }
  void jmp_m(int base, std::int32_t disp) {  // jmp [base+disp]
    rex(false, 4, 0, base); u8(0xFF); mem_bd(4, base, disp);
  }
  void call_m(int base, std::int32_t disp) {  // call [base+disp]
    rex(false, 2, 0, base); u8(0xFF); mem_bd(2, base, disp);
  }
  void push_r(int reg) {
    rex(false, 0, 0, reg); u8(static_cast<std::uint8_t>(0x50 | (reg & 7)));
  }
  void pop_r(int reg) {
    rex(false, 0, 0, reg); u8(static_cast<std::uint8_t>(0x58 | (reg & 7)));
  }
  void ret() { u8(0xC3); }

  // --- SSE -----------------------------------------------------------------

  /// prefix: 0 (none), 0x66, 0xF2, 0xF3. Emits prefix, REX (if needed),
  /// 0F op, modrm reg,reg.
  void sse_rr(std::uint8_t prefix, std::uint8_t op, int dst, int src,
              bool w = false) {
    if (prefix != 0) u8(prefix);
    rex(w, dst, 0, src); u8(0x0F); u8(op); modrm(3, dst, src);
  }
  void sse_rm(std::uint8_t prefix, std::uint8_t op, int xreg, int base,
              std::int32_t disp, bool w = false) {
    if (prefix != 0) u8(prefix);
    rex(w, xreg, 0, base); u8(0x0F); u8(op); mem_bd(xreg, base, disp);
  }
  void sse_rmx(std::uint8_t prefix, std::uint8_t op, int xreg, int base,
               int index, std::int32_t disp) {
    if (prefix != 0) u8(prefix);
    rex(false, xreg, index, base); u8(0x0F); u8(op);
    mem_bisd(xreg, base, index, 0, disp);
  }

  void movq_xr(int xdst, int rsrc) { sse_rr(0x66, 0x6E, xdst, rsrc, true); }
  void movq_rx(int rdst, int xsrc) { sse_rr(0x66, 0x7E, xsrc, rdst, true); }
  void movd_xr(int xdst, int rsrc) { sse_rr(0x66, 0x6E, xdst, rsrc, false); }
  void movd_rx(int rdst, int xsrc) { sse_rr(0x66, 0x7E, xsrc, rdst, false); }
  void movq_mx(int base, std::int32_t disp, int xsrc) {  // movq m64, xmm
    sse_rm(0x66, 0xD6, xsrc, base, disp);
  }
  void movss_xm(int xdst, int base, std::int32_t disp) {
    sse_rm(0xF3, 0x10, xdst, base, disp);
  }
  void movss_mx(int base, std::int32_t disp, int xsrc) {
    sse_rm(0xF3, 0x11, xsrc, base, disp);
  }
  void movss_xmx(int xdst, int base, int index, std::int32_t disp) {
    sse_rmx(0xF3, 0x10, xdst, base, index, disp);
  }
  void movss_rr(int xdst, int xsrc) {  // low 32 bits; upper 96 preserved
    sse_rr(0xF3, 0x10, xdst, xsrc);
  }
  void movups_xm(int xdst, int base, std::int32_t disp) {  // 16-byte load
    sse_rm(0, 0x10, xdst, base, disp);
  }
  void movups_mx(int base, std::int32_t disp, int xsrc) {  // 16-byte store
    sse_rm(0, 0x11, xsrc, base, disp);
  }
  void movups_xmx(int xdst, int base, int index, std::int32_t disp) {
    sse_rmx(0, 0x10, xdst, base, index, disp);
  }
  void movaps_rr(int dst, int src) { sse_rr(0, 0x28, dst, src); }
  void cmpltsd(int dst, int src) {  // dst = dst < src ? ~0 : 0 (low lane)
    sse_rr(0xF2, 0xC2, dst, src); u8(1);
  }
  void cmpltss(int dst, int src) {
    sse_rr(0xF3, 0xC2, dst, src); u8(1);
  }
  void andpd(int dst, int src) { sse_rr(0x66, 0x54, dst, src); }
  void andnpd(int dst, int src) { sse_rr(0x66, 0x55, dst, src); }
  void orpd(int dst, int src) { sse_rr(0x66, 0x56, dst, src); }
  void xorpd(int dst, int src) { sse_rr(0x66, 0x57, dst, src); }
  void ucomisd(int a, int b) { sse_rr(0x66, 0x2E, a, b); }
  void ucomiss(int a, int b) { sse_rr(0, 0x2E, a, b); }
  void cvtsi2sd(int xdst, int rsrc) { sse_rr(0xF2, 0x2A, xdst, rsrc, true); }
  void cvtsi2ss(int xdst, int rsrc) { sse_rr(0xF3, 0x2A, xdst, rsrc, true); }
  void cvtsd2ss(int xdst, int xsrc) { sse_rr(0xF2, 0x5A, xdst, xsrc); }
  void cvtss2sd(int xdst, int xsrc) { sse_rr(0xF3, 0x5A, xdst, xsrc); }
  void cvttsd2si(int rdst, int xsrc) { sse_rr(0xF2, 0x2C, rdst, xsrc, true); }
  void cvttss2si(int rdst, int xsrc) { sse_rr(0xF3, 0x2C, rdst, xsrc, true); }
  void movq_xm(int xdst, int base, std::int32_t disp) {  // movq xmm, m64
    sse_rm(0xF3, 0x7E, xdst, base, disp);                // (zeroes upper lane)
  }
  void movq_xx(int xdst, int xsrc) {  // copy low qword, zero upper lane
    sse_rr(0xF3, 0x7E, xdst, xsrc);
  }
  /// roundsd xmm, xmm, imm8 — SSE4.1; mode 0x9 = floor, 0xA = ceil
  /// (bit 3 suppresses precision exceptions).
  void roundsd(int xdst, int xsrc, std::uint8_t mode) {
    u8(0x66); rex(false, xdst, 0, xsrc);
    u8(0x0F); u8(0x3A); u8(0x0B); modrm(3, xdst, xsrc); u8(mode);
  }
  /// roundss xmm, xmm, imm8 — SSE4.1 single-precision twin of roundsd;
  /// reads/writes the low dword only, upper bits of dst preserved.
  void roundss(int xdst, int xsrc, std::uint8_t mode) {
    u8(0x66); rex(false, xdst, 0, xsrc);
    u8(0x0F); u8(0x3A); u8(0x0A); modrm(3, xdst, xsrc); u8(mode);
  }

  // --- integer divide ------------------------------------------------------

  void cqo() { u8(0x48); u8(0x99); }  // sign-extend rax into rdx:rax
  void idiv_r(int reg) {              // signed divide rdx:rax by r64
    rex(true, 0, 0, reg); u8(0xF7); modrm(3, 7, reg);
  }

  /// op: 4 = shl, 5 = shr, 7 = sar. Shift r64 by cl.
  void shift_r_cl(int op, int reg) {
    rex(true, 0, 0, reg); u8(0xD3); modrm(3, op, reg);
  }
  void shift_r_i8(int op, int reg, std::uint8_t imm) {
    rex(true, 0, 0, reg); u8(0xC1); modrm(3, op, reg); u8(imm);
  }
  void imul_rri(int dst, int src, std::int32_t imm) {  // dst = src * imm32
    rex(true, dst, 0, src); u8(0x69); modrm(3, dst, src);
    u32(static_cast<std::uint32_t>(imm));
  }
  void btr_ri(int reg, std::uint8_t bit) {  // clear bit `bit` of r64
    rex(true, 0, 0, reg); u8(0x0F); u8(0xBA); modrm(3, 6, reg); u8(bit);
  }
};

}  // namespace fpmix::vm::jit
