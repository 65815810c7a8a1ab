// Shared predecoded images and the micro-op program representation.
//
// Constructing a vm::Machine used to repeat, per trial, work that depends
// only on the image bytes: decoding, branch-target -> instruction-index
// resolution, and (implicitly, on every retired instruction) operand-kind
// classification. ExecutableImage hoists all of it into a single build step
// whose result is immutable and shareable across Machines and threads: the
// search predecodes the unpatched reference once, and each trial predecodes
// only its freshly patched image.
//
// Lowering: every arch::Instr becomes exactly one MicroOp -- a compact
// record with pre-resolved register indices, an effective-address recipe
// (with absent base/index registers redirected to an always-zero register
// slot, so address computation is branch-free), the immediate, and a
// handler id selected by (opcode x operand shape). The execution engines
// dispatch on that id (a computed-goto label per id in the micro-op
// engine, a native template per id in the JIT), so the inner loop never
// re-inspects OperandKind.
//
// The 1:1 instruction<->micro-op mapping is load-bearing: the micro-op
// index IS the instruction index, so branch targets, profiles and trap
// diagnostics are shared verbatim with the reference switch interpreter.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "arch/instr.hpp"
#include "program/image.hpp"
#include "vm/jit/cache.hpp"

namespace fpmix::program {
struct FuncLayout;
}  // namespace fpmix::program

namespace fpmix::vm {

/// The single list of micro-op kinds: one row per specialized (opcode x
/// operand shape) execution routine, in enum order. Suffixes: RR/RI =
/// gpr,gpr / gpr,imm; XX/XM = xmm,xmm / xmm,[mem].
///
///   X(Kind, handler, family, stops)
///
/// `handler` names the MicroExec routine in machine.cpp, `family` the
/// jit::LoweringStats::Family the JIT census files the kind under, and
/// `stops` is 1 for the kinds whose handler can stop the machine (halt, and
/// ret to the null frame). The MicroKind enum, the interpreter's handler
/// table and computed-goto op bodies, and the JIT's family_of are all
/// generated from this list, so a kind cannot exist in one and be missing
/// from another.
#define FPMIX_MICRO_KINDS(X)                                 \
  X(kNop, h_nop, kOther, 0)                                  \
  X(kHalt, h_halt, kOther, 1)                                \
  /* Control flow (imm = resolved target micro-op index). */ \
  X(kJmp, h_jmp, kBranch, 0)                                 \
  X(kJe, h_je, kBranch, 0)                                   \
  X(kJne, h_jne, kBranch, 0)                                 \
  X(kJl, h_jl, kBranch, 0)                                   \
  X(kJle, h_jle, kBranch, 0)                                 \
  X(kJg, h_jg, kBranch, 0)                                   \
  X(kJge, h_jge, kBranch, 0)                                 \
  X(kJb, h_jb, kBranch, 0)                                   \
  X(kJbe, h_jbe, kBranch, 0)                                 \
  X(kJa, h_ja, kBranch, 0)                                   \
  X(kJae, h_jae, kBranch, 0)                                 \
  X(kCall, h_call, kCallRet, 0)                              \
  X(kRet, h_ret, kCallRet, 1)                                \
  /* Integer file. */                                        \
  X(kMovRR, h_mov_rr, kInt, 0)                               \
  X(kMovRI, h_mov_ri, kInt, 0)                               \
  X(kLoad, h_load, kMem, 0)                                  \
  X(kStore, h_store, kMem, 0)                                \
  X(kLea, h_lea, kInt, 0)                                    \
  X(kAddRR, h_add_rr, kInt, 0)                               \
  X(kAddRI, h_add_ri, kInt, 0)                               \
  X(kSubRR, h_sub_rr, kInt, 0)                               \
  X(kSubRI, h_sub_ri, kInt, 0)                               \
  X(kImulRR, h_imul_rr, kInt, 0)                             \
  X(kImulRI, h_imul_ri, kInt, 0)                             \
  X(kIdivRR, h_idiv_rr, kDivRem, 0)                          \
  X(kIdivRI, h_idiv_ri, kDivRem, 0)                          \
  X(kIremRR, h_irem_rr, kDivRem, 0)                          \
  X(kIremRI, h_irem_ri, kDivRem, 0)                          \
  X(kAndRR, h_and_rr, kInt, 0)                               \
  X(kAndRI, h_and_ri, kInt, 0)                               \
  X(kOrRR, h_or_rr, kInt, 0)                                 \
  X(kOrRI, h_or_ri, kInt, 0)                                 \
  X(kXorRR, h_xor_rr, kInt, 0)                               \
  X(kXorRI, h_xor_ri, kInt, 0)                               \
  X(kShlRR, h_shl_rr, kInt, 0)                               \
  X(kShlRI, h_shl_ri, kInt, 0)                               \
  X(kShrRR, h_shr_rr, kInt, 0)                               \
  X(kShrRI, h_shr_ri, kInt, 0)                               \
  X(kSarRR, h_sar_rr, kInt, 0)                               \
  X(kSarRI, h_sar_ri, kInt, 0)                               \
  X(kCmpRR, h_cmp_rr, kInt, 0)                               \
  X(kCmpRI, h_cmp_ri, kInt, 0)                               \
  X(kTestRR, h_test_rr, kInt, 0)                             \
  X(kTestRI, h_test_ri, kInt, 0)                             \
  X(kPush, h_push, kMem, 0)                                  \
  X(kPop, h_pop, kMem, 0)                                    \
  /* XMM data movement. */                                   \
  X(kMovqXR, h_movq_xr, kMem, 0)                             \
  X(kMovqRX, h_movq_rx, kMem, 0)                             \
  X(kMovsdXX, h_movsd_xx, kMem, 0)                           \
  X(kMovsdXM, h_movsd_xm, kMem, 0)                           \
  X(kMovsdMX, h_movsd_mx, kMem, 0)                           \
  X(kMovssXM, h_movss_xm, kMem, 0)                           \
  X(kMovssMX, h_movss_mx, kMem, 0)                           \
  X(kMovapdXX, h_movapd_xx, kMem, 0)                         \
  X(kMovapdXM, h_movapd_xm, kMem, 0)                         \
  X(kMovapdMX, h_movapd_mx, kMem, 0)                         \
  X(kPushX, h_push_x, kMem, 0)                               \
  X(kPopX, h_pop_x, kMem, 0)                                 \
  /* Scalar f64. */                                          \
  X(kAddsdXX, h_addsd_xx, kF64, 0)                           \
  X(kAddsdXM, h_addsd_xm, kF64, 0)                           \
  X(kSubsdXX, h_subsd_xx, kF64, 0)                           \
  X(kSubsdXM, h_subsd_xm, kF64, 0)                           \
  X(kMulsdXX, h_mulsd_xx, kF64, 0)                           \
  X(kMulsdXM, h_mulsd_xm, kF64, 0)                           \
  X(kDivsdXX, h_divsd_xx, kF64, 0)                           \
  X(kDivsdXM, h_divsd_xm, kF64, 0)                           \
  X(kMinsdXX, h_minsd_xx, kF64, 0)                           \
  X(kMinsdXM, h_minsd_xm, kF64, 0)                           \
  X(kMaxsdXX, h_maxsd_xx, kF64, 0)                           \
  X(kMaxsdXM, h_maxsd_xm, kF64, 0)                           \
  X(kSqrtsdXX, h_sqrtsd_xx, kF64, 0)                         \
  X(kSqrtsdXM, h_sqrtsd_xm, kF64, 0)                         \
  X(kUcomisdXX, h_ucomisd_xx, kF64, 0)                       \
  X(kUcomisdXM, h_ucomisd_xm, kF64, 0)                       \
  X(kCvtsd2ssXX, h_cvtsd2ss_xx, kConvert, 0)                 \
  X(kCvtsd2ssXM, h_cvtsd2ss_xm, kConvert, 0)                 \
  X(kCvtss2sdXX, h_cvtss2sd_xx, kConvert, 0)                 \
  X(kCvtss2sdXM, h_cvtss2sd_xm, kConvert, 0)                 \
  X(kCvtsi2sd, h_cvtsi2sd, kConvert, 0)                      \
  X(kCvttsd2si, h_cvttsd2si, kConvert, 0)                    \
  /* Scalar f32. */                                          \
  X(kAddssXX, h_addss_xx, kF32, 0)                           \
  X(kAddssXM, h_addss_xm, kF32, 0)                           \
  X(kSubssXX, h_subss_xx, kF32, 0)                           \
  X(kSubssXM, h_subss_xm, kF32, 0)                           \
  X(kMulssXX, h_mulss_xx, kF32, 0)                           \
  X(kMulssXM, h_mulss_xm, kF32, 0)                           \
  X(kDivssXX, h_divss_xx, kF32, 0)                           \
  X(kDivssXM, h_divss_xm, kF32, 0)                           \
  X(kMinssXX, h_minss_xx, kF32, 0)                           \
  X(kMinssXM, h_minss_xm, kF32, 0)                           \
  X(kMaxssXX, h_maxss_xx, kF32, 0)                           \
  X(kMaxssXM, h_maxss_xm, kF32, 0)                           \
  X(kSqrtssXX, h_sqrtss_xx, kF32, 0)                         \
  X(kSqrtssXM, h_sqrtss_xm, kF32, 0)                         \
  X(kUcomissXX, h_ucomiss_xx, kF32, 0)                       \
  X(kUcomissXM, h_ucomiss_xm, kF32, 0)                       \
  X(kCvtsi2ss, h_cvtsi2ss, kConvert, 0)                      \
  X(kCvttss2si, h_cvttss2si, kConvert, 0)                    \
  /* Packed f64 / f32. */                                    \
  X(kAddpdXX, h_addpd_xx, kPacked, 0)                        \
  X(kAddpdXM, h_addpd_xm, kPacked, 0)                        \
  X(kSubpdXX, h_subpd_xx, kPacked, 0)                        \
  X(kSubpdXM, h_subpd_xm, kPacked, 0)                        \
  X(kMulpdXX, h_mulpd_xx, kPacked, 0)                        \
  X(kMulpdXM, h_mulpd_xm, kPacked, 0)                        \
  X(kDivpdXX, h_divpd_xx, kPacked, 0)                        \
  X(kDivpdXM, h_divpd_xm, kPacked, 0)                        \
  X(kSqrtpdXX, h_sqrtpd_xx, kPacked, 0)                      \
  X(kSqrtpdXM, h_sqrtpd_xm, kPacked, 0)                      \
  X(kAddpsXX, h_addps_xx, kPacked, 0)                        \
  X(kAddpsXM, h_addps_xm, kPacked, 0)                        \
  X(kSubpsXX, h_subps_xx, kPacked, 0)                        \
  X(kSubpsXM, h_subps_xm, kPacked, 0)                        \
  X(kMulpsXX, h_mulps_xx, kPacked, 0)                        \
  X(kMulpsXM, h_mulps_xm, kPacked, 0)                        \
  X(kDivpsXX, h_divps_xx, kPacked, 0)                        \
  X(kDivpsXM, h_divps_xm, kPacked, 0)                        \
  X(kSqrtpsXX, h_sqrtps_xx, kPacked, 0)                      \
  X(kSqrtpsXM, h_sqrtps_xm, kPacked, 0)                      \
  /* 128-bit bitwise. */                                     \
  X(kAndpdXX, h_andpd_xx, kBitwise, 0)                       \
  X(kAndpdXM, h_andpd_xm, kBitwise, 0)                       \
  X(kOrpdXX, h_orpd_xx, kBitwise, 0)                         \
  X(kOrpdXM, h_orpd_xm, kBitwise, 0)                         \
  X(kXorpdXX, h_xorpd_xx, kBitwise, 0)                       \
  X(kXorpdXM, h_xorpd_xm, kBitwise, 0)                       \
  /* Intrinsic call (imm = intrinsics::Id). */               \
  X(kIntrin, h_intrin, kIntrin, 0)

/// Handler selector, one enumerator per FPMIX_MICRO_KINDS row. The
/// interpreter's handler table is indexed by these values.
enum class MicroKind : std::uint16_t {
#define FPMIX_MICRO_ENUM(KIND, HANDLER, FAMILY, STOPS) KIND,
  FPMIX_MICRO_KINDS(FPMIX_MICRO_ENUM)
#undef FPMIX_MICRO_ENUM
};

/// Index of the always-zero register slot used by effective-address
/// recipes whose base or index register is absent (Machine's gpr file has
/// arch::kNumGprs + 1 slots; only 0..15 are architecturally writable).
inline constexpr std::uint8_t kZeroRegSlot = 16;

/// One predecoded instruction. 32 bytes; everything the handler needs
/// without touching arch::Instr on the hot path.
struct MicroOp {
  std::uint16_t kind = 0;      // MicroKind, stored raw for direct indexing
  std::uint8_t a = 0;          // dst register index (gpr or xmm file)
  std::uint8_t b = 0;          // src register index
  std::uint8_t ea_base = kZeroRegSlot;   // effective-address base slot
  std::uint8_t ea_index = kZeroRegSlot;  // effective-address index slot
  std::uint8_t ea_shift = 0;             // log2 of the scale (decode-checked)
  std::uint8_t pad_ = 0;
  std::int32_t ea_disp = 0;
  std::uint32_t pad2_ = 0;
  std::int64_t imm = 0;        // immediate / branch-target index / intrin id
  std::uint64_t aux = 0;       // kCall: precomputed return address
};
static_assert(sizeof(MicroOp) == 32);

/// Lowers one decoded instruction to its micro-op (always 1:1). Total over
/// the forms arch::validate accepts; throws VmError for any other form. The
/// branch/call immediate passes through untouched, so the caller decides
/// whether it holds a local or a global instruction index.
MicroOp lower_instr(const arch::Instr& ins);

/// Predecoded, position-independent form of ONE function's code: the
/// decoded instructions and lowered micro-ops of a FuncLayout, with control
/// transfers kept in local form (branch imm = instruction index *within the
/// segment*, or one-past-the-end for a branch to the function's end; call
/// imm = callee *function index*; call aux = local return offset; instr
/// addr = local byte offset). Immutable and shared: verify::TrialBuilder
/// caches segments per (function, precision signature) and
/// ExecutableImage::build_spliced rebases any mix of them into a full
/// image without re-decoding or re-lowering.
class CodeSegment {
 public:
  /// Decodes and lowers `layout`. Throws VmError if a branch relocation
  /// does not land on an instruction boundary within the segment.
  static std::shared_ptr<const CodeSegment> build(
      const program::FuncLayout& layout);

  std::size_t instruction_count() const { return code_.size(); }
  std::size_t byte_size() const { return byte_size_; }

  const std::vector<arch::Instr>& code() const { return code_; }
  const std::vector<MicroOp>& uops() const { return uops_; }

  /// Lazily-filled native-code cache (see jit/cache.hpp): the JIT engine
  /// compiles a segment's local-form micro-ops at most once per profile
  /// variant, so delta trials that re-splice shared segments re-JIT only
  /// the dirty functions.
  jit::BlobCache& jit_cache() const { return jit_cache_; }

 private:
  friend class ExecutableImage;
  CodeSegment() = default;

  std::vector<arch::Instr> code_;
  std::vector<MicroOp> uops_;
  /// Instruction indices whose imm needs `+ first instruction index of this
  /// segment` (branches) or resolution through the callee's segment (calls).
  std::vector<std::uint32_t> branch_sites_;
  std::vector<std::uint32_t> call_sites_;
  std::size_t byte_size_ = 0;
  mutable jit::BlobCache jit_cache_;
};

/// An immutable, shareable execution form of a program::Image: decoded
/// instructions with control-transfer targets resolved to instruction
/// indices, the address->index map, and the lowered micro-op stream.
/// Build once per image; share freely across Machines and threads.
class ExecutableImage {
 public:
  static constexpr std::size_t kNoIndex = ~static_cast<std::size_t>(0);

  /// Validates and predecodes `image` (taken by value: move in to avoid the
  /// copy). Throws VmError when the image has no code, when a control
  /// transfer targets a non-boundary, or when the entry point is not an
  /// instruction boundary.
  static std::shared_ptr<const ExecutableImage> build(program::Image image);

  /// Splices predecoded per-function segments (one per function, in program
  /// order, matching `image`'s layout) into a full executable: bulk-copies
  /// each segment's instructions and micro-ops, rebases addresses, and
  /// rewrites branch/call immediates to global instruction indices. Produces
  /// a result indistinguishable from build(std::move(image)) without
  /// re-decoding or re-lowering unchanged functions. Throws VmError under
  /// exactly the same conditions (and with the same messages) as build().
  static std::shared_ptr<const ExecutableImage> build_spliced(
      program::Image image,
      const std::vector<std::shared_ptr<const CodeSegment>>& segments);

  const program::Image& image() const { return image_; }

  /// Decoded instructions. NOTE: branch/call `src.imm` fields hold
  /// *instruction indices*, not addresses (resolved at build time).
  const std::vector<arch::Instr>& code() const { return code_; }

  const std::vector<MicroOp>& uops() const { return uops_; }

  std::size_t entry_index() const { return entry_index_; }

  /// Instruction index for an address, or kNoIndex.
  std::size_t index_of(std::uint64_t addr) const {
    auto it = index_of_addr_.find(addr);
    return it == index_of_addr_.end() ? kNoIndex
                                      : static_cast<std::size_t>(it->second);
  }

  /// Segments this image was spliced from (empty when built from scratch).
  /// Holding them keeps the structural sharing alive for diagnostics.
  const std::vector<std::shared_ptr<const CodeSegment>>& segments() const {
    return segments_;
  }

  /// When spliced: global instruction index of each segment's first
  /// instruction, plus a final total-count entry (size = segments + 1).
  const std::vector<std::size_t>& segment_first_index() const {
    return segment_first_index_;
  }

  /// Lazily-filled linked-native-code cache: the JIT engine links a whole
  /// image at most once per profile variant, so a warm TrialBuilder hit
  /// carries compiled code along with the predecode.
  jit::ImageJitCache& jit_cache() const { return jit_cache_; }

 private:
  ExecutableImage() = default;

  program::Image image_;
  std::vector<arch::Instr> code_;
  std::vector<MicroOp> uops_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_of_addr_;
  std::size_t entry_index_ = 0;
  std::vector<std::shared_ptr<const CodeSegment>> segments_;
  std::vector<std::size_t> segment_first_index_;
  mutable jit::ImageJitCache jit_cache_;
};

}  // namespace fpmix::vm
