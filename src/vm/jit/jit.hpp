// Baseline template JIT: lowers predecoded MicroOp streams to x86-64.
//
// Shape of the pipeline (mirrors the predecode layer one level down):
//
//   CodeSegment uops (local form) --compile_stream--> SegmentBlob
//     position-independent native code + relocation list, cached on the
//     segment (jit::BlobCache) so delta trials re-JIT only dirty functions;
//   SegmentBlobs --link_image--> JitImage
//     blobs copied into one W^X buffer with all relocations resolved
//     against the image's segment bases, plus a per-instruction native
//     address table for resume/ret re-entry. Cached on the
//     ExecutableImage, so a warm ImageCache hit carries compiled code.
//
// Compiled code keeps VM state in host registers by role, not by copy: the
// register file, xmm file and memory stay in the Machine's own arrays, and
// the JIT pins *pointers* to them (plus the retired counter and budget) in
// callee-saved registers. That makes the chunked-supervision contract free:
// between chunks the supervisor reads and mutates Machine state directly,
// and re-entry just jumps to the native address of pc_.
//
//   r15 = JitContext*        r12 = gpr file base     r13 = VM memory base
//   rbx = xmm file base      r14 = retired counter   rbp = max_instructions
//
// Every guest instruction begins with the interpreter's exact sequencing:
// budget check, (profiled: counter bump), retire. Trapping paths jump to
// per-site out-of-line stubs that call C++ helpers through the context
// block; helpers compose byte-identical trap messages and never unwind into
// JIT frames. Every MicroKind has a native template, so compiled code never
// runs an instruction through an interpreter; the 3-way differential tests
// hold it bit-identical to both interpreters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/intrinsics.hpp"
#include "vm/exec_image.hpp"

namespace fpmix::vm::jit {

// ---------------------------------------------------------------------------
// Runtime context shared between compiled code and the C++ helpers.
// Compiled code addresses every field as [r15 + offset], so the layout is
// fixed and static_asserted; keep all offsets within disp8 range.
// ---------------------------------------------------------------------------

/// entry() return values (also JitContext::exit_status).
enum : std::uint32_t {
  kExitHalt = 0,    // clean stop: halt, or ret to the null frame
  kExitBudget = 1,  // retired reached max_instructions (exit_pc = resume pc)
  kExitTrap = 2,    // helper composed a trap (exit_pc = faulting pc)
  kExitBudgetNear = 3,  // a block-entry guard found the budget boundary
                        // inside the block: fewer than the block's retire
                        // count remain. Nothing was executed; the driver
                        // interprets from exit_pc to the exact boundary.
};

struct JitContext {
  std::uint64_t* gpr;              // +0   Machine gpr file (17 slots)
  std::uint8_t* mem_base;          // +8   VM memory
  std::uint64_t mem_size;          // +16
  void* xmm;                       // +24  Machine xmm file (16-byte stride)
  std::uint64_t retired;           // +32  synced with r14 at entry/exit/helpers
  std::uint64_t max_instructions;  // +40
  std::uint64_t* counts;           // +48  profile counters (null when off)
  std::uint64_t tag_cmp;           // +56  sentinel high word, or unmatchable
  std::uint64_t exit_pc;           // +64
  std::uint32_t exit_status;       // +72
  std::uint8_t flag_eq;            // +76  VM flags, mirrored while in JIT code
  std::uint8_t flag_lt;            // +77
  std::uint8_t flag_ltu;           // +78
  std::uint8_t pad_ = 0;           // +79
  const void* epilogue;            // +80  jmp target: restore host state, ret
  const void* help_mem_trap;       // +88  (ctx, addr, bytes, pc, is_store)
  const void* help_tag_trap;       // +96  (ctx, bits, pc)
  const void* help_exec;           // +104 (ctx, pc) off-end trap
  const void* help_ret;            // +112 (ctx, ra, pc) -> native addr | 0
  const void* help_intrin;         // +120 (ctx, pc) -> 1 | 0 on trap
  void* run_state;                 // +128 Machine-side state (trap sink)
  const void* image;               // +136 owning JitImage
  const void* help_op_trap;        // +144 (ctx, pc, msg_id) divide/cvtt traps
  const void* const* intrin_fn;    // +152 per-id double(*)(double) | null
  // One-compare bounds limits: addr >= mem_limitN  ⟺  addr + N > mem_size,
  // with no wrap possible because the address itself is compared. 0 when
  // mem_size < N (every address faults).
  std::uint64_t mem_limit8;        // +160 mem_size - 7, saturated to 0
  std::uint64_t mem_limit4;        // +168 mem_size - 3, saturated to 0
};
static_assert(offsetof(JitContext, retired) == 32);
static_assert(offsetof(JitContext, tag_cmp) == 56);
static_assert(offsetof(JitContext, exit_status) == 72);
static_assert(offsetof(JitContext, flag_eq) == 76);
static_assert(offsetof(JitContext, epilogue) == 80);
static_assert(offsetof(JitContext, help_intrin) == 120);
static_assert(offsetof(JitContext, image) == 136);
static_assert(offsetof(JitContext, help_op_trap) == 144);
static_assert(offsetof(JitContext, intrin_fn) == 152);
static_assert(offsetof(JitContext, mem_limit8) == 160);
static_assert(offsetof(JitContext, mem_limit4) == 168);

/// help_op_trap message selectors (kept in one place so the helper composes
/// byte-identical interpreter trap text).
enum : std::uint32_t {
  kOpTrapDivZero = 0,       // "integer division by zero"
  kOpTrapRemZero = 1,       // "integer remainder by zero"
  kOpTrapDivOverflow = 2,   // "integer division overflow"
  kOpTrapRemOverflow = 3,   // "integer remainder overflow"
  kOpTrapCvttSdRange = 4,   // "cvttsd2si operand out of int64 range"
  kOpTrapCvttSsRange = 5,   // "cvttss2si operand out of int64 range"
};

/// tag_cmp value when the tag trap is disabled: compiled code compares
/// `bits >> 32` (always < 2^32) against this, so it can never match and no
/// separate no-trap compilation variant is needed.
inline constexpr std::uint64_t kTagCmpDisabled = 1ull << 40;

/// True for intrinsic ids whose bodies compiled code may invoke directly
/// through JitContext::intrin_fn (the hot unary math set: one f64 in, one
/// f64 out, no machine-state side effects). Must agree with the non-null
/// entries of the machine's intrin_fn table -- checked at table build time.
constexpr bool intrinsic_inlinable(std::uint16_t id) {
  using arch::intrinsics::Id;
  switch (static_cast<Id>(id)) {
    case Id::kSin: case Id::kCos: case Id::kTan:
    case Id::kExp: case Id::kLog:
    case Id::kFloor: case Id::kCeil: case Id::kFabs:
    case Id::kSinF32: case Id::kCosF32: case Id::kTanF32:
    case Id::kExpF32: case Id::kLogF32:
    case Id::kFloorF32: case Id::kCeilF32: case Id::kFabsF32:
      return true;
    default:
      return false;
  }
}

// ---------------------------------------------------------------------------
// Position-independent segment blobs.
// ---------------------------------------------------------------------------

/// Link-time patch against a blob copied to its final image position. Every
/// kind is an "add the image-assigned base" fix, so one compiled blob
/// serves any splice position -- the native analogue of CodeSegment's
/// branch_sites_/call_sites_.
struct Reloc {
  enum class Kind : std::uint8_t {
    kRel32Target,   // rel32 -> native address of instruction (ibase + value)
    kRel32Call,     // rel32 -> native entry of function index `value`
    kAbs64RetAddr,  // imm64 return address: value + segment byte base
    kImm32Pc,       // imm32 global pc: value + ibase
    kDisp32Counts,  // disp32 into the profile array: (value + ibase) * 8
  };
  Kind kind;
  std::uint32_t offset;  // byte offset of the patch site within the blob
  std::uint64_t value;
};

/// How each micro-op was lowered, tallied per op family: "native" = inline
/// host code, "helper" = out-of-line C++ helper on the hot path
/// (intrinsic/ret). Surfaced by bench_jit_compile and --metrics-json.
struct LoweringStats {
  enum Family : int {
    kInt = 0,    // mov/lea/alu/shift/cmp/test
    kMem,        // load/store/push/pop (gpr + xmm)
    kBranch,     // jmp/jcc (incl. the branch half of fused pairs)
    kCallRet,
    kF64,        // scalar double arithmetic/compare/minmax/sqrt
    kF32,        // scalar float arithmetic/compare/minmax/sqrt
    kPacked,     // pd/ps packed arithmetic
    kBitwise,    // andpd/orpd/xorpd
    kConvert,    // cvt* conversions
    kDivRem,     // idiv/irem
    kIntrin,
    kOther,      // nop/halt
    kNumFamilies,
  };
  std::uint64_t native[kNumFamilies] = {};
  std::uint64_t helper[kNumFamilies] = {};
  std::uint64_t fused_pairs = 0;  // cmp/test+jcc pairs with flags elided
  std::uint64_t reg_alloc_blocks = 0;  // blocks that got host registers
  std::uint64_t reg_alloc_slots = 0;   // guest slots promoted across blocks

  void add(const LoweringStats& o) {
    for (int f = 0; f < kNumFamilies; ++f) {
      native[f] += o.native[f];
      helper[f] += o.helper[f];
    }
    fused_pairs += o.fused_pairs;
    reg_alloc_blocks += o.reg_alloc_blocks;
    reg_alloc_slots += o.reg_alloc_slots;
  }
  std::uint64_t total(const std::uint64_t* a) const {
    std::uint64_t s = 0;
    for (int f = 0; f < kNumFamilies; ++f) s += a[f];
    return s;
  }
  std::uint64_t total_native() const { return total(native); }
  std::uint64_t total_helper() const { return total(helper); }
};

/// Human-readable name for a LoweringStats::Family index.
const char* lowering_family_name(int family);

/// Process-wide lowering totals accumulated by every compile_stream call
/// (internally synchronised), for --metrics-json; reset for benchmarks.
LoweringStats lowering_totals();
void reset_lowering_totals();

/// Native code compiled from one micro-op stream in local form. Immutable
/// and position-independent: link_image copies it anywhere and applies the
/// relocations.
class SegmentBlob {
 public:
  std::vector<std::uint8_t> code;
  std::vector<Reloc> relocs;
  /// Byte offset of each instruction's native entry (size = uop count).
  std::vector<std::uint32_t> instr_off;
  /// Per-blob lowering census (also accumulated into lowering_totals()).
  LoweringStats stats;
};

/// Compilation mode for a stream's control-transfer immediates.
struct CompileMode {
  /// Local form (CodeSegment): call imm = callee function index, call aux =
  /// local return byte offset, branch imm may equal the uop count (branch
  /// to the function's end). Global form (ExecutableImage::build output):
  /// call imm = callee's global instruction index, aux = absolute address.
  bool local = false;
  bool profile = false;
};

/// Compiles one micro-op stream to a position-independent blob. Pure
/// translation -- never fails (every MicroKind has a template).
std::shared_ptr<const SegmentBlob> compile_stream(
    const std::vector<MicroOp>& uops, CompileMode mode);

// ---------------------------------------------------------------------------
// Linked executable images.
// ---------------------------------------------------------------------------

/// An executable W^X code buffer (mmap RW -> fill -> mprotect RX).
class CodeBuffer {
 public:
  CodeBuffer() = default;
  ~CodeBuffer();
  CodeBuffer(const CodeBuffer&) = delete;
  CodeBuffer& operator=(const CodeBuffer&) = delete;

  /// Maps a writable buffer of at least `size` bytes. Returns false when
  /// the platform refuses (the capability probe normally catches this
  /// first, but a hardened kernel can start refusing at any time).
  bool map(std::size_t size);
  /// Flips the mapping to read+execute. Must be called exactly once, after
  /// the code is final.
  bool seal();

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Per-segment placement input to link_image.
struct LinkSegment {
  std::shared_ptr<const SegmentBlob> blob;
  std::size_t first_index;  // global index of the segment's first instruction
  std::uint64_t byte_base;  // guest byte address of the segment
};

/// A fully linked, executable translation of one ExecutableImage variant.
class JitImage {
 public:
  /// Native entry address for a global instruction index; index == count
  /// (execution fell off the end of the code) resolves to a stub that
  /// traps through the help_exec helper.
  const void* native_addr(std::size_t index) const {
    return buf_.data() + native_off_[index];
  }
  std::size_t instruction_count() const { return native_off_.size() - 1; }

  /// Links blobs (in program order, matching the image's instruction
  /// numbering) into one executable buffer. `total` is the image's
  /// instruction count; `funcs[f].first_index` resolves kRel32Call. Returns
  /// nullptr when executable memory is unavailable.
  static std::shared_ptr<const JitImage> link(
      const std::vector<LinkSegment>& segments, std::size_t total);

 private:
  JitImage() = default;
  CodeBuffer buf_;
  std::vector<std::uint32_t> native_off_;  // size = total + 1
};

// ---------------------------------------------------------------------------
// Host runtime.
// ---------------------------------------------------------------------------

/// Host-state save/restore trampolines, emitted once per process into a
/// small executable buffer.
struct Runtime {
  /// Enters JIT code at `start` with the context loaded; returns the exit
  /// status (kExit*).
  std::uint32_t (*entry)(JitContext*, const void* start);
  /// Address compiled code jumps to in order to leave (via ctx->epilogue).
  const void* epilogue;
};

/// The process-wide runtime, built on first use. Null when jit_supported()
/// is false.
const Runtime* runtime();

/// True when this host can run JIT-compiled trials: x86-64, not a sanitizer
/// build, and the kernel grants a writable-then-executable mapping (probed
/// once by emitting and running a trivial stub). Cached after the first
/// call; thread-safe.
bool jit_supported();

/// Human-readable reason jit_supported() is false ("" when supported).
const char* jit_unsupported_reason();

}  // namespace fpmix::vm::jit
