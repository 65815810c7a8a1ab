// MicroOp stream -> position-independent x86-64 blob.
//
// Second-wave optimizing compiler. Every guest instruction still begins
// with the interpreter's exact dispatch sequence (budget check, optional
// profile count, retire) and operates on the Machine's own state through
// the pinned base registers:
//
//   r15 = JitContext*   r12 = gpr file   r13 = VM memory
//   rbx = xmm file      r14 = retired    rbp = max_instructions
//
// rax/rcx/rdx/rsi/rdi/r8 and xmm0-2 are scratch within a template. On top
// of the per-op templates this compiler layers:
//
//  - Block-local register allocation: within each basic block the hottest
//    guest gpr slots are promoted to r9-r11 and the hottest xmm low qwords
//    to xmm4-xmm15, loaded once at block entry and spilled back to the
//    pinned arrays at block exit and in every trap stub. External entries
//    into the middle of an allocated block (chunked resume, help_ret,
//    delta re-JIT) land on out-of-line per-instruction thunks that reload
//    the promoted registers and jump into the block body, so every
//    instr_off entry remains a valid resume target. Blocks containing
//    array-shaped templates (16-byte moves, packed SSE) opt out.
//  - Compare+branch fusion: a cmp/test followed by a jcc whose guest flag
//    bytes are provably dead at both successors branches straight off the
//    host flags. The branch keeps its own out-of-line resume path that
//    reads the flag bytes like an unfused branch; the mid-pair budget stub
//    materializes them, so stops and faults between the halves stay
//    bit-identical with the interpreters.
//  - Native idiv/irem, cvttsd2si/cvttss2si, packed SSE and 128-bit bitwise
//    templates, and inline calls to the hot unary math intrinsics through
//    JitContext::intrin_fn.
//
// Trap-shaped paths (bounds, tag sentinel, budget, divide/cvtt range)
// branch to per-site out-of-line stubs emitted after the instruction
// bodies; the stubs spill any promoted registers, load the faulting pc as
// a link-patched immediate and call the C++ helpers through the context
// block. The emit switch has a template for every MicroKind and no
// default, so -Wswitch proves the translation total over the kinds.
//
// Ordering subtleties are load-bearing and mirror machine.cpp exactly:
// bounds traps fire before tag traps on the same load, the tag check on the
// destination operand precedes the source's bounds check, push updates sp
// before the trapping store, pop increments sp only after the load, the
// two halves of 16-byte moves commit the first lane before the second
// lane's bounds check, and divide/cvtt range checks trap before any
// register write.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>

#include "arch/operand.hpp"
#include "vm/jit/emitter.hpp"
#include "vm/jit/jit.hpp"

namespace fpmix::vm::jit {
namespace {

// JitContext field displacements off r15 (layout static_asserted in jit.hpp).
constexpr std::int32_t kCtxMemSize = 16;
constexpr std::int32_t kCtxRetired = 32;
constexpr std::int32_t kCtxCounts = 48;
constexpr std::int32_t kCtxTagCmp = 56;
constexpr std::int32_t kCtxExitPc = 64;
constexpr std::int32_t kCtxExitStatus = 72;
constexpr std::int32_t kCtxFlagEq = 76;
constexpr std::int32_t kCtxFlagLt = 77;
constexpr std::int32_t kCtxFlagLtu = 78;
constexpr std::int32_t kCtxEpilogue = 80;
constexpr std::int32_t kCtxHelpMemTrap = 88;
constexpr std::int32_t kCtxHelpTagTrap = 96;
constexpr std::int32_t kCtxHelpRet = 112;
constexpr std::int32_t kCtxHelpIntrin = 120;
constexpr std::int32_t kCtxHelpOpTrap = 144;
constexpr std::int32_t kCtxIntrinFn = 152;
constexpr std::int32_t kCtxMemLimit8 = 160;
constexpr std::int32_t kCtxMemLimit4 = 168;
static_assert(offsetof(JitContext, mem_size) == kCtxMemSize);
static_assert(offsetof(JitContext, mem_limit8) == kCtxMemLimit8);
static_assert(offsetof(JitContext, mem_limit4) == kCtxMemLimit4);
static_assert(offsetof(JitContext, counts) == kCtxCounts);
static_assert(offsetof(JitContext, exit_pc) == kCtxExitPc);
static_assert(offsetof(JitContext, flag_ltu) == kCtxFlagLtu);
static_assert(offsetof(JitContext, help_mem_trap) == kCtxHelpMemTrap);
static_assert(offsetof(JitContext, help_ret) == kCtxHelpRet);
static_assert(offsetof(JitContext, help_intrin) == kCtxHelpIntrin);
static_assert(offsetof(JitContext, help_op_trap) == kCtxHelpOpTrap);
static_assert(offsetof(JitContext, intrin_fn) == kCtxIntrinFn);

constexpr bool fits_i32(std::int64_t v) {
  return v >= INT32_MIN && v <= INT32_MAX;
}

constexpr std::int32_t gpr_off(unsigned r) {
  return static_cast<std::int32_t>(r) * 8;
}
constexpr std::int32_t xmm_lo(unsigned r) {
  return static_cast<std::int32_t>(r) * 16;
}
constexpr std::int32_t xmm_hi(unsigned r) {
  return static_cast<std::int32_t>(r) * 16 + 8;
}
constexpr std::int32_t kSpOff = gpr_off(arch::kSpReg);

// SSE scalar/packed arithmetic opcodes (the prefix 0F xx second byte).
constexpr std::uint8_t kSseAdd = 0x58;
constexpr std::uint8_t kSseMul = 0x59;
constexpr std::uint8_t kSseSub = 0x5C;
constexpr std::uint8_t kSseDiv = 0x5E;
constexpr std::uint8_t kSseSqrt = 0x51;
constexpr std::uint8_t kSseAnd = 0x54;
constexpr std::uint8_t kSseOr = 0x56;
constexpr std::uint8_t kSseXor = 0x57;

// The cvtt* templates compare against the interpreter's exact range
// literals (machine.cpp h_cvttsd2si / h_cvttss2si) so boundary behaviour
// is bit-identical; note these are 9.2e18, not 2^63.
std::uint64_t f64_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}
std::uint32_t f32_bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

constexpr MicroKind kind_of(const MicroOp& u) {
  return static_cast<MicroKind>(u.kind);
}
constexpr bool is_jcc(MicroKind k) {
  return k >= MicroKind::kJe && k <= MicroKind::kJae;
}
constexpr bool is_cmp_or_test(MicroKind k) {
  return k == MicroKind::kCmpRR || k == MicroKind::kCmpRI ||
         k == MicroKind::kTestRR || k == MicroKind::kTestRI;
}
constexpr bool writes_flags(MicroKind k) {
  return is_cmp_or_test(k) || k == MicroKind::kUcomisdXX ||
         k == MicroKind::kUcomisdXM || k == MicroKind::kUcomissXX ||
         k == MicroKind::kUcomissXM;
}

/// Ends a basic block: control leaves the straight line or the template
/// calls out of compiled code (helpers observe machine state, so promoted
/// registers must be spilled first and the terminator runs unallocated).
/// kIntrin is NOT a breaker: intrinsics always fall through, so the
/// template spills/reloads around its call and the block survives --
/// math-heavy kernels would otherwise fragment into unpromotable slivers.
constexpr bool is_block_breaker(MicroKind k) {
  return is_jcc(k) || k == MicroKind::kHalt || k == MicroKind::kJmp ||
         k == MicroKind::kCall || k == MicroKind::kRet;
}

/// Templates that address the guest xmm file directly (both lanes or
/// 16-byte memory shapes); blocks containing one run unallocated rather
/// than teaching every array access about the promotion map.
constexpr bool is_alloc_poison(MicroKind k) {
  switch (k) {
    case MicroKind::kMovapdXX:
    case MicroKind::kMovapdXM:
    case MicroKind::kMovapdMX:
    case MicroKind::kPushX:
    case MicroKind::kPopX:
      return true;
    default:
      return k >= MicroKind::kAddpdXX && k <= MicroKind::kXorpdXM;
  }
}

constexpr LoweringStats::Family kFamilyOf[] = {
#define FPMIX_FAMILY(KIND, HANDLER, FAMILY, STOPS) LoweringStats::FAMILY,
    FPMIX_MICRO_KINDS(FPMIX_FAMILY)
#undef FPMIX_FAMILY
};

LoweringStats::Family family_of(MicroKind k) {
  return kFamilyOf[static_cast<std::size_t>(k)];
}

// Host registers available for block-local promotion. All caller-saved is
// fine: allocated regions contain no calls (helpers only run at block
// terminators, after the spill).
constexpr std::uint8_t kGprHosts[] = {R9, R10, R11};
constexpr unsigned kMaxGprPromotions = 3;
constexpr std::uint8_t kFirstXmmHost = 4;  // xmm4..xmm15
constexpr unsigned kMaxXmmPromotions = 12;

bool regalloc_enabled() {
  // Escape hatch (and the CI fallback-path leg): FPMIX_JIT_NO_REGALLOC=1
  // compiles every block against the pinned arrays only.
  const char* env = std::getenv("FPMIX_JIT_NO_REGALLOC");
  return !(env && env[0] && env[0] != '0');
}

bool sse41_available() {
  // FPMIX_JIT_NO_SSE41=1 forces the call tier for floor/ceil (differential
  // coverage of the pre-SSE4.1 path on modern hosts).
  static const bool have = [] {
    const char* env = std::getenv("FPMIX_JIT_NO_SSE41");
    if (env && env[0] && env[0] != '0') return false;
    return __builtin_cpu_supports("sse4.1") != 0;
  }();
  return have;
}

/// Intrinsics lowered to pure arithmetic -- no call, no caller-saved
/// clobbers, so promoted registers stay live across them: fabs is a
/// sign-bit clear, floor/ceil a single roundsd/roundss on SSE4.1 hosts.
bool intrinsic_is_arith(std::uint16_t id) {
  using arch::intrinsics::Id;
  switch (static_cast<Id>(id)) {
    case Id::kFabs:
    case Id::kFabsF32:
      return true;
    case Id::kFloor:
    case Id::kCeil:
    case Id::kFloorF32:
    case Id::kCeilF32:
      return sse41_available();
    default:
      return false;
  }
}

std::mutex g_totals_mu;
LoweringStats g_totals;

class Compiler {
 public:
  Compiler(const std::vector<MicroOp>& uops, CompileMode mode)
      : uops_(uops), mode_(mode), regalloc_on_(regalloc_enabled()) {}

  std::shared_ptr<const SegmentBlob> run() {
    analyse();
    auto blob = std::make_shared<SegmentBlob>();
    const std::size_t n = uops_.size();
    instr_off_.assign(n, 0);
    std::size_t pc = 0;
    while (pc < n) {
      pc_ = pc;
      if (spill_id_[pc] >= 0) {
        // Terminator of the preceding allocated block: write the promoted
        // registers back first, so the terminator's instr_off entry (an
        // external resume target) sees current arrays.
        set_alloc(-1);
        emit_spills(allocs_[static_cast<std::size_t>(spill_id_[pc])]);
      }
      const std::int32_t aid = alloc_id_[pc];
      if (head_id_[pc] >= 0) {
        instr_off_[pc] = static_cast<std::uint32_t>(e_.size());
        const Alloc& a = allocs_[static_cast<std::size_t>(head_id_[pc])];
        near_guard(pc, a.cover_end - static_cast<std::uint32_t>(pc));
        emit_loads(a);
      } else if (aid >= 0) {
        // Mid-block pc inside an allocated region: its external entry is an
        // out-of-line thunk (loads + jmp here), emitted after the bodies.
        thunks_.push_back({static_cast<std::uint32_t>(pc),
                           static_cast<std::uint32_t>(e_.size()), aid});
      } else {
        instr_off_[pc] = static_cast<std::uint32_t>(e_.size());
      }
      set_alloc(aid);
      if (fuse_at_[pc]) {
        emit_fused(pc);
        pc += 2;
      } else {
        tally(uops_[pc]);
        prologue(pc);
        emit(uops_[pc]);
        ++pc;
      }
    }
    set_alloc(-1);
    if (spill_id_[n] >= 0)
      emit_spills(allocs_[static_cast<std::size_t>(spill_id_[n])]);
    // Falling off the last instruction continues at the next one in program
    // order: the following segment's entry, or the image's off-end stub.
    jmp_target(static_cast<std::uint64_t>(n));
    emit_tails();
    emit_thunks();
    emit_stubs();
    blob->code = std::move(e_.code);
    blob->relocs = std::move(relocs_);
    blob->instr_off = std::move(instr_off_);
    blob->stats = stats_;
    return blob;
  }

 private:
  Emitter e_;
  std::vector<Reloc> relocs_;
  std::vector<std::uint32_t> instr_off_;
  const std::vector<MicroOp>& uops_;
  CompileMode mode_;
  const bool regalloc_on_;
  std::size_t pc_ = 0;
  LoweringStats stats_;

  Emitter::Label exit_tail_;  // jmp epilogue (helper already set the status)
  Emitter::Label halt_tail_;  // status = kExitHalt, then epilogue

  // --- analysis: flags liveness, fusion, block allocation ------------------

  /// Promotion map for one basic block. Host register 0 means "not
  /// promoted" (rax / xmm0 are never promotion hosts, so 0 is free). Every
  /// straight-line run of length >= 2 gets an entry -- possibly with no
  /// promoted slots (poisoned runs) -- because the entry also carries the
  /// block's budget coverage: one guard at each entry point proves the
  /// whole run fits in the remaining budget, and the covered body then
  /// retires without per-instruction budget checks.
  struct Alloc {
    std::uint8_t gpr_host[arch::kNumGprs + 1] = {};
    std::uint8_t xmm_host[arch::kNumXmms] = {};
    std::vector<std::pair<std::uint8_t, std::uint8_t>> gprs;  // (host, slot)
    std::vector<std::pair<std::uint8_t, std::uint8_t>> xmms;  // (host, slot)
    std::uint32_t cover_end = 0;  // one past the last budget-covered uop
  };
  std::vector<Alloc> allocs_;
  std::vector<std::uint8_t> live_;     // guest flags live before uop i
  std::vector<std::uint8_t> fuse_at_;  // cmp/test at i fuses with jcc at i+1
  std::vector<std::int32_t> alloc_id_; // block map covering uop i, or -1
  std::vector<std::int32_t> head_id_;  // block whose loads sit inline at i
  std::vector<std::int32_t> spill_id_; // block spilled just before i
  const Alloc* alloc_ = nullptr;       // current emission map
  std::int32_t cur_alloc_ = -1;

  void set_alloc(std::int32_t id) {
    cur_alloc_ = id;
    alloc_ = id >= 0 ? &allocs_[static_cast<std::size_t>(id)] : nullptr;
  }

  std::uint8_t live_at(std::uint64_t t) const {
    return t >= uops_.size() ? 1 : live_[t];
  }

  /// Are the guest flag bytes observable before uop i runs? Branches read
  /// them; everything that leaves compiled code (halt/call/ret/intrinsic/
  /// fallback) counts as a reader because helpers and final machine state
  /// carry the bytes. cmp/test/ucomis overwrite them.
  std::uint8_t flags_live(std::size_t i) const {
    const MicroOp& u = uops_[i];
    const MicroKind k = kind_of(u);
    if (writes_flags(k)) return 0;
    if (k == MicroKind::kJmp) return live_at(static_cast<std::uint64_t>(u.imm));
    if (is_block_breaker(k)) return 1;
    return live_[i + 1];
  }

  void analyse() {
    const std::size_t n = uops_.size();
    // Backward liveness to the greatest fixpoint, starting from all-live
    // (sound for back-edges; streams are small so iteration is cheap).
    live_.assign(n + 1, 1);
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = n; i-- > 0;) {
        const std::uint8_t v = flags_live(i);
        if (v != live_[i]) {
          live_[i] = v;
          changed = true;
        }
      }
    }
    // Fusable pairs: flag materialisation elided only when no successor can
    // observe the bytes. live_at(n) is 1, so a pair never fuses against the
    // stream end or an off-end target. Fusion depends on block coverage for
    // its budget soundness (a stop between the halves only happens through
    // the entry guard, whose interpreter tail materialises the bytes), so
    // the no-regalloc escape hatch disables it along with promotion.
    fuse_at_.assign(n, 0);
    alloc_id_.assign(n, -1);
    head_id_.assign(n, -1);
    spill_id_.assign(n + 1, -1);
    if (!regalloc_on_) return;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (!is_cmp_or_test(kind_of(uops_[i]))) continue;
      if (!is_jcc(kind_of(uops_[i + 1]))) continue;
      const std::uint64_t tgt = static_cast<std::uint64_t>(uops_[i + 1].imm);
      if (live_at(tgt) || live_at(i + 2)) continue;
      fuse_at_[i] = 1;
    }
    // Basic blocks: maximal runs of non-breaker uops (a fused pair ends its
    // block and its compare half joins the allocated region).
    std::size_t start = 0;
    while (start < n) {
      if (!fuse_at_[start] && is_block_breaker(kind_of(uops_[start]))) {
        ++start;
        continue;
      }
      std::size_t end = start;
      bool fused = false;
      bool poisoned = false;
      while (end < n) {
        if (fuse_at_[end]) {
          fused = true;
          break;
        }
        const MicroKind k = kind_of(uops_[end]);
        if (is_block_breaker(k)) break;
        if (is_alloc_poison(k)) poisoned = true;
        ++end;
      }
      const std::size_t aware_end = fused ? end + 1 : end;
      const std::size_t cover_end = fused ? end + 2 : end;
      if (cover_end - start >= 2)
        make_alloc_block(start, aware_end, cover_end, fused, end, poisoned);
      start = fused ? end + 2 : (end < n ? end + 1 : n);
    }
  }

  /// Creates the block entry: promotion map (unless poisoned) plus budget
  /// coverage over [start, cover_end). A fused pair's coverage includes
  /// both halves; a plain terminator stays uncovered (full prologue).
  void make_alloc_block(std::size_t start, std::size_t aware_end,
                        std::size_t cover_end, bool fused, std::size_t term,
                        bool poisoned) {
    Alloc a;
    a.cover_end = static_cast<std::uint32_t>(cover_end);
    if (!poisoned) {
      std::uint32_t guse[arch::kNumGprs + 1] = {};
      std::uint32_t xuse[arch::kNumXmms] = {};
      std::uint32_t n_intrin = 0;
      for (std::size_t j = start; j < aware_end; ++j) {
        count_uses(uops_[j], guse, xuse);
        // Arithmetic-tier intrinsics clobber nothing; only call tiers force
        // a spill/reload of every promoted register.
        if (kind_of(uops_[j]) == MicroKind::kIntrin &&
            !intrinsic_is_arith(static_cast<std::uint16_t>(uops_[j].imm)))
          ++n_intrin;
      }
      // A promoted slot costs two movs at the block edges plus two around
      // every intrinsic call in the run (full spill/reload), and saves
      // about one array access per use: promote only slots whose use count
      // clears that bar.
      const std::uint32_t min_uses = 2 + 2 * n_intrin;
      pick_slots(guse, arch::kNumGprs, kMaxGprPromotions, min_uses,
                 /*gpr=*/true, a);
      pick_slots(xuse, arch::kNumXmms, kMaxXmmPromotions, min_uses,
                 /*gpr=*/false, a);
    }
    const std::int32_t id = static_cast<std::int32_t>(allocs_.size());
    if (!a.gprs.empty() || !a.xmms.empty()) {
      stats_.reg_alloc_blocks += 1;
      stats_.reg_alloc_slots += a.gprs.size() + a.xmms.size();
    }
    allocs_.push_back(std::move(a));
    for (std::size_t j = start; j < aware_end; ++j)
      alloc_id_[j] = id;
    head_id_[start] = id;
    // A fused terminator spills inline between its compare and branch; a
    // plain terminator (or the stream end) spills just before itself.
    if (!fused) spill_id_[term] = id;
  }

  /// Slots referenced at least `min_uses` times win a host register,
  /// hottest first (stable sort keeps codegen deterministic).
  void pick_slots(const std::uint32_t* use, unsigned nslots, unsigned max_take,
                  std::uint32_t min_uses, bool gpr, Alloc& a) {
    struct Cand {
      std::uint32_t n;
      unsigned slot;
    };
    std::vector<Cand> cands;
    for (unsigned s = 0; s < nslots; ++s)
      if (use[s] >= min_uses) cands.push_back({use[s], s});
    std::stable_sort(cands.begin(), cands.end(),
                     [](const Cand& l, const Cand& r) { return l.n > r.n; });
    if (cands.size() > max_take) cands.resize(max_take);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const std::uint8_t slot = static_cast<std::uint8_t>(cands[i].slot);
      if (gpr) {
        a.gpr_host[slot] = kGprHosts[i];
        a.gprs.push_back({kGprHosts[i], slot});
      } else {
        const std::uint8_t host = static_cast<std::uint8_t>(kFirstXmmHost + i);
        a.xmm_host[slot] = host;
        a.xmms.push_back({host, slot});
      }
    }
  }

  /// Guest slot references per uop, weighing read-modify-write destinations
  /// double. sp and the zero slot never count (push/pop/call templates hold
  /// sp in the array; the zero slot is architectural zero).
  void count_uses(const MicroOp& u, std::uint32_t* g, std::uint32_t* x) const {
    auto cg = [&](unsigned slot) {
      if (slot < arch::kNumGprs && slot != arch::kSpReg) g[slot] += 1;
    };
    auto cx = [&](unsigned slot) {
      if (slot < arch::kNumXmms) x[slot] += 1;
    };
    auto cea = [&] {
      if (u.ea_base != kZeroRegSlot) cg(u.ea_base);
      if (u.ea_index != kZeroRegSlot) cg(u.ea_index);
    };
    switch (kind_of(u)) {
      case MicroKind::kMovRR:
        cg(u.a); cg(u.b); break;
      case MicroKind::kMovRI:
      case MicroKind::kCmpRI:
      case MicroKind::kTestRI:
      case MicroKind::kPush:
      case MicroKind::kPop:
        cg(u.a); break;
      case MicroKind::kLoad:
      case MicroKind::kLea:
        cg(u.a); cea(); break;
      case MicroKind::kStore:
        cg(u.b); cea(); break;
      case MicroKind::kAddRR: case MicroKind::kSubRR: case MicroKind::kAndRR:
      case MicroKind::kOrRR: case MicroKind::kXorRR: case MicroKind::kImulRR:
      case MicroKind::kShlRR: case MicroKind::kShrRR: case MicroKind::kSarRR:
      case MicroKind::kIdivRR: case MicroKind::kIremRR:
        cg(u.a); cg(u.a); cg(u.b); break;
      case MicroKind::kAddRI: case MicroKind::kSubRI: case MicroKind::kAndRI:
      case MicroKind::kOrRI: case MicroKind::kXorRI: case MicroKind::kImulRI:
      case MicroKind::kShlRI: case MicroKind::kShrRI: case MicroKind::kSarRI:
      case MicroKind::kIdivRI: case MicroKind::kIremRI:
        cg(u.a); cg(u.a); break;
      case MicroKind::kCmpRR:
      case MicroKind::kTestRR:
        cg(u.a); cg(u.b); break;
      case MicroKind::kMovqXR:
        cx(u.a); cg(u.b); break;
      case MicroKind::kMovqRX:
        cg(u.a); cx(u.b); break;
      case MicroKind::kMovsdXX:
      case MicroKind::kSqrtsdXX: case MicroKind::kSqrtssXX:
      case MicroKind::kUcomisdXX: case MicroKind::kUcomissXX:
      case MicroKind::kCvtsd2ssXX: case MicroKind::kCvtss2sdXX:
        cx(u.a); cx(u.b); break;
      case MicroKind::kMovsdXM: case MicroKind::kMovssXM:
      case MicroKind::kSqrtsdXM: case MicroKind::kSqrtssXM:
      case MicroKind::kUcomisdXM: case MicroKind::kUcomissXM:
      case MicroKind::kCvtsd2ssXM: case MicroKind::kCvtss2sdXM:
        cx(u.a); cea(); break;
      case MicroKind::kMovsdMX: case MicroKind::kMovssMX:
        cx(u.b); cea(); break;
      case MicroKind::kAddsdXX: case MicroKind::kSubsdXX:
      case MicroKind::kMulsdXX: case MicroKind::kDivsdXX:
      case MicroKind::kMinsdXX: case MicroKind::kMaxsdXX:
      case MicroKind::kAddssXX: case MicroKind::kSubssXX:
      case MicroKind::kMulssXX: case MicroKind::kDivssXX:
      case MicroKind::kMinssXX: case MicroKind::kMaxssXX:
        cx(u.a); cx(u.a); cx(u.b); break;
      case MicroKind::kAddsdXM: case MicroKind::kSubsdXM:
      case MicroKind::kMulsdXM: case MicroKind::kDivsdXM:
      case MicroKind::kMinsdXM: case MicroKind::kMaxsdXM:
      case MicroKind::kAddssXM: case MicroKind::kSubssXM:
      case MicroKind::kMulssXM: case MicroKind::kDivssXM:
      case MicroKind::kMinssXM: case MicroKind::kMaxssXM:
        cx(u.a); cx(u.a); cea(); break;
      case MicroKind::kCvtsi2sd: case MicroKind::kCvtsi2ss:
        cx(u.a); cg(u.b); break;
      case MicroKind::kCvttsd2si: case MicroKind::kCvttss2si:
        cg(u.a); cx(u.b); break;
      case MicroKind::kIntrin:
        // Arithmetic tiers read-modify-write the xmm0 slot in place; call
        // tiers round-trip it through the array (spill/reload), so a host
        // register would buy nothing there.
        if (intrinsic_is_arith(static_cast<std::uint16_t>(u.imm))) {
          cx(0); cx(0);
        }
        break;
      default:
        break;  // nop; breakers and poison kinds never reach here with effect
    }
  }

  // --- stub bookkeeping ----------------------------------------------------
  // Every stub captures the allocation map live at its branch site: promoted
  // registers are spilled on entry so the helper (and the interpreter state
  // it reports) sees current arrays. Deques keep Label references stable.

  struct BudgetStub {  // uncovered code only: arrays are always current
    Emitter::Label label;
    std::uint32_t pc;
  };
  struct NearStub {  // a block-entry guard fired: fewer instructions remain
                     // in the budget than the block retires. Fires before
                     // the block's loads, so arrays are current and nothing
                     // needs spilling; the driver interprets the tail.
    Emitter::Label label;
    std::uint32_t pc;
  };
  struct MemStub {
    Emitter::Label label;
    std::uint32_t pc;
    std::uint8_t bytes;
    bool is_store;
    std::int32_t alloc;
  };
  struct TagStub {
    Emitter::Label label;
    std::uint32_t pc;
    int bits_reg;
    std::int32_t alloc;
  };
  struct OpStub {  // divide/cvtt range traps -> help_op_trap
    Emitter::Label label;
    std::uint32_t pc;
    std::uint32_t msg;
    std::int32_t alloc;
  };
  struct Thunk {  // external entry into an allocated block's interior
    std::uint32_t pc;
    std::uint32_t body;
    std::int32_t alloc;
  };
  std::deque<BudgetStub> budget_stubs_;
  std::deque<NearStub> near_stubs_;
  std::deque<MemStub> mem_stubs_;
  std::deque<TagStub> tag_stubs_;
  std::deque<OpStub> op_stubs_;
  std::vector<Thunk> thunks_;

  std::uint32_t pc32() const { return static_cast<std::uint32_t>(pc_); }

  // --- reloc-carrying emission helpers -------------------------------------

  void mov_ri32_reloc(int reg, Reloc::Kind kind, std::uint64_t value) {
    e_.rex(false, 0, 0, reg);
    e_.u8(static_cast<std::uint8_t>(0xB8 | (reg & 7)));
    relocs_.push_back({kind, static_cast<std::uint32_t>(e_.size()), value});
    e_.u32(0);
  }
  void jmp_target(std::uint64_t target) {
    const std::size_t at = e_.jmp_reloc();
    relocs_.push_back(
        {Reloc::Kind::kRel32Target, static_cast<std::uint32_t>(at), target});
  }
  void jcc_target(int cc, std::uint64_t target) {
    const std::size_t at = e_.jcc_reloc(cc);
    relocs_.push_back(
        {Reloc::Kind::kRel32Target, static_cast<std::uint32_t>(at), target});
  }

  // --- promoted-register access --------------------------------------------
  // Host register 0 (rax/xmm0) means "in the array". Only an allocated
  // block's aware region emits through a non-null map; terminators, resume
  // paths and stubs always run with the map cleared.

  int gpr_host(unsigned slot) const {
    return alloc_ ? alloc_->gpr_host[slot] : 0;
  }
  int xmm_host(unsigned slot) const {
    return alloc_ ? alloc_->xmm_host[slot] : 0;
  }
  /// Reads guest gpr `slot` into some register: the promotion host if there
  /// is one, else `scratch`. Returns the register holding the value.
  int gpr_read(unsigned slot, int scratch) {
    const int h = gpr_host(slot);
    if (h) return h;
    e_.mov_rm(scratch, R12, gpr_off(slot));
    return scratch;
  }
  void gpr_load(int dst, unsigned slot) {
    const int h = gpr_host(slot);
    if (h) {
      e_.mov_rr(dst, h);
    } else {
      e_.mov_rm(dst, R12, gpr_off(slot));
    }
  }
  void gpr_store(unsigned slot, int src) {
    const int h = gpr_host(slot);
    if (h) {
      e_.mov_rr(h, src);
    } else {
      e_.mov_mr(R12, gpr_off(slot), src);
    }
  }
  /// Low-qword bits of guest xmm `slot` into gpr `dst`.
  void xmm_bits_to(int dst, unsigned slot) {
    const int h = xmm_host(slot);
    if (h) {
      e_.movq_rx(dst, h);
    } else {
      e_.mov_rm(dst, RBX, xmm_lo(slot));
    }
  }
  /// Writes gpr `src` into the low qword of guest xmm `slot` (hi lane
  /// untouched -- it always lives in the array).
  void xmm_bits_from(unsigned slot, int src) {
    const int h = xmm_host(slot);
    if (h) {
      e_.movq_xr(h, src);
    } else {
      e_.mov_mr(RBX, xmm_lo(slot), src);
    }
  }
  /// Stores the low qword of scratch xmm `xsrc` into guest xmm `slot`.
  void xmm_store_lo(unsigned slot, int xsrc) {
    const int h = xmm_host(slot);
    if (h) {
      e_.movq_xx(h, xsrc);
    } else {
      e_.movq_mx(RBX, xmm_lo(slot), xsrc);
    }
  }
  /// Low 32 bits of guest xmm `slot` into scratch xmm `xdst` (bits past 31
  /// may be junk; every consumer reads the low dword only).
  void xmm_load_ss(int xdst, unsigned slot) {
    const int h = xmm_host(slot);
    if (h) {
      e_.movq_xx(xdst, h);
    } else {
      e_.movss_xm(xdst, RBX, xmm_lo(slot));
    }
  }
  /// with_low32 writeback: low 32 bits of `xsrc` into guest xmm `slot`,
  /// bits 32..63 of the slot preserved.
  void xmm_store_ss(unsigned slot, int xsrc) {
    const int h = xmm_host(slot);
    if (h) {
      e_.movss_rr(h, xsrc);
    } else {
      e_.movss_mx(RBX, xmm_lo(slot), xsrc);
    }
  }

  void emit_loads(const Alloc& a) {
    for (const auto& [host, slot] : a.gprs)
      e_.mov_rm(host, R12, gpr_off(slot));
    for (const auto& [host, slot] : a.xmms)
      e_.movq_xm(host, RBX, xmm_lo(slot));
  }
  /// Plain movs: preserves host flags (the fused path spills between its
  /// compare and branch) and every scratch gpr/xmm0-2 (mem/tag stubs spill
  /// before reading their incoming rax/rdx/rcx).
  void emit_spills(const Alloc& a) {
    for (const auto& [host, slot] : a.gprs)
      e_.mov_mr(R12, gpr_off(slot), host);
    for (const auto& [host, slot] : a.xmms)
      e_.movq_mx(RBX, xmm_lo(slot), host);
  }
  void stub_spill(std::int32_t alloc) {
    if (alloc >= 0) emit_spills(allocs_[static_cast<std::size_t>(alloc)]);
  }

  // --- the per-instruction dispatch prologue -------------------------------
  // Same order as FPMIX_DISPATCH: budget check, profile count, retire.
  // Inside a covered block (cur_alloc_ >= 0) the entry guard already proved
  // the whole run fits in the remaining budget, so the per-instruction
  // check drops out and the prologue is just the count and the retire.

  void prologue(std::uint64_t pc) {
    if (cur_alloc_ < 0) {
      e_.alu_rr(Alu::kCmp, R14, RBP);  // cmp retired, max_instructions
      budget_stubs_.push_back({{}, static_cast<std::uint32_t>(pc)});
      e_.jcc(CC_AE, budget_stubs_.back().label);
    }
    if (mode_.profile) {
      e_.mov_rm(RAX, R15, kCtxCounts);
      const std::size_t at = e_.inc_m_disp32(RAX);
      relocs_.push_back(
          {Reloc::Kind::kDisp32Counts, static_cast<std::uint32_t>(at), pc});
    }
    e_.inc_r(R14);
  }

  /// Block-entry budget guard: would retiring `n` more instructions cross
  /// max_instructions? If so, nothing of the block has run yet and the
  /// arrays are current, so exit kExitBudgetNear and let the driver
  /// interpret up to the exact boundary (the interpreter is the semantic
  /// oracle, so the stop is bit-identical: exact retired count, flags and
  /// trap behaviour -- including a stop between a fused compare/branch).
  void near_guard(std::uint64_t pc, std::uint32_t n) {
    e_.lea_bd(RCX, R14, static_cast<std::int32_t>(n));
    e_.alu_rr(Alu::kCmp, RCX, RBP);
    near_stubs_.push_back({{}, static_cast<std::uint32_t>(pc)});
    e_.jcc(CC_A, near_stubs_.back().label);
  }

  // --- effective address / memory / tag checks -----------------------------

  /// Effective address into RAX (clobbers RCX), reading promoted base/index
  /// registers from their hosts when available.
  void emit_ea(const MicroOp& u) {
    const bool has_base = u.ea_base != kZeroRegSlot;
    const bool has_index = u.ea_index != kZeroRegSlot;
    if (!has_base && !has_index) {
      e_.mov_ri32s(RAX, u.ea_disp);
      return;
    }
    if (has_base && !has_index) {
      const int hb = gpr_host(u.ea_base);
      if (hb) {
        if (u.ea_disp != 0) {
          e_.lea_bd(RAX, hb, u.ea_disp);
        } else {
          e_.mov_rr(RAX, hb);
        }
      } else {
        e_.mov_rm(RAX, R12, gpr_off(u.ea_base));
        if (u.ea_disp != 0) e_.lea_bd(RAX, RAX, u.ea_disp);
      }
      return;
    }
    if (!has_base) {
      gpr_load(RCX, u.ea_index);
      if (u.ea_shift != 0) e_.shl_ri8(RCX, u.ea_shift);
      e_.lea_bd(RAX, RCX, u.ea_disp);
      return;
    }
    if (u.ea_shift <= 3) {
      const int hi = gpr_host(u.ea_index);
      const int ireg = hi ? hi : RCX;
      if (!hi) e_.mov_rm(RCX, R12, gpr_off(u.ea_index));
      const int hb = gpr_host(u.ea_base);
      const int breg = hb ? hb : RAX;
      if (!hb) e_.mov_rm(RAX, R12, gpr_off(u.ea_base));
      e_.lea_bisd(RAX, breg, ireg, u.ea_shift, u.ea_disp);
    } else {
      gpr_load(RCX, u.ea_index);
      e_.shl_ri8(RCX, u.ea_shift);
      const int hb = gpr_host(u.ea_base);
      const int breg = hb ? hb : RAX;
      if (!hb) e_.mov_rm(RAX, R12, gpr_off(u.ea_base));
      e_.lea_bisd(RAX, breg, RCX, 0, u.ea_disp);
    }
  }

  /// Bounds check for `bytes` at the address in RAX, same predicate as
  /// Machine::load/store (addr+bytes > mem_size || wrapped) folded into one
  /// unsigned compare against the precomputed ctx->mem_limitN (see
  /// JitContext): comparing the address itself makes wrap impossible, and a
  /// wrapped addr+bytes always lands above the limit anyway. Every template
  /// access is 8 or 4 bytes (16-byte moves check each lane).
  /// Clobbers nothing; RAX still holds the address for the stub.
  void bounds(unsigned bytes, bool is_store) {
    mem_stubs_.push_back(
        {{}, pc32(), static_cast<std::uint8_t>(bytes), is_store, cur_alloc_});
    e_.alu_rm(Alu::kCmp, RAX, R15,
              bytes == 8 ? kCtxMemLimit8 : kCtxMemLimit4);
    e_.jcc(CC_AE, mem_stubs_.back().label);
  }

  /// Replaced-double sentinel check on the f64 bits in `bits_reg` (not RSI;
  /// clobbers RSI). ctx->tag_cmp is unmatchable when the trap is off, so the
  /// same code serves both modes.
  void tag_check(int bits_reg) {
    tag_stubs_.push_back({{}, pc32(), bits_reg, cur_alloc_});
    e_.mov_rr(RSI, bits_reg);
    e_.shr_ri8(RSI, 32);
    e_.alu_rm(Alu::kCmp, RSI, R15, kCtxTagCmp);
    e_.jcc(CC_E, tag_stubs_.back().label);
  }

  /// Integer-compare flag materialisation from the live host flags.
  void store_cmp_flags() {
    e_.setcc_m(CC_E, R15, kCtxFlagEq);
    e_.setcc_m(CC_L, R15, kCtxFlagLt);
    e_.setcc_m(CC_B, R15, kCtxFlagLtu);
  }

  /// ucomis flag materialisation: eq = ordered-equal, lt = ltu = ordered
  /// less-than; every flag false on NaN. All three setcc must precede the
  /// ANDs (which clobber the host flags).
  void store_fcmp_flags() {
    e_.setcc_r(CC_NP, RCX);  // ordered
    e_.setcc_r(CC_E, RAX);
    e_.setcc_r(CC_B, RDX);
    e_.and_rr8(RAX, RCX);
    e_.mov_mr8(R15, kCtxFlagEq, RAX);
    e_.and_rr8(RDX, RCX);
    e_.mov_mr8(R15, kCtxFlagLt, RDX);
    e_.mov_mr8(R15, kCtxFlagLtu, RDX);
  }

  void store_test_flags() {
    e_.setcc_m(CC_E, R15, kCtxFlagEq);
    e_.setcc_m(CC_S, R15, kCtxFlagLt);
    e_.mov_mi8(R15, kCtxFlagLtu, 0);
  }

  /// Loads u.imm into `reg` (imm32 sign-extended when it fits).
  void load_imm(int reg, std::int64_t imm) {
    if (fits_i32(imm)) {
      e_.mov_ri32s(reg, static_cast<std::int32_t>(imm));
    } else {
      e_.mov_ri64(reg, static_cast<std::uint64_t>(imm));
    }
  }

  /// Conditional guest branch on one flag byte: taken when the byte is
  /// nonzero (want_set) or zero.
  void jcc_flag(std::int32_t flag_off, bool want_set, std::uint64_t target) {
    e_.cmp_mi8_b(R15, flag_off, 0);
    jcc_target(want_set ? CC_NE : CC_E, target);
  }
  /// Guest branch on (lt|eq) or (ltu|eq) composites.
  void jcc_or(std::int32_t flag_off, bool want_set, std::uint64_t target) {
    e_.mov_rm8(RAX, R15, flag_off);
    e_.mov_rm8(RCX, R15, kCtxFlagEq);
    e_.or_rr8(RAX, RCX);
    jcc_target(want_set ? CC_NE : CC_E, target);
  }

  /// Conditional trap through help_op_trap (integer divide / cvtt range).
  void op_trap_jcc(int cc, std::uint32_t msg) {
    op_stubs_.push_back({{}, pc32(), msg, cur_alloc_});
    e_.jcc(cc, op_stubs_.back().label);
  }
  void op_trap_jmp(std::uint32_t msg) {
    op_stubs_.push_back({{}, pc32(), msg, cur_alloc_});
    e_.jmp(op_stubs_.back().label);
  }

  // --- per-kind templates --------------------------------------------------
  // Templates fall into two groups: allocation-aware ones route guest
  // register accesses through gpr_*/xmm_* (which fall back to the arrays
  // when the slot is not promoted), and terminator/poison templates, which
  // only ever run with a null map and keep their array-based form.

  void emit(const MicroOp& u) {
    const std::uint64_t tgt = static_cast<std::uint64_t>(u.imm);
    switch (static_cast<MicroKind>(u.kind)) {
      case MicroKind::kNop:
        break;
      case MicroKind::kHalt:
        e_.jmp(halt_tail_);
        break;

      // -- control flow (terminators; arrays are current here) --
      case MicroKind::kJmp: jmp_target(tgt); break;
      case MicroKind::kJe: jcc_flag(kCtxFlagEq, true, tgt); break;
      case MicroKind::kJne: jcc_flag(kCtxFlagEq, false, tgt); break;
      case MicroKind::kJl: jcc_flag(kCtxFlagLt, true, tgt); break;
      case MicroKind::kJge: jcc_flag(kCtxFlagLt, false, tgt); break;
      case MicroKind::kJb: jcc_flag(kCtxFlagLtu, true, tgt); break;
      case MicroKind::kJae: jcc_flag(kCtxFlagLtu, false, tgt); break;
      case MicroKind::kJle: jcc_or(kCtxFlagLt, true, tgt); break;
      case MicroKind::kJg: jcc_or(kCtxFlagLt, false, tgt); break;
      case MicroKind::kJbe: jcc_or(kCtxFlagLtu, true, tgt); break;
      case MicroKind::kJa: jcc_or(kCtxFlagLtu, false, tgt); break;

      case MicroKind::kCall:
        // push64(aux): sp -= 8 commits before the store, as in the
        // interpreter (a trapping call leaves sp decremented).
        e_.mov_rm(RAX, R12, kSpOff);
        e_.alu_ri8(Alu::kSub, RAX, 8);
        e_.mov_mr(R12, kSpOff, RAX);
        bounds(8, /*is_store=*/true);
        if (mode_.local) {
          // Return address: local byte offset, rebased at link time.
          e_.rex(true, 0, 0, RDX);
          e_.u8(static_cast<std::uint8_t>(0xB8 | RDX));
          relocs_.push_back({Reloc::Kind::kAbs64RetAddr,
                             static_cast<std::uint32_t>(e_.size()), u.aux});
          e_.u64(0);
        } else {
          e_.mov_ri64(RDX, u.aux);
        }
        e_.mov_mxr(R13, RAX, 0, RDX);
        if (mode_.local) {
          // imm = callee function index; resolved via the link placement.
          const std::size_t at = e_.jmp_reloc();
          relocs_.push_back({Reloc::Kind::kRel32Call,
                             static_cast<std::uint32_t>(at), tgt});
        } else {
          jmp_target(tgt);  // imm = callee's global instruction index
        }
        break;

      case MicroKind::kRet:
        // pop64(): load first (sp unchanged if it traps), then sp += 8.
        e_.mov_rm(RAX, R12, kSpOff);
        bounds(8, /*is_store=*/false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        e_.alu_mi(Alu::kAdd, R12, kSpOff, 8);
        e_.test_rr(RDX, RDX);
        e_.jcc(CC_E, halt_tail_);  // the null frame pushed by run()
        e_.mov_mr(R15, kCtxRetired, R14);
        e_.mov_rr(RDI, R15);
        e_.mov_rr(RSI, RDX);
        mov_ri32_reloc(RDX, Reloc::Kind::kImm32Pc, pc_);
        e_.call_m(R15, kCtxHelpRet);
        e_.test_rr(RAX, RAX);
        e_.jcc(CC_E, exit_tail_);
        e_.jmp_r(RAX);
        break;

      // -- integer file --
      case MicroKind::kMovRR: {
        const int ha = gpr_host(u.a), hb = gpr_host(u.b);
        if (ha && hb) {
          e_.mov_rr(ha, hb);
        } else if (ha) {
          e_.mov_rm(ha, R12, gpr_off(u.b));
        } else if (hb) {
          e_.mov_mr(R12, gpr_off(u.a), hb);
        } else {
          e_.mov_rm(RAX, R12, gpr_off(u.b));
          e_.mov_mr(R12, gpr_off(u.a), RAX);
        }
        break;
      }
      case MicroKind::kMovRI: {
        const int ha = gpr_host(u.a);
        if (ha) {
          load_imm(ha, u.imm);
        } else if (fits_i32(u.imm)) {
          e_.mov_mi32s(R12, gpr_off(u.a), static_cast<std::int32_t>(u.imm));
        } else {
          e_.mov_ri64(RAX, static_cast<std::uint64_t>(u.imm));
          e_.mov_mr(R12, gpr_off(u.a), RAX);
        }
        break;
      }
      case MicroKind::kLoad:
        emit_ea(u);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        gpr_store(u.a, RDX);
        break;
      case MicroKind::kStore: {
        emit_ea(u);
        bounds(8, true);
        const int vr = gpr_read(u.b, RDX);
        e_.mov_mxr(R13, RAX, 0, vr);
        break;
      }
      case MicroKind::kLea:
        emit_ea(u);
        gpr_store(u.a, RAX);
        break;

      case MicroKind::kAddRR: int_rr(Alu::kAdd, u); break;
      case MicroKind::kAddRI: int_ri(Alu::kAdd, u); break;
      case MicroKind::kSubRR: int_rr(Alu::kSub, u); break;
      case MicroKind::kSubRI: int_ri(Alu::kSub, u); break;
      case MicroKind::kAndRR: int_rr(Alu::kAnd, u); break;
      case MicroKind::kAndRI: int_ri(Alu::kAnd, u); break;
      case MicroKind::kOrRR: int_rr(Alu::kOr, u); break;
      case MicroKind::kOrRI: int_ri(Alu::kOr, u); break;
      case MicroKind::kXorRR: int_rr(Alu::kXor, u); break;
      case MicroKind::kXorRI: int_ri(Alu::kXor, u); break;

      case MicroKind::kImulRR: {
        const int ha = gpr_host(u.a), hb = gpr_host(u.b);
        if (ha) {
          if (hb) {
            e_.imul_rr(ha, hb);
          } else {
            e_.imul_rm(ha, R12, gpr_off(u.b));
          }
        } else if (hb) {
          e_.mov_rm(RAX, R12, gpr_off(u.a));
          e_.imul_rr(RAX, hb);
          e_.mov_mr(R12, gpr_off(u.a), RAX);
        } else {
          e_.mov_rm(RAX, R12, gpr_off(u.a));
          e_.imul_rm(RAX, R12, gpr_off(u.b));
          e_.mov_mr(R12, gpr_off(u.a), RAX);
        }
        break;
      }
      case MicroKind::kImulRI: {
        const int ha = gpr_host(u.a);
        if (ha) {
          if (fits_i32(u.imm)) {
            e_.imul_rri(ha, ha, static_cast<std::int32_t>(u.imm));
          } else {
            e_.mov_ri64(RAX, static_cast<std::uint64_t>(u.imm));
            e_.imul_rr(ha, RAX);
          }
        } else if (fits_i32(u.imm)) {
          e_.imul_rmi(RAX, R12, gpr_off(u.a),
                      static_cast<std::int32_t>(u.imm));
          e_.mov_mr(R12, gpr_off(u.a), RAX);
        } else {
          e_.mov_ri64(RAX, static_cast<std::uint64_t>(u.imm));
          e_.imul_rm(RAX, R12, gpr_off(u.a));
          e_.mov_mr(R12, gpr_off(u.a), RAX);
        }
        break;
      }

      case MicroKind::kShlRR: shift_rr(4, u); break;
      case MicroKind::kShrRR: shift_rr(5, u); break;
      case MicroKind::kSarRR: shift_rr(7, u); break;
      case MicroKind::kShlRI: shift_ri(4, u); break;
      case MicroKind::kShrRI: shift_ri(5, u); break;
      case MicroKind::kSarRI: shift_ri(7, u); break;

      // Unfused compare/test: host flags materialised to the guest bytes.
      case MicroKind::kCmpRR:
      case MicroKind::kCmpRI:
        emit_compare(u);
        store_cmp_flags();
        break;
      case MicroKind::kTestRR:
      case MicroKind::kTestRI:
        emit_compare(u);
        store_test_flags();
        break;

      case MicroKind::kPush: {
        // Value read BEFORE the sp update: push sp pushes the old sp.
        const int vr = gpr_read(u.a, RDX);
        e_.mov_rm(RAX, R12, kSpOff);
        e_.alu_ri8(Alu::kSub, RAX, 8);
        e_.mov_mr(R12, kSpOff, RAX);
        bounds(8, true);
        e_.mov_mxr(R13, RAX, 0, vr);
        break;
      }
      case MicroKind::kPop:
        // Destination written AFTER sp += 8: pop sp yields the popped value.
        e_.mov_rm(RAX, R12, kSpOff);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        e_.alu_mi(Alu::kAdd, R12, kSpOff, 8);
        gpr_store(u.a, RDX);
        break;

      // -- xmm data movement --
      case MicroKind::kMovqXR: {
        const int vr = gpr_read(u.b, RAX);
        xmm_bits_from(u.a, vr);  // upper lane preserved
        break;
      }
      case MicroKind::kMovqRX: {
        const int ha = gpr_host(u.a);
        if (ha) {
          xmm_bits_to(ha, u.b);
        } else {
          xmm_bits_to(RAX, u.b);
          e_.mov_mr(R12, gpr_off(u.a), RAX);
        }
        break;
      }
      case MicroKind::kMovsdXX: {
        const int xa = xmm_host(u.a), xb = xmm_host(u.b);
        if (xa && xb) {
          e_.movq_xx(xa, xb);
        } else if (xa) {
          e_.movq_xm(xa, RBX, xmm_lo(u.b));
        } else if (xb) {
          e_.movq_mx(RBX, xmm_lo(u.a), xb);
        } else {
          e_.mov_rm(RAX, RBX, xmm_lo(u.b));
          e_.mov_mr(RBX, xmm_lo(u.a), RAX);  // lo only, hi preserved
        }
        break;
      }
      case MicroKind::kMovsdXM:
        emit_ea(u);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        xmm_bits_from(u.a, RDX);
        e_.mov_mi32s(RBX, xmm_hi(u.a), 0);
        break;
      case MicroKind::kMovsdMX:
        emit_ea(u);
        bounds(8, true);
        xmm_bits_to(RDX, u.b);
        e_.mov_mxr(R13, RAX, 0, RDX);
        break;
      case MicroKind::kMovssXM:
        emit_ea(u);
        bounds(4, false);
        e_.mov_rmx32(RDX, R13, RAX, 0);  // zero-extending 4-byte load
        xmm_bits_from(u.a, RDX);         // lo = zext32(value)
        e_.mov_mi32s(RBX, xmm_hi(u.a), 0);
        break;
      case MicroKind::kMovssMX: {
        emit_ea(u);
        bounds(4, true);
        const int xb = xmm_host(u.b);
        if (xb) {
          e_.movd_rx(RDX, xb);
        } else {
          e_.mov_rm32(RDX, RBX, xmm_lo(u.b));
        }
        e_.mov_mxr32(R13, RAX, 0, RDX);
        break;
      }
      case MicroKind::kMovapdXX:
        e_.mov_rm(RAX, RBX, xmm_lo(u.b));
        e_.mov_rm(RDX, RBX, xmm_hi(u.b));
        e_.mov_mr(RBX, xmm_lo(u.a), RAX);
        e_.mov_mr(RBX, xmm_hi(u.a), RDX);
        break;
      case MicroKind::kMovapdXM:
        // Lane 0 commits before lane 1's bounds check, like the interpreter's
        // two independent load() calls.
        emit_ea(u);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        e_.mov_mr(RBX, xmm_lo(u.a), RDX);
        e_.alu_ri8(Alu::kAdd, RAX, 8);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        e_.mov_mr(RBX, xmm_hi(u.a), RDX);
        break;
      case MicroKind::kMovapdMX:
        emit_ea(u);
        bounds(8, true);
        e_.mov_rm(RDX, RBX, xmm_lo(u.b));
        e_.mov_mxr(R13, RAX, 0, RDX);
        e_.alu_ri8(Alu::kAdd, RAX, 8);
        bounds(8, true);
        e_.mov_rm(RDX, RBX, xmm_hi(u.b));
        e_.mov_mxr(R13, RAX, 0, RDX);
        break;
      case MicroKind::kPushX:
        e_.mov_rm(RAX, R12, kSpOff);
        e_.alu_ri8(Alu::kSub, RAX, 16);
        e_.mov_mr(R12, kSpOff, RAX);
        bounds(8, true);
        e_.mov_rm(RDX, RBX, xmm_lo(u.a));
        e_.mov_mxr(R13, RAX, 0, RDX);
        e_.alu_ri8(Alu::kAdd, RAX, 8);
        bounds(8, true);
        e_.mov_rm(RDX, RBX, xmm_hi(u.a));
        e_.mov_mxr(R13, RAX, 0, RDX);
        break;
      case MicroKind::kPopX:
        e_.mov_rm(RAX, R12, kSpOff);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        e_.mov_mr(RBX, xmm_lo(u.a), RDX);
        e_.alu_ri8(Alu::kAdd, RAX, 8);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        e_.mov_mr(RBX, xmm_hi(u.a), RDX);
        e_.alu_mi(Alu::kAdd, R12, kSpOff, 16);
        break;

      // -- scalar f64 --
      case MicroKind::kAddsdXX: sd_xx(kSseAdd, u); break;
      case MicroKind::kAddsdXM: sd_xm(kSseAdd, u); break;
      case MicroKind::kSubsdXX: sd_xx(kSseSub, u); break;
      case MicroKind::kSubsdXM: sd_xm(kSseSub, u); break;
      case MicroKind::kMulsdXX: sd_xx(kSseMul, u); break;
      case MicroKind::kMulsdXM: sd_xm(kSseMul, u); break;
      case MicroKind::kDivsdXX: sd_xx(kSseDiv, u); break;
      case MicroKind::kDivsdXM: sd_xm(kSseDiv, u); break;
      case MicroKind::kMinsdXX: sd_minmax_xx(/*is_min=*/true, u); break;
      case MicroKind::kMinsdXM: sd_minmax_xm(true, u); break;
      case MicroKind::kMaxsdXX: sd_minmax_xx(false, u); break;
      case MicroKind::kMaxsdXM: sd_minmax_xm(false, u); break;
      case MicroKind::kSqrtsdXX:
        xmm_bits_to(RDX, u.b);
        tag_check(RDX);
        e_.movq_xr(0, RDX);
        e_.sse_rr(0xF2, kSseSqrt, 0, 0);
        xmm_store_lo(u.a, 0);
        break;
      case MicroKind::kSqrtsdXM:
        emit_ea(u);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        tag_check(RDX);
        e_.movq_xr(0, RDX);
        e_.sse_rr(0xF2, kSseSqrt, 0, 0);
        xmm_store_lo(u.a, 0);
        break;
      case MicroKind::kUcomisdXX:
        xmm_bits_to(RDX, u.a);
        tag_check(RDX);
        xmm_bits_to(RCX, u.b);
        tag_check(RCX);
        e_.movq_xr(0, RDX);
        e_.movq_xr(1, RCX);
        e_.ucomisd(0, 1);
        store_fcmp_flags();
        break;
      case MicroKind::kUcomisdXM:
        xmm_bits_to(RDX, u.a);
        tag_check(RDX);
        e_.movq_xr(0, RDX);
        emit_ea(u);
        bounds(8, false);
        e_.mov_rmx(RCX, R13, RAX, 0);
        tag_check(RCX);
        e_.movq_xr(1, RCX);
        e_.ucomisd(0, 1);
        store_fcmp_flags();
        break;
      case MicroKind::kCvtsd2ssXX:
        xmm_bits_to(RDX, u.b);
        tag_check(RDX);
        e_.movq_xr(0, RDX);
        e_.cvtsd2ss(1, 0);
        e_.movd_rx(RAX, 1);  // zero-extends: lo = zext32(float bits)
        xmm_bits_from(u.a, RAX);
        break;
      case MicroKind::kCvtsd2ssXM:
        emit_ea(u);
        bounds(8, false);
        e_.mov_rmx(RDX, R13, RAX, 0);
        tag_check(RDX);
        e_.movq_xr(0, RDX);
        e_.cvtsd2ss(1, 0);
        e_.movd_rx(RAX, 1);
        xmm_bits_from(u.a, RAX);
        break;
      case MicroKind::kCvtss2sdXX: {
        const int xb = xmm_host(u.b);
        if (xb) {
          e_.movd_rx(RAX, xb);
        } else {
          e_.mov_rm32(RAX, RBX, xmm_lo(u.b));
        }
        e_.movd_xr(0, RAX);
        e_.cvtss2sd(1, 0);
        xmm_store_lo(u.a, 1);
        break;
      }
      case MicroKind::kCvtss2sdXM:
        emit_ea(u);
        bounds(4, false);
        e_.mov_rmx32(RAX, R13, RAX, 0);
        e_.movd_xr(0, RAX);
        e_.cvtss2sd(1, 0);
        xmm_store_lo(u.a, 1);
        break;
      case MicroKind::kCvtsi2sd: {
        const int vr = gpr_read(u.b, RAX);
        e_.cvtsi2sd(0, vr);
        xmm_store_lo(u.a, 0);
        break;
      }

      // -- scalar f32 (no tag checks: the sentinel lives in the high word) --
      case MicroKind::kAddssXX: ss_xx(kSseAdd, u); break;
      case MicroKind::kAddssXM: ss_xm(kSseAdd, u); break;
      case MicroKind::kSubssXX: ss_xx(kSseSub, u); break;
      case MicroKind::kSubssXM: ss_xm(kSseSub, u); break;
      case MicroKind::kMulssXX: ss_xx(kSseMul, u); break;
      case MicroKind::kMulssXM: ss_xm(kSseMul, u); break;
      case MicroKind::kDivssXX: ss_xx(kSseDiv, u); break;
      case MicroKind::kDivssXM: ss_xm(kSseDiv, u); break;
      case MicroKind::kMinssXX: ss_minmax_xx(true, u); break;
      case MicroKind::kMinssXM: ss_minmax_xm(true, u); break;
      case MicroKind::kMaxssXX: ss_minmax_xx(false, u); break;
      case MicroKind::kMaxssXM: ss_minmax_xm(false, u); break;
      case MicroKind::kSqrtssXX:
        xmm_load_ss(0, u.b);
        e_.sse_rr(0xF3, kSseSqrt, 0, 0);
        xmm_store_ss(u.a, 0);
        break;
      case MicroKind::kSqrtssXM:
        emit_ea(u);
        bounds(4, false);
        e_.movss_xmx(0, R13, RAX, 0);
        e_.sse_rr(0xF3, kSseSqrt, 0, 0);
        xmm_store_ss(u.a, 0);
        break;
      case MicroKind::kUcomissXX:
        xmm_load_ss(0, u.a);
        xmm_load_ss(1, u.b);
        e_.ucomiss(0, 1);
        store_fcmp_flags();
        break;
      case MicroKind::kUcomissXM:
        xmm_load_ss(0, u.a);
        emit_ea(u);
        bounds(4, false);
        e_.movss_xmx(1, R13, RAX, 0);
        e_.ucomiss(0, 1);
        store_fcmp_flags();
        break;
      case MicroKind::kCvtsi2ss: {
        const int vr = gpr_read(u.b, RAX);
        e_.cvtsi2ss(0, vr);
        xmm_store_ss(u.a, 0);
        break;
      }

      // -- integer divide / remainder --
      case MicroKind::kIdivRR: div_rem(/*is_div=*/true, /*is_imm=*/false, u); break;
      case MicroKind::kIdivRI: div_rem(true, true, u); break;
      case MicroKind::kIremRR: div_rem(false, false, u); break;
      case MicroKind::kIremRI: div_rem(false, true, u); break;

      // -- truncating conversions. The handler
      //    accepts exactly (v > -9.2e18 && v < 9.2e18) and traps otherwise
      //    (including NaN); both constants are representable and in int64
      //    range, so the cvtt itself can never overflow once past the
      //    check. ucomisd(HI, v) gives CF|ZF exactly when HI <= v or
      //    unordered; ucomisd(v, LO) likewise for v <= LO. --
      case MicroKind::kCvttsd2si:
        xmm_bits_to(RDX, u.b);
        tag_check(RDX);
        e_.movq_xr(0, RDX);
        e_.mov_ri64(RAX, f64_bits(9.2e18));
        e_.movq_xr(1, RAX);
        e_.ucomisd(1, 0);
        op_trap_jcc(CC_BE, kOpTrapCvttSdRange);  // v >= HI, or NaN
        e_.mov_ri64(RAX, f64_bits(-9.2e18));
        e_.movq_xr(2, RAX);
        e_.ucomisd(0, 2);
        op_trap_jcc(CC_BE, kOpTrapCvttSdRange);  // v <= LO
        e_.cvttsd2si(RAX, 0);
        gpr_store(u.a, RAX);
        break;
      case MicroKind::kCvttss2si:
        xmm_load_ss(0, u.b);  // no tag: sentinel lives in the high word
        e_.mov_ri32(RAX, f32_bits(9.2e18f));
        e_.movd_xr(1, RAX);
        e_.ucomiss(1, 0);
        op_trap_jcc(CC_BE, kOpTrapCvttSsRange);
        e_.mov_ri32(RAX, f32_bits(-9.2e18f));
        e_.movd_xr(2, RAX);
        e_.ucomiss(0, 2);
        op_trap_jcc(CC_BE, kOpTrapCvttSsRange);
        e_.cvttss2si(RAX, 0);
        gpr_store(u.a, RAX);
        break;

      // -- packed f64 / f32 / 128-bit bitwise.
      //    Always array-based: packed kinds poison block allocation. Host
      //    addpd/addps/sqrt are per-lane IEEE ops, so results match the
      //    interpreter's lane-by-lane scalar evaluation bit-for-bit. --
      case MicroKind::kAddpdXX: packed_xx(0x66, kSseAdd, u, /*tags=*/true); break;
      case MicroKind::kAddpdXM: packed_xm(0x66, kSseAdd, u, true); break;
      case MicroKind::kSubpdXX: packed_xx(0x66, kSseSub, u, true); break;
      case MicroKind::kSubpdXM: packed_xm(0x66, kSseSub, u, true); break;
      case MicroKind::kMulpdXX: packed_xx(0x66, kSseMul, u, true); break;
      case MicroKind::kMulpdXM: packed_xm(0x66, kSseMul, u, true); break;
      case MicroKind::kDivpdXX: packed_xx(0x66, kSseDiv, u, true); break;
      case MicroKind::kDivpdXM: packed_xm(0x66, kSseDiv, u, true); break;
      case MicroKind::kSqrtpdXX:
        e_.mov_rm(RDX, RBX, xmm_lo(u.b));
        tag_check(RDX);
        e_.mov_rm(RDX, RBX, xmm_hi(u.b));
        tag_check(RDX);
        e_.movups_xm(0, RBX, xmm_lo(u.b));
        e_.sse_rr(0x66, kSseSqrt, 0, 0);
        e_.movups_mx(RBX, xmm_lo(u.a), 0);
        break;
      case MicroKind::kSqrtpdXM:
        packed_mem_load(u, /*tags=*/true);
        e_.sse_rr(0x66, kSseSqrt, 0, 1);
        e_.movups_mx(RBX, xmm_lo(u.a), 0);
        break;
      case MicroKind::kAddpsXX: packed_xx(0, kSseAdd, u, false); break;
      case MicroKind::kAddpsXM: packed_xm(0, kSseAdd, u, false); break;
      case MicroKind::kSubpsXX: packed_xx(0, kSseSub, u, false); break;
      case MicroKind::kSubpsXM: packed_xm(0, kSseSub, u, false); break;
      case MicroKind::kMulpsXX: packed_xx(0, kSseMul, u, false); break;
      case MicroKind::kMulpsXM: packed_xm(0, kSseMul, u, false); break;
      case MicroKind::kDivpsXX: packed_xx(0, kSseDiv, u, false); break;
      case MicroKind::kDivpsXM: packed_xm(0, kSseDiv, u, false); break;
      case MicroKind::kSqrtpsXX:
        e_.movups_xm(0, RBX, xmm_lo(u.b));
        e_.sse_rr(0, kSseSqrt, 0, 0);
        e_.movups_mx(RBX, xmm_lo(u.a), 0);
        break;
      case MicroKind::kSqrtpsXM:
        packed_mem_load(u, /*tags=*/false);
        e_.sse_rr(0, kSseSqrt, 0, 1);
        e_.movups_mx(RBX, xmm_lo(u.a), 0);
        break;
      case MicroKind::kAndpdXX: packed_xx(0x66, kSseAnd, u, false); break;
      case MicroKind::kAndpdXM: packed_xm(0x66, kSseAnd, u, false); break;
      case MicroKind::kOrpdXX: packed_xx(0x66, kSseOr, u, false); break;
      case MicroKind::kOrpdXM: packed_xm(0x66, kSseOr, u, false); break;
      case MicroKind::kXorpdXX: packed_xx(0x66, kSseXor, u, false); break;
      case MicroKind::kXorpdXM: packed_xm(0x66, kSseXor, u, false); break;

      // -- intrinsic call: hot in math-heavy kernels. Pure f64 math
      //    intrinsics (sin/cos/.../fabs and their f32 twins) are lowered to
      //    a direct call through ctx->intrin_fn, skipping the dispatch
      //    helper entirely; everything else (and every intrinsic when the
      //    table is withheld, e.g. under helper timing) takes the helper. --
      case MicroKind::kIntrin: {
        const auto id = static_cast<std::uint16_t>(u.imm);
        if (intrinsic_is_arith(id)) {
          // Pure arithmetic: no call, runs allocation-aware, and is jitted
          // work (not helper time) regardless of ctx->intrin_fn.
          emit_arith_intrin(id);
          break;
        }
        // Call tiers run mid-block: the call clobbers every caller-saved
        // register (all promotion hosts are caller-saved), so promoted
        // state is written back first and reloaded after. The spill also
        // gives the helper -- and the trap exits -- current arrays, and the
        // reload picks up the result (and anything else the intrinsic
        // wrote).
        const std::int32_t saved_alloc = cur_alloc_;
        if (saved_alloc >= 0) {
          emit_spills(*alloc_);
          set_alloc(-1);
        }
        if (intrinsic_inlinable(id)) {
          const bool f32 =
              id >= static_cast<std::uint16_t>(arch::intrinsics::Id::kSinF32);
          Emitter::Label outline, done;
          e_.mov_rm(RAX, R15, kCtxIntrinFn);
          e_.test_rr(RAX, RAX);
          e_.jcc(CC_E, outline);
          if (!f32) {
            e_.mov_rm(RDX, RBX, xmm_lo(0));
            tag_check(RDX);
            e_.movq_xr(0, RDX);
          } else {
            // (f32) f((f64) x): widen once, call the f64 body, round once.
            e_.movss_xm(0, RBX, xmm_lo(0));
            e_.cvtss2sd(0, 0);
          }
          // rsp stays 16-aligned in jitted code, so `call` presents the
          // callee a standard ABI frame; libm preserves every pinned
          // (callee-saved) register and no scratch state is live here.
          e_.call_m(RAX, static_cast<std::int32_t>(id) * 8);
          if (!f32) {
            e_.movq_mx(RBX, xmm_lo(0), 0);
          } else {
            e_.cvtsd2ss(1, 0);
            e_.movss_mx(RBX, xmm_lo(0), 1);
          }
          e_.jmp(done);
          e_.bind(outline);
          intrin_helper();
          e_.bind(done);
        } else {
          intrin_helper();
        }
        if (saved_alloc >= 0) {
          set_alloc(saved_alloc);
          emit_loads(*alloc_);
        }
        break;
      }
    }
  }

  /// The arithmetic intrinsic tier (see intrinsic_is_arith). Each body is
  /// bit-identical to the interpreter's composition: the f64 flavours
  /// tag-check the argument; the f32 flavours reproduce
  /// (f32) f((f64) x) -- for fabs the widen/narrow round trip is emitted
  /// explicitly because the widen quiets a signalling NaN exactly like the
  /// interpreter's cast does, and for floor/ceil roundss agrees with the
  /// widened composition on every input (integral results are exact in
  /// f32; NaNs are quieted with the payload preserved either way).
  void emit_arith_intrin(std::uint16_t id) {
    using arch::intrinsics::Id;
    switch (static_cast<Id>(id)) {
      case Id::kFabs:
        xmm_bits_to(RDX, 0);
        tag_check(RDX);
        e_.btr_ri(RDX, 63);
        xmm_bits_from(0, RDX);
        break;
      case Id::kFabsF32:
        xmm_load_ss(0, 0);
        e_.cvtss2sd(0, 0);
        e_.movq_rx(RDX, 0);
        e_.btr_ri(RDX, 63);
        e_.movq_xr(0, RDX);
        e_.cvtsd2ss(1, 0);
        xmm_store_ss(0, 1);
        break;
      case Id::kFloor:
      case Id::kCeil: {
        const std::uint8_t mode =
            static_cast<Id>(id) == Id::kFloor ? 0x9 : 0xA;
        xmm_bits_to(RDX, 0);
        tag_check(RDX);
        const int h = xmm_host(0);
        if (h) {
          e_.roundsd(h, h, mode);
        } else {
          e_.movq_xr(0, RDX);
          e_.roundsd(0, 0, mode);
          e_.movq_mx(RBX, xmm_lo(0), 0);
        }
        break;
      }
      default: {  // kFloorF32 / kCeilF32
        const std::uint8_t mode =
            static_cast<Id>(id) == Id::kFloorF32 ? 0x9 : 0xA;
        xmm_load_ss(0, 0);
        e_.roundss(0, 0, mode);
        xmm_store_ss(0, 0);
        break;
      }
    }
  }

  /// The out-of-line intrinsic path: intrinsics touch neither flags nor pc,
  /// so the helper needs no flag sync or native-address lookup and control
  /// always falls through.
  void intrin_helper() {
    e_.mov_mr(R15, kCtxRetired, R14);
    mov_ri32_reloc(RSI, Reloc::Kind::kImm32Pc, pc_);
    e_.mov_rr(RDI, R15);
    e_.call_m(R15, kCtxHelpIntrin);
    e_.test_rr(RAX, RAX);
    e_.jcc(CC_E, exit_tail_);
  }

  // --- allocation-aware integer helpers ------------------------------------

  void int_rr(Alu op, const MicroOp& u) {
    const int ha = gpr_host(u.a), hb = gpr_host(u.b);
    if (ha && hb) {
      e_.alu_rr(op, ha, hb);
    } else if (ha) {
      e_.alu_rm(op, ha, R12, gpr_off(u.b));
    } else if (hb) {
      e_.alu_mr(op, R12, gpr_off(u.a), hb);
    } else {
      e_.mov_rm(RAX, R12, gpr_off(u.b));
      e_.alu_mr(op, R12, gpr_off(u.a), RAX);
    }
  }
  void int_ri(Alu op, const MicroOp& u) {
    const int ha = gpr_host(u.a);
    if (ha) {
      if (fits_i32(u.imm)) {
        e_.alu_ri(op, ha, static_cast<std::int32_t>(u.imm));
      } else {
        e_.mov_ri64(RAX, static_cast<std::uint64_t>(u.imm));
        e_.alu_rr(op, ha, RAX);
      }
    } else if (fits_i32(u.imm)) {
      e_.alu_mi(op, R12, gpr_off(u.a), static_cast<std::int32_t>(u.imm));
    } else {
      e_.mov_ri64(RAX, static_cast<std::uint64_t>(u.imm));
      e_.alu_mr(op, R12, gpr_off(u.a), RAX);
    }
  }
  void shift_rr(int op, const MicroOp& u) {
    // Hardware masks cl by 63 for 64-bit shifts, same as the handler's & 63.
    gpr_load(RCX, u.b);
    const int ha = gpr_host(u.a);
    if (ha) {
      e_.shift_r_cl(op, ha);
    } else {
      e_.shift_m_cl(op, R12, gpr_off(u.a));
    }
  }
  void shift_ri(int op, const MicroOp& u) {
    const int ha = gpr_host(u.a);
    const auto sh = static_cast<std::uint8_t>(u.imm & 63);
    if (ha) {
      e_.shift_r_i8(op, ha, sh);
    } else {
      e_.shift_m_i8(op, R12, gpr_off(u.a), sh);
    }
  }

  /// Runs a compare/test's host-flag computation without materialising the
  /// guest bytes. Shared by the unfused templates (which materialise next),
  /// the fused pairs (which branch on the host flags directly) and the
  /// fused budget stubs (which re-run it against the arrays).
  void emit_compare(const MicroOp& u) {
    switch (static_cast<MicroKind>(u.kind)) {
      case MicroKind::kCmpRR: {
        const int ha = gpr_host(u.a), hb = gpr_host(u.b);
        if (ha && hb) {
          e_.alu_rr(Alu::kCmp, ha, hb);
        } else if (ha) {
          e_.alu_rm(Alu::kCmp, ha, R12, gpr_off(u.b));
        } else if (hb) {
          e_.alu_mr(Alu::kCmp, R12, gpr_off(u.a), hb);
        } else {
          e_.mov_rm(RAX, R12, gpr_off(u.a));
          e_.alu_rm(Alu::kCmp, RAX, R12, gpr_off(u.b));
        }
        break;
      }
      case MicroKind::kCmpRI: {
        const int ha = gpr_host(u.a);
        if (fits_i32(u.imm)) {
          if (ha) {
            e_.alu_ri(Alu::kCmp, ha, static_cast<std::int32_t>(u.imm));
          } else {
            e_.alu_mi(Alu::kCmp, R12, gpr_off(u.a),
                      static_cast<std::int32_t>(u.imm));
          }
        } else {
          e_.mov_ri64(RCX, static_cast<std::uint64_t>(u.imm));
          if (ha) {
            e_.alu_rr(Alu::kCmp, ha, RCX);
          } else {
            e_.alu_mr(Alu::kCmp, R12, gpr_off(u.a), RCX);
          }
        }
        break;
      }
      case MicroKind::kTestRR: {
        const int ra = gpr_read(u.a, RAX);
        const int rb = gpr_read(u.b, RCX);
        e_.test_rr(ra, rb);
        break;
      }
      default: {  // kTestRI
        const int ra = gpr_read(u.a, RAX);
        if (fits_i32(u.imm)) {
          e_.test_ri(ra, static_cast<std::int32_t>(u.imm));
        } else {
          e_.mov_ri64(RCX, static_cast<std::uint64_t>(u.imm));
          e_.test_rr(ra, RCX);
        }
        break;
      }
    }
  }

  /// Signed divide/remainder with the interpreter's exact trap ladder:
  /// divisor 0, then INT64_MIN / -1.
  void div_rem(bool is_div, bool is_imm, const MicroOp& u) {
    const std::uint32_t zero_msg = is_div ? kOpTrapDivZero : kOpTrapRemZero;
    const std::uint32_t ovf_msg =
        is_div ? kOpTrapDivOverflow : kOpTrapRemOverflow;
    if (is_imm && u.imm == 0) {
      op_trap_jmp(zero_msg);
      return;
    }
    gpr_load(RAX, u.a);
    if (is_imm) {
      load_imm(RCX, u.imm);
    } else {
      gpr_load(RCX, u.b);
      e_.test_rr(RCX, RCX);
      op_trap_jcc(CC_E, zero_msg);
    }
    if (!is_imm) {
      Emitter::Label no_ovf;
      e_.alu_ri8(Alu::kCmp, RCX, -1);
      e_.jcc(CC_NE, no_ovf);
      e_.mov_ri64(RDX, 0x8000000000000000ull);
      e_.alu_rr(Alu::kCmp, RAX, RDX);
      op_trap_jcc(CC_E, ovf_msg);
      e_.bind(no_ovf);
    } else if (u.imm == -1) {
      e_.mov_ri64(RDX, 0x8000000000000000ull);
      e_.alu_rr(Alu::kCmp, RAX, RDX);
      op_trap_jcc(CC_E, ovf_msg);
    }
    e_.cqo();
    e_.idiv_r(RCX);
    gpr_store(u.a, is_div ? RAX : RDX);
  }

  // --- allocation-aware f64 helpers ----------------------------------------

  void sd_xx(std::uint8_t op, const MicroOp& u) {
    xmm_bits_to(RDX, u.a);
    tag_check(RDX);
    xmm_bits_to(RCX, u.b);
    tag_check(RCX);
    const int xa = xmm_host(u.a), xb = xmm_host(u.b);
    if (xa) {
      if (xb) {
        e_.sse_rr(0xF2, op, xa, xb);
      } else {
        e_.movq_xr(0, RCX);
        e_.sse_rr(0xF2, op, xa, 0);
      }
    } else {
      e_.movq_xr(0, RDX);
      e_.movq_xr(1, RCX);
      e_.sse_rr(0xF2, op, 0, 1);
      e_.movq_mx(RBX, xmm_lo(u.a), 0);
    }
  }
  void sd_xm(std::uint8_t op, const MicroOp& u) {
    xmm_bits_to(RDX, u.a);
    tag_check(RDX);  // dst tag precedes the src bounds check
    const int xa = xmm_host(u.a);
    if (!xa) e_.movq_xr(0, RDX);
    emit_ea(u);
    bounds(8, false);
    e_.mov_rmx(RCX, R13, RAX, 0);
    tag_check(RCX);
    e_.movq_xr(1, RCX);
    if (xa) {
      e_.sse_rr(0xF2, op, xa, 1);
    } else {
      e_.sse_rr(0xF2, op, 0, 1);
      e_.movq_mx(RBX, xmm_lo(u.a), 0);
    }
  }
  /// min: b < a ? b : a; max: a < b ? b : a. cmpltsd is an ordered compare
  /// (false on NaN), so the blend picks `a` exactly like the C++ ternary.
  void sd_minmax_blend(bool is_min) {
    // x0 = a, x1 = b on entry; result in x1.
    if (is_min) {
      e_.movaps_rr(2, 1);
      e_.cmpltsd(2, 0);  // mask = b < a
    } else {
      e_.movaps_rr(2, 0);
      e_.cmpltsd(2, 1);  // mask = a < b
    }
    e_.andpd(1, 2);   // b & mask
    e_.andnpd(2, 0);  // ~mask & a
    e_.orpd(1, 2);    // mask ? b : a
  }
  void sd_minmax_xx(bool is_min, const MicroOp& u) {
    xmm_bits_to(RDX, u.a);
    tag_check(RDX);
    xmm_bits_to(RCX, u.b);
    tag_check(RCX);
    e_.movq_xr(0, RDX);
    e_.movq_xr(1, RCX);
    sd_minmax_blend(is_min);
    xmm_store_lo(u.a, 1);
  }
  void sd_minmax_xm(bool is_min, const MicroOp& u) {
    xmm_bits_to(RDX, u.a);
    tag_check(RDX);
    e_.movq_xr(0, RDX);
    emit_ea(u);
    bounds(8, false);
    e_.mov_rmx(RCX, R13, RAX, 0);
    tag_check(RCX);
    e_.movq_xr(1, RCX);
    sd_minmax_blend(is_min);
    xmm_store_lo(u.a, 1);
  }

  // --- allocation-aware f32 helpers ----------------------------------------

  void ss_xx(std::uint8_t op, const MicroOp& u) {
    const int xa = xmm_host(u.a), xb = xmm_host(u.b);
    if (xa) {
      // Scalar ss ops write the low 32 bits and preserve 32..63: exactly
      // the interpreter's with_low32 writeback.
      if (xb) {
        e_.sse_rr(0xF3, op, xa, xb);
      } else {
        e_.sse_rm(0xF3, op, xa, RBX, xmm_lo(u.b));
      }
    } else {
      e_.movss_xm(0, RBX, xmm_lo(u.a));
      if (xb) {
        e_.sse_rr(0xF3, op, 0, xb);
      } else {
        e_.sse_rm(0xF3, op, 0, RBX, xmm_lo(u.b));
      }
      e_.movss_mx(RBX, xmm_lo(u.a), 0);  // low 32 bits only (with_low32)
    }
  }
  void ss_xm(std::uint8_t op, const MicroOp& u) {
    const int xa = xmm_host(u.a);
    if (!xa) e_.movss_xm(0, RBX, xmm_lo(u.a));
    emit_ea(u);
    bounds(4, false);
    e_.movss_xmx(1, R13, RAX, 0);
    if (xa) {
      e_.sse_rr(0xF3, op, xa, 1);
    } else {
      e_.sse_rr(0xF3, op, 0, 1);
      e_.movss_mx(RBX, xmm_lo(u.a), 0);
    }
  }
  void ss_minmax_blend(bool is_min) {
    if (is_min) {
      e_.movaps_rr(2, 1);
      e_.cmpltss(2, 0);
    } else {
      e_.movaps_rr(2, 0);
      e_.cmpltss(2, 1);
    }
    e_.andpd(1, 2);
    e_.andnpd(2, 0);
    e_.orpd(1, 2);
  }
  void ss_minmax_xx(bool is_min, const MicroOp& u) {
    // Promoted slots may carry junk above bit 31 in x0/x1; the blend then
    // produces junk there too, all discarded by the 32-bit writeback.
    xmm_load_ss(0, u.a);
    xmm_load_ss(1, u.b);
    ss_minmax_blend(is_min);
    xmm_store_ss(u.a, 1);
  }
  void ss_minmax_xm(bool is_min, const MicroOp& u) {
    xmm_load_ss(0, u.a);
    emit_ea(u);
    bounds(4, false);
    e_.movss_xmx(1, R13, RAX, 0);
    ss_minmax_blend(is_min);
    xmm_store_ss(u.a, 1);
  }

  // --- packed helpers (array-based; packed kinds poison allocation) --------

  void packed_xx(std::uint8_t prefix, std::uint8_t op, const MicroOp& u,
                 bool tags) {
    if (tags) {
      e_.mov_rm(RDX, RBX, xmm_lo(u.a));
      tag_check(RDX);
      e_.mov_rm(RDX, RBX, xmm_hi(u.a));
      tag_check(RDX);
      e_.mov_rm(RDX, RBX, xmm_lo(u.b));
      tag_check(RDX);
      e_.mov_rm(RDX, RBX, xmm_hi(u.b));
      tag_check(RDX);
    }
    // movups: the xmm array is only 8-aligned. Source read fully before the
    // destination store, so a == b aliasing behaves like the interpreter.
    e_.movups_xm(0, RBX, xmm_lo(u.a));
    e_.movups_xm(1, RBX, xmm_lo(u.b));
    e_.sse_rr(prefix, op, 0, 1);
    e_.movups_mx(RBX, xmm_lo(u.a), 0);
  }
  /// Loads the 16-byte memory operand into x1 with the interpreter's two
  /// 8-byte bounds checks (faulting address reported per-half) and, for pd
  /// arithmetic, its per-lane tag checks. Leaves RAX = addr + 8.
  void packed_mem_load(const MicroOp& u, bool tags) {
    emit_ea(u);
    bounds(8, false);
    if (tags) {
      e_.mov_rmx(RDX, R13, RAX, 0);
      tag_check(RDX);
    }
    e_.alu_ri8(Alu::kAdd, RAX, 8);
    bounds(8, false);
    if (tags) {
      e_.mov_rmx(RCX, R13, RAX, 0);
      tag_check(RCX);
    }
    e_.movups_xmx(1, R13, RAX, -8);
  }
  void packed_xm(std::uint8_t prefix, std::uint8_t op, const MicroOp& u,
                 bool tags) {
    if (tags) {
      e_.mov_rm(RDX, RBX, xmm_lo(u.a));
      tag_check(RDX);
      e_.mov_rm(RDX, RBX, xmm_hi(u.a));
      tag_check(RDX);
    }
    packed_mem_load(u, tags);
    e_.movups_xm(0, RBX, xmm_lo(u.a));
    e_.sse_rr(prefix, op, 0, 1);
    e_.movups_mx(RBX, xmm_lo(u.a), 0);
  }

  // --- compare+branch fusion -----------------------------------------------

  /// Host condition code realising "jcc_kind taken" straight off the host
  /// flags of emit_compare(cmp_kind). After cmp, every mapping is the
  /// textbook one. After test, OF = CF = 0, so the guest's flag bytes
  /// (eq = ZF, lt = SF, ltu = 0) translate to: l -> S, ge -> NS, le -> ZF|SF
  /// (= host LE), g -> host G, b -> never (host B), ae -> always (host AE),
  /// be -> ZF (host BE), a -> !ZF (host A).
  int fused_cc(MicroKind cmp, MicroKind jcc) const {
    const bool test = cmp == MicroKind::kTestRR || cmp == MicroKind::kTestRI;
    switch (jcc) {
      case MicroKind::kJe: return CC_E;
      case MicroKind::kJne: return CC_NE;
      case MicroKind::kJl: return test ? CC_S : CC_L;
      case MicroKind::kJge: return test ? 0x9 /*NS*/ : CC_GE;
      case MicroKind::kJle: return CC_LE;
      case MicroKind::kJg: return CC_G;
      case MicroKind::kJb: return CC_B;
      case MicroKind::kJae: return CC_AE;
      case MicroKind::kJbe: return CC_BE;
      default: return CC_A;  // kJa
    }
  }

  /// A fused pair: compare, conditional branch on the host flags, guest
  /// flag bytes never written (liveness proved no successor reads them).
  /// Block spills sit between the compare and the branch -- plain movs,
  /// flags preserved. A fused pair always sits in a covered block (its two
  /// halves alone satisfy the length >= 2 rule), so the entry guard has
  /// proved both retires fit the budget: a stop between the halves can only
  /// happen through the guard, where the driver's interpreter tail runs the
  /// compare and materialises the flag bytes itself. The R-path after the
  /// branch is the plain byte-reading jcc template, so every external entry
  /// at the branch pc (resume after such a stop, re-JIT splice, branch
  /// target) sees interpreter-identical behaviour. Both retires precede the
  /// compare because inc clobbers the host flags the branch consumes.
  void emit_fused(std::size_t cmp_pc) {
    const MicroOp& c = uops_[cmp_pc];
    const MicroOp& j = uops_[cmp_pc + 1];
    const std::uint64_t tgt = static_cast<std::uint64_t>(j.imm);
    pc_ = cmp_pc;
    prologue(cmp_pc);
    prologue(cmp_pc + 1);  // covered: count + retire only, flags not yet set
    emit_compare(c);
    if (cur_alloc_ >= 0)
      emit_spills(allocs_[static_cast<std::size_t>(cur_alloc_)]);
    jcc_target(fused_cc(kind_of(c), kind_of(j)), tgt);
    jmp_target(cmp_pc + 2);
    // R-path: external entries at the branch pc take the unfused template.
    set_alloc(-1);
    instr_off_[cmp_pc + 1] = static_cast<std::uint32_t>(e_.size());
    pc_ = cmp_pc + 1;
    prologue(cmp_pc + 1);
    emit(j);
    stats_.fused_pairs += 1;
    stats_.native[LoweringStats::kInt] += 1;
    stats_.native[LoweringStats::kBranch] += 1;
  }

  // --- coverage accounting -------------------------------------------------

  void tally(const MicroOp& u) {
    const MicroKind k = kind_of(u);
    const int f = family_of(k);
    if (k == MicroKind::kRet) {
      stats_.helper[f] += 1;  // return address resolved by help_ret
    } else if (k == MicroKind::kIntrin) {
      if (intrinsic_inlinable(static_cast<std::uint16_t>(u.imm))) {
        stats_.native[f] += 1;
      } else {
        stats_.helper[f] += 1;
      }
    } else {
      stats_.native[f] += 1;
    }
  }

  // --- tails, thunks and stubs ---------------------------------------------

  void emit_tails() {
    e_.bind(exit_tail_);
    e_.jmp_m(R15, kCtxEpilogue);
    e_.bind(halt_tail_);
    e_.mov_mi32_d(R15, kCtxExitStatus, kExitHalt);
    e_.jmp_m(R15, kCtxEpilogue);
  }

  /// Out-of-line external entries into allocated block interiors: guard the
  /// remaining covered length, load the block's promoted registers, then
  /// jump to the in-body position. Any entry here comes from outside the
  /// block (resume, branch, re-JIT splice), so the arrays are current.
  void emit_thunks() {
    for (const Thunk& t : thunks_) {
      instr_off_[t.pc] = static_cast<std::uint32_t>(e_.size());
      const Alloc& a = allocs_[static_cast<std::size_t>(t.alloc)];
      near_guard(t.pc, a.cover_end - t.pc);
      emit_loads(a);
      e_.u8(0xE9);
      const std::int64_t rel = static_cast<std::int64_t>(t.body) -
                               (static_cast<std::int64_t>(e_.size()) + 4);
      e_.u32(static_cast<std::uint32_t>(rel));
    }
  }

  void emit_stubs() {
    // Budget stubs fire only from uncovered code, where nothing is promoted
    // and the arrays are always current: no spill.
    for (auto& s : budget_stubs_) {
      e_.bind(s.label);
      mov_ri32_reloc(RAX, Reloc::Kind::kImm32Pc, s.pc);
      e_.mov_mr(R15, kCtxExitPc, RAX);
      e_.mov_mi32_d(R15, kCtxExitStatus, kExitBudget);
      e_.jmp_m(R15, kCtxEpilogue);
    }
    // Near stubs fire from a block-entry guard, before the block's loads:
    // nothing of the block has run, the arrays are current, and the driver
    // interprets from pc to the exact budget boundary.
    for (auto& s : near_stubs_) {
      e_.bind(s.label);
      mov_ri32_reloc(RAX, Reloc::Kind::kImm32Pc, s.pc);
      e_.mov_mr(R15, kCtxExitPc, RAX);
      e_.mov_mi32_d(R15, kCtxExitStatus, kExitBudgetNear);
      e_.jmp_m(R15, kCtxEpilogue);
    }
    for (auto& s : mem_stubs_) {
      e_.bind(s.label);
      stub_spill(s.alloc);  // plain movs: RAX (faulting address) survives
      e_.mov_rr(RSI, RAX);
      e_.mov_ri32(RDX, s.bytes);
      mov_ri32_reloc(RCX, Reloc::Kind::kImm32Pc, s.pc);
      e_.mov_ri32(R8, s.is_store ? 1 : 0);
      e_.mov_mr(R15, kCtxRetired, R14);
      e_.mov_rr(RDI, R15);
      e_.call_m(R15, kCtxHelpMemTrap);
      e_.jmp_m(R15, kCtxEpilogue);
    }
    for (auto& s : tag_stubs_) {
      e_.bind(s.label);
      stub_spill(s.alloc);  // preserves the bits register (rdx/rcx)
      if (s.bits_reg != RSI) e_.mov_rr(RSI, s.bits_reg);
      mov_ri32_reloc(RDX, Reloc::Kind::kImm32Pc, s.pc);
      e_.mov_mr(R15, kCtxRetired, R14);
      e_.mov_rr(RDI, R15);
      e_.call_m(R15, kCtxHelpTagTrap);
      e_.jmp_m(R15, kCtxEpilogue);
    }
    for (auto& s : op_stubs_) {
      e_.bind(s.label);
      stub_spill(s.alloc);
      mov_ri32_reloc(RSI, Reloc::Kind::kImm32Pc, s.pc);
      e_.mov_ri32(RDX, s.msg);
      e_.mov_mr(R15, kCtxRetired, R14);
      e_.mov_rr(RDI, R15);
      e_.call_m(R15, kCtxHelpOpTrap);
      e_.jmp_m(R15, kCtxEpilogue);
    }
  }
};

}  // namespace

const char* lowering_family_name(int family) {
  switch (family) {
    case LoweringStats::kInt: return "int";
    case LoweringStats::kMem: return "mem";
    case LoweringStats::kBranch: return "branch";
    case LoweringStats::kCallRet: return "call/ret";
    case LoweringStats::kF64: return "f64";
    case LoweringStats::kF32: return "f32";
    case LoweringStats::kPacked: return "packed";
    case LoweringStats::kBitwise: return "bitwise";
    case LoweringStats::kConvert: return "convert";
    case LoweringStats::kDivRem: return "divrem";
    case LoweringStats::kIntrin: return "intrin";
    default: return "other";
  }
}

LoweringStats lowering_totals() {
  std::lock_guard<std::mutex> lock(g_totals_mu);
  return g_totals;
}

void reset_lowering_totals() {
  std::lock_guard<std::mutex> lock(g_totals_mu);
  g_totals = LoweringStats{};
}

std::shared_ptr<const SegmentBlob> compile_stream(
    const std::vector<MicroOp>& uops, CompileMode mode) {
  auto blob = Compiler(uops, mode).run();
  {
    std::lock_guard<std::mutex> lock(g_totals_mu);
    g_totals.add(blob->stats);
  }
  return blob;
}

}  // namespace fpmix::vm::jit
