// Host side of the JIT: executable memory, the entry/epilogue thunks, the
// capability probe, and the blob linker.
//
// Everything here is mechanism-only: policy (when to JIT, cache lookup,
// helper semantics) lives with the Machine in machine.cpp. The linker turns
// position-independent SegmentBlobs into one sealed W^X buffer by applying
// the "add the image-assigned base" relocations against the per-instruction
// native offset table it builds along the way.

#include <cstring>

#include "support/error.hpp"
#include "vm/jit/emitter.hpp"
#include "vm/jit/jit.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define FPMIX_JIT_HAVE_MMAP 1
#endif

// Compile-time disqualifiers. Sanitizers intercept neither the generated
// code nor its stack discipline, so running JIT'd frames under them produces
// false positives (and hides true ones); the engine downgrades instead.
#if !defined(__x86_64__)
#define FPMIX_JIT_OFF "host is not x86-64"
#elif !defined(FPMIX_JIT_HAVE_MMAP)
#define FPMIX_JIT_OFF "no mmap/mprotect on this platform"
#elif defined(FPMIX_SANITIZER_BUILD) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define FPMIX_JIT_OFF "sanitizer build"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define FPMIX_JIT_OFF "sanitizer build"
#endif
#endif

namespace fpmix::vm::jit {
namespace {

// JitContext displacements used by the thunks and the off-end stub (the full
// table lives in compile.cpp; both are static_asserted against the struct).
constexpr std::int32_t kCtxGpr = 0;
constexpr std::int32_t kCtxMemBase = 8;
constexpr std::int32_t kCtxXmm = 24;
constexpr std::int32_t kCtxRetired = 32;
constexpr std::int32_t kCtxMaxInstructions = 40;
constexpr std::int32_t kCtxExitStatus = 72;
constexpr std::int32_t kCtxEpilogue = 80;
constexpr std::int32_t kCtxHelpExec = 104;
static_assert(offsetof(JitContext, gpr) == kCtxGpr);
static_assert(offsetof(JitContext, mem_base) == kCtxMemBase);
static_assert(offsetof(JitContext, xmm) == kCtxXmm);
static_assert(offsetof(JitContext, max_instructions) == kCtxMaxInstructions);
static_assert(offsetof(JitContext, help_exec) == kCtxHelpExec);

}  // namespace

// ---------------------------------------------------------------------------
// CodeBuffer
// ---------------------------------------------------------------------------

CodeBuffer::~CodeBuffer() {
#ifdef FPMIX_JIT_HAVE_MMAP
  if (data_ != nullptr) ::munmap(data_, size_);
#endif
}

bool CodeBuffer::map(std::size_t size) {
#ifdef FPMIX_JIT_HAVE_MMAP
  FPMIX_CHECK(data_ == nullptr);
  if (size == 0) size = 1;
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return false;
  data_ = static_cast<std::uint8_t*>(p);
  size_ = size;
  return true;
#else
  (void)size;
  return false;
#endif
}

bool CodeBuffer::seal() {
#ifdef FPMIX_JIT_HAVE_MMAP
  FPMIX_CHECK(data_ != nullptr);
  return ::mprotect(data_, size_, PROT_READ | PROT_EXEC) == 0;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Runtime thunks + capability probe
// ---------------------------------------------------------------------------

namespace {

struct RuntimeHolder {
  Runtime rt{};
  CodeBuffer buf;
  bool ok = false;
  const char* reason = "";
};

bool fill_and_seal(CodeBuffer& buf, const std::vector<std::uint8_t>& code) {
  if (!buf.map(code.size())) return false;
  std::memcpy(buf.data(), code.data(), code.size());
  return buf.seal();
}

// Fills `r` in place (CodeBuffer pins an mmap'd region and is immovable).
void init_runtime(RuntimeHolder& r) {
#ifdef FPMIX_JIT_OFF
  r.reason = FPMIX_JIT_OFF;
#else
    // Probe: some hardened kernels (or seccomp'd runner children) refuse
    // PROT_EXEC on anonymous mappings. Emit and run a trivial stub before
    // promising anything.
    {
      Emitter probe;
      probe.mov_ri32(RAX, 42);
      probe.ret();
      CodeBuffer pb;
      if (!fill_and_seal(pb, probe.code)) {
        r.reason = "kernel refused a writable-then-executable mapping";
        return;
      }
      auto fn = reinterpret_cast<std::uint32_t (*)()>(
          reinterpret_cast<void*>(pb.data()));
      if (fn() != 42) {
        r.reason = "executable-memory probe returned garbage";
        return;
      }
    }

    // entry(JitContext* rdi, const void* start rsi): save host callee-saved
    // state, pin the VM bases, and jump into compiled code. The extra 8
    // bytes keep rsp 16-aligned at the helper call sites inside JIT code.
    Emitter t;
    t.push_r(RBP);
    t.push_r(RBX);
    t.push_r(R12);
    t.push_r(R13);
    t.push_r(R14);
    t.push_r(R15);
    t.alu_ri8(Alu::kSub, RSP, 8);
    t.mov_rr(R15, RDI);
    t.mov_rm(R12, R15, kCtxGpr);
    t.mov_rm(R13, R15, kCtxMemBase);
    t.mov_rm(RBX, R15, kCtxXmm);
    t.mov_rm(R14, R15, kCtxRetired);
    t.mov_rm(RBP, R15, kCtxMaxInstructions);
    t.jmp_r(RSI);

    // epilogue (reached via jmp [r15+epilogue]): publish the retired count,
    // return the exit status.
    const std::size_t epi_off = t.size();
    t.mov_mr(R15, kCtxRetired, R14);
    t.mov_rm32(RAX, R15, kCtxExitStatus);
    t.alu_ri8(Alu::kAdd, RSP, 8);
    t.pop_r(R15);
    t.pop_r(R14);
    t.pop_r(R13);
    t.pop_r(R12);
    t.pop_r(RBX);
    t.pop_r(RBP);
    t.ret();

    if (!fill_and_seal(r.buf, t.code)) {
      r.reason = "kernel refused a writable-then-executable mapping";
      return;
    }
    r.rt.entry = reinterpret_cast<std::uint32_t (*)(JitContext*, const void*)>(
        reinterpret_cast<void*>(r.buf.data()));
    r.rt.epilogue = r.buf.data() + epi_off;
    r.ok = true;
#endif
}

RuntimeHolder& holder() {
  static RuntimeHolder h;
  static const bool initialised = (init_runtime(h), true);
  (void)initialised;
  return h;
}

}  // namespace

const Runtime* runtime() {
  RuntimeHolder& h = holder();
  return h.ok ? &h.rt : nullptr;
}

bool jit_supported() { return holder().ok; }

const char* jit_unsupported_reason() { return holder().reason; }

// ---------------------------------------------------------------------------
// JitImage::link
// ---------------------------------------------------------------------------

std::shared_ptr<const JitImage> JitImage::link(
    const std::vector<LinkSegment>& segments, std::size_t total) {
  // The off-end stub sits at offset 0 and doubles as native_addr(total):
  // execution that runs past the last instruction traps through help_exec,
  // exactly where a branch-to-end of the final segment lands.
  Emitter stub;
  stub.mov_mr(R15, kCtxRetired, R14);
  stub.mov_ri32(RSI, static_cast<std::uint32_t>(total));
  stub.mov_rr(RDI, R15);
  stub.call_m(R15, kCtxHelpExec);
  stub.jmp_m(R15, kCtxEpilogue);

  std::size_t size = stub.size();
  std::vector<std::size_t> seg_off(segments.size());
  std::size_t instr_count = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    seg_off[i] = size;
    size += segments[i].blob->code.size();
    instr_count += segments[i].blob->instr_off.size();
  }
  FPMIX_CHECK(instr_count == total);

  std::shared_ptr<JitImage> img(new JitImage());
  if (!img->buf_.map(size)) return nullptr;
  std::uint8_t* base = img->buf_.data();
  std::memcpy(base, stub.code.data(), stub.code.size());

  img->native_off_.assign(total + 1, 0);
  img->native_off_[total] = 0;  // the off-end stub
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentBlob& b = *segments[i].blob;
    if (!b.code.empty()) std::memcpy(base + seg_off[i], b.code.data(),
                                     b.code.size());
    const std::size_t ibase = segments[i].first_index;
    for (std::size_t j = 0; j < b.instr_off.size(); ++j) {
      img->native_off_[ibase + j] =
          static_cast<std::uint32_t>(seg_off[i] + b.instr_off[j]);
    }
  }

  // Apply relocations (the full native offset table must exist first: local
  // branches can target any splice position, including one-past-the-end).
  const auto patch32 = [&](std::size_t at, std::uint32_t v) {
    std::memcpy(base + at, &v, 4);
  };
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentBlob& b = *segments[i].blob;
    const std::size_t ibase = segments[i].first_index;
    for (const Reloc& r : b.relocs) {
      const std::size_t at = seg_off[i] + r.offset;
      switch (r.kind) {
        case Reloc::Kind::kRel32Target: {
          const std::size_t idx = ibase + static_cast<std::size_t>(r.value);
          FPMIX_CHECK(idx <= total);
          patch32(at, static_cast<std::uint32_t>(
                          static_cast<std::int64_t>(img->native_off_[idx]) -
                          static_cast<std::int64_t>(at + 4)));
          break;
        }
        case Reloc::Kind::kRel32Call: {
          const auto f = static_cast<std::size_t>(r.value);
          FPMIX_CHECK(f < segments.size());
          const std::size_t idx = segments[f].first_index;
          patch32(at, static_cast<std::uint32_t>(
                          static_cast<std::int64_t>(img->native_off_[idx]) -
                          static_cast<std::int64_t>(at + 4)));
          break;
        }
        case Reloc::Kind::kAbs64RetAddr: {
          const std::uint64_t v = r.value + segments[i].byte_base;
          std::memcpy(base + at, &v, 8);
          break;
        }
        case Reloc::Kind::kImm32Pc:
          patch32(at, static_cast<std::uint32_t>(ibase + r.value));
          break;
        case Reloc::Kind::kDisp32Counts:
          patch32(at, static_cast<std::uint32_t>((ibase + r.value) * 8));
          break;
      }
    }
  }

  if (!img->buf_.seal()) return nullptr;
  return img;
}

}  // namespace fpmix::vm::jit
