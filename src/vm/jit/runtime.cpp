// Host side of the JIT: executable memory, the entry/epilogue/off-end
// thunks, the capability probe, blob placement and the image linker.
//
// Everything here is mechanism-only: policy (when to JIT, cache lookup,
// helper semantics) lives with the Machine in machine.cpp. place_blobs
// packs freshly compiled blobs into one sealed W^X mapping; JitImage::link
// only fills the function table compiled code reads through
// JitContext::funcs, so linking an image copies and maps nothing.

#include <algorithm>
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
  // Every byte is written right away, so fault the pages in with the map
  // instead of one at a time during the copy.
  int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
  flags |= MAP_POPULATE;
#endif
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, flags, -1, 0);
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

#ifndef FPMIX_JIT_OFF
bool fill_and_seal(CodeBuffer& buf, const std::vector<std::uint8_t>& code) {
  if (!buf.map(code.size())) return false;
  std::memcpy(buf.data(), code.data(), code.size());
  return buf.seal();
}
#endif

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

    // off-end stub (the last FuncSlot's entry): execution ran past the last
    // instruction; help_exec records the trap at pc = instruction count.
    const std::size_t off_end = t.size();
    t.mov_mr(R15, kCtxRetired, R14);
    t.mov_rr(RDI, R15);
    t.call_m(R15, kCtxHelpExec);
    t.jmp_m(R15, kCtxEpilogue);

    if (!fill_and_seal(r.buf, t.code)) {
      r.reason = "kernel refused a writable-then-executable mapping";
      return;
    }
    r.rt.entry = reinterpret_cast<std::uint32_t (*)(JitContext*, const void*)>(
        reinterpret_cast<void*>(r.buf.data()));
    r.rt.epilogue = r.buf.data() + epi_off;
    r.rt.off_end = r.buf.data() + off_end;
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
// Blob placement and image linking
// ---------------------------------------------------------------------------

bool place_blobs(const std::vector<SegmentBlob*>& blobs) {
  // 16-byte aligned starts keep each blob's code aligned as it was emitted.
  constexpr std::size_t kAlign = 16;
  std::size_t size = 0;
  for (const SegmentBlob* b : blobs) {
    FPMIX_CHECK(!b->placed());
    size = (size + kAlign - 1) / kAlign * kAlign + b->size_;
  }
  auto pages = std::make_shared<CodeBuffer>();
  if (!pages->map(size)) return false;
  std::vector<std::size_t> offs;
  offs.reserve(blobs.size());
  std::size_t at = 0;
  for (const SegmentBlob* b : blobs) {
    at = (at + kAlign - 1) / kAlign * kAlign;
    if (b->size_ != 0) {
      std::memcpy(pages->data() + at, b->staged_.data(), b->size_);
    }
    offs.push_back(at);
    at += b->size_;
  }
  if (!pages->seal()) return false;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    SegmentBlob& b = *blobs[i];
    b.placed_ = pages->data() + offs[i];
    b.pages_ = pages;
    b.staged_ = {};
  }
  return true;
}

const void* JitImage::native_addr(std::size_t index) const {
  if (index >= instruction_count()) return funcs_.back().entry;
  // The last function whose first pc is <= index holds it (empty functions
  // share their successor's first pc and sort before it).
  const auto it = std::upper_bound(
      funcs_.begin(), funcs_.end() - 1, index,
      [](std::size_t i, const FuncSlot& f) { return i < f.first_index; });
  const std::size_t f = static_cast<std::size_t>(it - funcs_.begin()) - 1;
  const SegmentBlob& b = *segs_[f].blob;
  return b.code() + b.instr_off[index - funcs_[f].first_index];
}

std::shared_ptr<const JitImage> JitImage::link(
    std::vector<LinkSegment> segments, std::size_t total) {
  const Runtime* rt = runtime();
  FPMIX_CHECK(rt != nullptr);
  std::shared_ptr<JitImage> img(new JitImage());
  const std::size_t n = segments.size();
  img->funcs_.resize(n + 1);
  img->funcs_[n] = {rt->off_end, total, 0};
  // Back to front: an empty function's entry is its successor's.
  for (std::size_t f = n; f-- > 0;) {
    const LinkSegment& s = segments[f];
    FPMIX_CHECK(s.blob->placed());
    FPMIX_CHECK(s.blob->func == f);
    const std::size_t count = s.blob->instr_off.size();
    FPMIX_CHECK(s.first_index + count ==
                (f + 1 < n ? segments[f + 1].first_index : total));
    img->funcs_[f] = {count == 0 ? img->funcs_[f + 1].entry
                                 : s.blob->code() + s.blob->instr_off[0],
                      s.first_index, s.byte_base};
  }
  img->segs_ = std::move(segments);
  return img;
}

}  // namespace fpmix::vm::jit
