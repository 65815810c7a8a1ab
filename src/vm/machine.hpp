// The virtual machine: executes a predecoded image, profiles it.
//
// Responsibilities beyond plain interpretation:
//  - per-instruction execution counts (the profiling run that drives search
//    prioritisation and the "dynamic % replaced" column of Figure 10);
//  - the tag trap: any instruction that *interprets* a 64-bit slot as a
//    double while the slot carries the 0x7FF4DEAD replacement sentinel stops
//    the machine with a diagnostic. This realises the paper's design goal
//    that "anything that our analysis misses causes a crash, which is much
//    easier to debug than mis-rounded operations";
//  - the intrinsic table (math library, output channel, mini-MPI).
//
// Three execution engines share all machine state and semantics:
//  - Engine::kJit (default): compiles the ExecutableImage's micro-op stream
//    to native x86-64 code (src/vm/jit/) and runs that. The compiled code is
//    cached on the image, so only the first Machine per image pays for it
//    (reported by jit_ns()). Hosts that cannot run compiled code (non-x86-64,
//    sanitizer builds, no executable memory) fall back to kMicroOp with a
//    one-time warning.
//  - Engine::kMicroOp: executes the predecoded micro-op stream through a
//    token-threaded (computed-goto) core; operand kinds were classified at
//    predecode time, so the inner loop does no per-step operand dispatch.
//    Separate profiling and non-profiling run loops keep counter
//    maintenance off the pass/fail-trial path.
//  - Engine::kSwitch: the original decode-and-switch interpreter, retained
//    as the differential-testing oracle (tests/vm_engine_test.cpp runs
//    every program on all engines and demands bit-identical behaviour).
//    Use it when validating engine changes or bisecting a miscompare.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/instr.hpp"
#include "program/image.hpp"
#include "support/fault.hpp"
#include "vm/exec_image.hpp"
#include "vm/minimpi.hpp"

namespace fpmix::vm {

/// Execution engine selection (see file comment).
enum class Engine : std::uint8_t {
  kMicroOp = 0,  // predecoded micro-op handler table
  kSwitch = 1,   // reference decode-and-switch interpreter (oracle)
  kJit = 2,      // baseline template JIT (default; x86-64 hosts, degrades
                 // to kMicroOp with a one-time warning when unsupported)
};

struct RunResult {
  enum class Status {
    kHalted,        // clean stop (halt, or return from the entry function)
    kTrapped,       // runtime fault; see `trap_message`
    kOutOfBudget,   // exceeded Options::max_instructions
    kDeadline,      // exceeded Options::deadline_ns of wall-clock time
  };
  Status status = Status::kHalted;
  std::string trap_message;
  std::uint64_t instructions_retired = 0;
  /// True when the trap was the replaced-double tag trap -- a narrowed
  /// value escaped the instrumentation. Lets callers classify sentinel
  /// escapes without parsing trap_message.
  bool sentinel_escape = false;

  bool ok() const { return status == Status::kHalted; }
};

class Machine {
 public:
  struct Options {
    /// Hard cap on retired instructions; infinite loops in broken patched
    /// binaries must not hang the search.
    std::uint64_t max_instructions = 1ull << 33;

    /// Detect replaced-double sentinels consumed by double-interpreting
    /// instructions (see file comment). Disable only in tests that study
    /// the escape behaviour itself.
    bool tag_trap = true;

    /// Mini-MPI attachment; nullptr runs as a single rank.
    MiniMpi* mpi = nullptr;
    int rank = 0;

    /// Collect per-instruction execution counts. Trial evaluations that
    /// only need pass/fail should turn this off: the non-profiling run
    /// loop skips counter maintenance entirely.
    bool profile = true;

    /// Execution engine; kSwitch is the differential-testing oracle.
    Engine engine = Engine::kJit;

    /// Wall-clock deadline for the whole run; 0 disables. Enforced on both
    /// engines by running in bounded retired-instruction chunks and
    /// checking the clock between chunks, so the hot dispatch loops stay
    /// untouched. A run that exceeds it stops with Status::kDeadline.
    std::uint64_t deadline_ns = 0;

    /// Retired instructions between wall-clock checks (and therefore the
    /// worst-case overshoot, in instructions, past the deadline).
    std::uint64_t deadline_check_interval = 1ull << 20;

    /// Planned machine fault (fault-injection campaigns); nullptr or
    /// kind == kNone runs clean. Applied at the exact retired-instruction
    /// count of the spec, on either engine.
    const fault::VmFaultSpec* fault = nullptr;

    /// JIT engine only: wrap the out-of-line C++ helpers (intrinsic, ret,
    /// the off-end trap) in wall-clock accounting so bench_jit_compile can
    /// split kernel time into jitted code vs helper time (Amdahl view).
    /// Adds a clock read per helper call; leave off for timed runs.
    bool time_jit_helpers = false;
  };

  /// Convenience constructors: predecode a private ExecutableImage from
  /// `image` (one decode + lowering pass per Machine). Hot paths that
  /// construct many Machines should predecode once with
  /// ExecutableImage::build and use the shared_ptr constructor.
  explicit Machine(const program::Image& image) : Machine(image, Options{}) {}
  Machine(const program::Image& image, Options options);

  /// Shares an immutable predecoded image; no per-Machine decode work and
  /// no image copy. `exec` may be shared freely across Machines/threads.
  explicit Machine(std::shared_ptr<const ExecutableImage> exec)
      : Machine(std::move(exec), Options{}) {}
  Machine(std::shared_ptr<const ExecutableImage> exec, Options options);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Runs from the image entry point to completion. May be called once.
  RunResult run();

  /// Values emitted through the output_f64 / output_i64 intrinsics; these
  /// are what verification routines inspect.
  const std::vector<double>& output_f64() const { return output_f64_; }
  const std::vector<std::int64_t>& output_i64() const { return output_i64_; }

  std::uint64_t instructions_retired() const { return retired_; }

  /// Wall-clock nanoseconds spent in JIT helper calls (intrinsic, ret
  /// resolution, the off-end trap) when Options::time_jit_helpers was set;
  /// 0 otherwise and on the interpreter engines.
  std::uint64_t jit_helper_ns() const { return jit_helper_ns_; }
  /// Helper-call count alongside jit_helper_ns() (same gating).
  std::uint64_t jit_helper_calls() const { return jit_helper_calls_; }

  /// Wall-clock nanoseconds run() spent compiling and linking native code
  /// for this image (JIT engine, first run of an image only; later Machines
  /// reuse the image's cached code and report 0). Included in run()'s wall
  /// time; 0 on the interpreter engines.
  std::uint64_t jit_ns() const { return jit_ns_; }

  /// The shared predecoded image this machine executes.
  const std::shared_ptr<const ExecutableImage>& executable() const {
    return exec_;
  }

  /// Execution count per instruction address (this image's addresses).
  std::map<std::uint64_t, std::uint64_t> profile_by_address() const;

  /// Execution counts attributed to original-program addresses via the
  /// image's provenance table (identity when the image was never patched).
  std::map<std::uint64_t, std::uint64_t> profile_by_origin() const;

  /// Reads VM memory (for inspecting analysis areas written by
  /// instrumentation, e.g. cancellation counters). Throws VmError when the
  /// range is out of bounds.
  std::vector<std::uint8_t> read_memory(std::uint64_t addr,
                                        std::size_t size) const;
  std::uint64_t read_memory_u64(std::uint64_t addr) const;

 private:
  friend struct MicroExec;  // the micro-op handlers (machine.cpp)
  friend struct JitExec;    // the JIT driver + its C++ helpers (machine.cpp)

  struct Xmm {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };
  struct Flags {
    bool eq = false;
    bool lt = false;   // signed / FP less-than
    bool ltu = false;  // unsigned less-than
  };

  // Internal trap signal; caught by run().
  struct Trap {
    std::string message;
    bool sentinel = false;  // the replaced-double tag trap
  };
  [[noreturn]] void trap(std::string message) const;

  /// Uniform diagnostic suffix for trap messages: program counter, address,
  /// opcode mnemonic and retired-instruction count of the faulting
  /// instruction -- enough to act on a journaled failure line without
  /// re-running the trial. Identical on both engines.
  std::string trap_context(std::size_t pc, std::uint64_t retired) const;

  // Memory access (bounds-checked).
  std::uint64_t effective_address(const arch::MemRef& m) const;
  std::uint64_t load(std::uint64_t addr, unsigned bytes) const;
  void store(std::uint64_t addr, std::uint64_t value, unsigned bytes);

  // Operand helpers.
  std::uint64_t int_value(const arch::Operand& op) const;  // gpr or imm
  std::uint64_t read_f64_bits(const arch::Instr& ins, const arch::Operand& op,
                              unsigned lane) const;
  void check_not_tagged(const arch::Instr& ins, std::uint64_t bits) const;

  void exec_intrinsic(const arch::Instr& ins);
  void push64(std::uint64_t v);
  std::uint64_t pop64();

  // Reference engine: executes one decoded instruction. The micro-op and
  // JIT engines never call it, so it stays an independent oracle.
  void step_switch(const arch::Instr& ins);
  RunResult run_switch();

  // Micro-op engine; the template parameter selects the profiling loop.
  template <bool Profile>
  RunResult run_micro();

  // JIT engine: runs natively compiled code (src/vm/jit/), bit-identical to
  // the interpreters. Caller must have verified jit::jit_supported().
  RunResult run_jit();

  /// Invokes the selected engine from the current machine state.
  RunResult run_engine();

  /// Chunked supervision loop: enforces Options::deadline_ns and fires the
  /// planned Options::fault by re-entering the engine in bounded
  /// retired-instruction chunks (both engines resume from pc_/retired_
  /// after a budget stop).
  RunResult run_supervised();

  /// Applies a state-mutating fault (kBitFlip / kSentinel) to the current
  /// machine state.
  void apply_state_fault(const fault::VmFaultSpec& spec);

  std::shared_ptr<const ExecutableImage> exec_;
  Options options_;

  /// Unmaps the guest address space.
  struct Unmap {
    std::size_t bytes;  // mapping length (memory_size rounded up to a page)
    void operator()(std::uint8_t* base) const;
  };
  /// The guest address space: one private anonymous mapping per Machine.
  /// Only the data segment is copied in at construction; every other page
  /// is a kernel zero page until the guest first touches it, so a trial pays
  /// for the pages it uses rather than for zero-filling all of memory_size.
  std::unique_ptr<std::uint8_t, Unmap> memory_;
  /// Raw view of memory_, cached at construction (memory_ never moves).
  /// mem_size_ is the architectural size, not the page-rounded mapping
  /// length: every load/store bounds check compares against it, so the
  /// slack past it on the last page stays unreachable.
  std::uint8_t* mem_base_ = nullptr;
  std::uint64_t mem_size_ = 0;
  /// One extra slot past the architectural registers: kZeroRegSlot, always
  /// zero, targeted by micro-op address recipes whose base/index register
  /// is absent (makes effective-address computation branch-free).
  std::uint64_t gpr_[arch::kNumGprs + 1] = {};
  Xmm xmm_[arch::kNumXmms];
  Flags flags_;

  std::size_t pc_ = 0;        // index into exec_->code() / exec_->uops()
  bool stopped_ = false;
  std::uint64_t retired_ = 0;
  std::vector<std::uint64_t> counts_;

  std::vector<double> output_f64_;
  std::vector<std::int64_t> output_i64_;
  std::uint64_t jit_helper_ns_ = 0;     // see Options::time_jit_helpers
  std::uint64_t jit_helper_calls_ = 0;
  std::uint64_t jit_ns_ = 0;            // see jit_ns()
  bool ran_ = false;
};

}  // namespace fpmix::vm
