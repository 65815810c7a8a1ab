// Out-of-process sandboxed trial execution.
//
// CRAFT runs every patched binary as a separate process because the
// 0x7FF4DEAD sentinel is designed to make untreated escapes crash loudly;
// this module gives the reproduction the same property. A Worker is one
// forked child that applies POSIX rlimits to itself (RLIMIT_AS, RLIMIT_CPU,
// RLIMIT_CORE=0), then loops: read a trial request off its pipe, rebuild
// the PrecisionConfig from its canonical key, patch + predecode + run +
// verify entirely inside its own address space, and ship the EvalResult
// back as a CRC-framed response. A wild write, stack smash, allocation
// blowup or injected SIGSEGV therefore kills *the worker*, and the driver
// observes an EOF + wait status it can classify -- the search and its
// journal never notice more than one failed trial.
//
// Everything POSIX-specific is runtime-gated: isolation_supported() is
// false on platforms without fork, and callers (the WorkerPool, the
// search) degrade to the in-process path there.
#pragma once

#include <cstdint>
#include <string>

#include "config/structure.hpp"
#include "program/image.hpp"
#include "runner/wire.hpp"
#include "support/fault.hpp"
#include "verify/evaluate.hpp"
#include "verify/verifier.hpp"

namespace fpmix::runner {

/// True when this platform can fork sandboxed workers (POSIX).
bool isolation_supported();

/// Resource caps a worker applies to itself right after fork, before
/// touching any trial data. A runaway patched image hits the cap instead
/// of the machine.
struct RlimitSpec {
  /// RLIMIT_AS in MiB; 0 leaves the address space uncapped. Skipped in
  /// sanitizer builds (their shadow mappings need terabytes of
  /// reservation).
  std::uint64_t address_space_mb = 512;
  /// RLIMIT_CPU in seconds; 0 leaves CPU time uncapped. A backstop under
  /// the supervisor's wall-clock deadline: a worker spinning with the pipe
  /// still open dies on SIGXCPU even if the supervisor never times it out.
  std::uint64_t cpu_seconds = 0;
};

/// Borrowed references to everything a worker evaluates trials against.
/// fork(2) snapshots the whole address space, so the child's copies stay
/// valid for its lifetime; the driver must keep them alive while the pool
/// runs (the search owns all four for the duration anyway).
struct WorkerContext {
  const program::Image* image = nullptr;
  const config::StructureIndex* index = nullptr;
  const verify::Verifier* verifier = nullptr;
  /// Per-trial evaluation template; the worker fills in faults per request.
  verify::EvalOptions eval;
  /// Fault campaign; the worker re-derives per-attempt decisions itself
  /// from (key, exec_index) -- the Injector is a pure function, so driver
  /// and worker always agree without shipping fault specs over the wire.
  const fault::Injector* injector = nullptr;
};

/// One sandboxed worker process and its two pipes. Not thread-safe; the
/// WorkerPool multiplexes workers from a single supervisor thread.
class Worker {
 public:
  Worker() = default;
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Forks the child and enters its request loop. Returns false when fork
  /// or pipe creation fails (the caller degrades or retries).
  bool spawn(const WorkerContext& ctx, const RlimitSpec& limits);

  bool running() const { return pid_ > 0; }
  int pid() const { return pid_; }
  /// Readable end of the response pipe (for poll).
  int response_fd() const { return resp_fd_; }

  /// Sends one framed trial request. Returns false when the pipe is broken
  /// (the worker died); the caller reaps and classifies.
  bool send_request(const TrialRequest& req);

  /// Drains available response bytes (non-blocking) and tries to extract
  /// one frame. kNeedMore covers both "partial frame" and "nothing yet";
  /// kCorrupt covers CRC damage AND a stream that ended mid-frame (EOF
  /// with leftover bytes). *eof is set when the pipe closed.
  FrameStatus read_result(std::string* payload, bool* eof);

  void send_sigterm();
  void send_sigkill();

  /// How a reaped worker ended.
  struct Death {
    bool signaled = false;
    int signal = 0;     // when signaled
    int exit_code = 0;  // when exited
  };

  /// Non-blocking (or blocking) reap. Returns true once the child is gone;
  /// fills *death and resets the worker to the not-running state.
  bool reap(Death* death, bool block);

  /// Closes pipes and force-kills + reaps any still-running child.
  void shutdown();

 private:
  int pid_ = -1;
  int req_fd_ = -1;   // driver writes requests here
  int resp_fd_ = -1;  // driver reads responses here
  std::string buf_;   // partial response frame accumulator
};

/// Human-readable signal name ("SIGSEGV", "signal 42").
std::string signal_name(int signo);

/// Classifies a worker death into the failure taxonomy: SIGXCPU is a
/// resource-cap outcome, everything else (SIGSEGV/SIGBUS/SIGKILL/exit N)
/// is a crash. `detail` receives a diagnostic string for the journal.
verify::FailureClass classify_death(const Worker::Death& death,
                                    std::string* detail);

}  // namespace fpmix::runner
