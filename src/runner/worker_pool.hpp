// Self-healing pool of sandboxed trial workers.
//
// The WorkerPool is the supervisor half of the out-of-process runner: a
// single driver thread multiplexes N forked Workers with poll(2), feeding
// each a trial request and collecting framed results. Staying
// single-threaded on the driver side sidesteps every multithreaded-fork
// hazard (locks held across fork, half-copied allocator state) -- the pool
// IS the parallelism in isolate mode.
//
// Failure policy, in one paragraph: a worker death, an over-rlimit resource
// verdict, or a corrupt/truncated result frame is a *fault event*, not a
// trial verdict. The pool respawns the worker (jittered exponential
// backoff; see support/backoff.hpp) and re-executes the trial with a fresh
// fault-injector attempt index. A config that kills workers
// max_crashes_per_config times in a row trips its circuit breaker: it is
// reported as a failing (kCrash) outcome, marked quarantined, and never
// executed again. A supervisor-timeout kill (TERM, then KILL after a grace
// period) is different: it yields a voting kTimeout verdict, mirroring what
// the in-process deadline path reports. If workers keep dying regardless of
// config (crash_storm_threshold consecutive deaths with no result
// delivered), the pool declares a crash storm and fails all outstanding
// work instead of fork-bombing the machine.
//
// The pool is driven through submit()/pump()/take_finished(): the search's
// lane loop submits one trial at a time as lanes free up, and the network
// runner daemon multiplexes many client sessions over the same calls.
// poll_fds()/next_deadline_ns() let an external event loop (the daemon's
// socket loop) sleep on worker pipes and supervisor deadlines alongside its
// own fds.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runner/trial_runner.hpp"
#include "support/backoff.hpp"

namespace fpmix::runner {

struct PoolOptions {
  /// Number of concurrently running workers.
  int workers = 1;
  /// Per-config circuit breaker: this many consecutive fault events
  /// (worker deaths, resource verdicts, protocol errors) quarantines the
  /// config as failing.
  std::uint32_t max_crashes_per_config = 3;
  /// Pool-wide breaker: this many consecutive worker deaths without a
  /// single delivered result aborts outstanding work (the environment, not
  /// any one config, is broken).
  std::uint32_t crash_storm_threshold = 16;
  /// Wall-clock cap per trial execution; 0 disables supervisor timeouts
  /// (the worker's own VM deadline is then the only clock).
  std::uint64_t trial_timeout_ms = 0;
  /// Grace between SIGTERM and SIGKILL for a timed-out worker.
  std::uint64_t term_grace_ms = 250;
  /// Respawn throttle after consecutive deaths (jitter keeps N slots from
  /// respawning in lockstep). The envelope matches the historical inline
  /// policy: 2ms doubling to a 200ms cap.
  BackoffPolicy respawn_backoff;
  /// Rlimits each worker applies to itself.
  RlimitSpec limits;
};

/// What a pool started from `spec` runs with: the per-trial evaluation
/// template and the supervisor envelope. The search's local pool and every
/// runner_serve backend start from this, so both apply the same rules.
/// Callers add what is theirs: eval.builder, pool.workers and
/// pool.term_grace_ms.
struct PoolPlan {
  verify::EvalOptions eval;
  PoolOptions pool;
};
PoolPlan plan_pool(const SandboxSpec& spec);

/// Per-worker-slot census (slot = one seat in the pool; the worker process
/// occupying it may be respawned many times).
struct SlotStats {
  std::uint64_t requests = 0;     // trial requests successfully sent
  std::uint64_t respawns = 0;     // worker processes respawned into the slot
  std::uint64_t crashes = 0;      // non-supervisor deaths observed
  std::uint64_t timeouts = 0;     // supervisor deadline kills
  std::uint64_t quarantines = 0;  // per-config breakers tripped on this slot
};

struct PoolStats {
  std::uint64_t workers_spawned = 0;
  std::uint64_t workers_respawned = 0;
  /// Worker deaths not initiated by the supervisor (crashes, rlimit kills).
  std::uint64_t worker_crashes = 0;
  /// Workers the supervisor killed for exceeding the trial timeout.
  std::uint64_t timeouts_killed = 0;
  /// Corrupt or truncated result frames (CRC caught them).
  std::uint64_t protocol_errors = 0;
  /// Resource verdicts (rlimit OOM / SIGXCPU) absorbed as retries.
  std::uint64_t resource_retries = 0;
  std::uint64_t quarantined_configs = 0;
  /// Trial executions dispatched to workers (retries included).
  std::uint64_t isolated_trials = 0;
  bool crash_storm = false;
  /// Death census by signal name ("SIGSEGV" -> 17), plus "exit:<N>" for
  /// nonzero exits.
  std::map<std::string, std::uint64_t> crashes_by_signal;
  /// Trial requests sent and their config-key bytes.
  std::uint64_t requests = 0;
  std::uint64_t config_bytes = 0;
  /// One entry per pool slot.
  std::vector<SlotStats> slots;
};

/// One trial to execute: the journal key identifying it and the config.
struct TrialJob {
  std::string key;
  const config::PrecisionConfig* config = nullptr;
};

struct TrialOutcome {
  verify::EvalResult result;
  /// Wall time from first dispatch to final delivery (retries included).
  std::uint64_t wall_ns = 0;
  /// Fault events absorbed to produce this outcome.
  std::uint32_t worker_deaths = 0;
  /// True when the circuit breaker tripped: `result` is a synthetic kCrash
  /// failure and the config will never run again.
  bool quarantined = false;
  /// False when no executor could take the trial at all (every remote
  /// endpoint down, in the distributed scheduler); the caller falls back
  /// to in-process evaluation. The pool itself always serves.
  bool served = true;
};

/// Supervisor for a fleet of sandboxed Workers. Not thread-safe: one
/// driver thread owns it (isolate mode's parallelism lives in the workers).
class WorkerPool {
 public:
  WorkerPool(const WorkerContext& ctx, const PoolOptions& opts);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns the initial workers. False when not a single worker could be
  /// forked -- the caller degrades to the in-process path.
  bool start();

  /// Queues one trial. `ticket` is the caller's correlation id, echoed in
  /// the Finished record; it must be unique among unfinished submissions.
  /// The config is copied (the async caller's batch may outlive its
  /// buffers). Quarantined configs, crash storms and unsupported platforms
  /// all surface as Finished records on the next pump().
  void submit(std::uint64_t ticket, const std::string& key,
              const config::PrecisionConfig& config);

  /// One supervision iteration: dispatch queued trials onto idle workers,
  /// wait up to `max_wait_ms` for response traffic (0 = just drain what is
  /// ready, -1 = sleep until traffic or an internal deadline), process
  /// results, enforce trial deadlines.
  void pump(int max_wait_ms);

  /// One finished trial from the async interface.
  struct Finished {
    std::uint64_t ticket = 0;
    TrialOutcome outcome;
  };
  /// Drains finished trials accumulated by pump(), in completion order.
  std::vector<Finished> take_finished();

  /// True when nothing is queued, in flight, or waiting to be taken.
  bool idle() const {
    return queue_.empty() && work_.empty() && finished_.empty();
  }
  /// Trials submitted but not yet finished (queued + in flight).
  std::size_t outstanding() const { return work_.size(); }

  /// Appends the response fds of busy workers, for an external poll loop;
  /// pump(0) once any is readable.
  void poll_fds(std::vector<int>* out) const;
  /// Earliest supervisor deadline (steady-clock ns; 0 = none). An external
  /// poll must not sleep past it, or timed-out workers linger unkilled.
  std::uint64_t next_deadline_ns() const;

  const PoolStats& stats() const { return stats_; }
  bool crash_storm() const { return stats_.crash_storm; }
  bool is_quarantined(const std::string& key) const {
    return quarantined_.count(key) != 0;
  }

 private:
  struct Slot;
  /// One submitted trial (queued or in flight).
  struct Work {
    std::string key;
    config::PrecisionConfig cfg;
    std::uint64_t first_ns = 0;   // first dispatch (wall_ns baseline)
    std::uint32_t deaths = 0;     // fault events absorbed so far
  };

  bool spawn_slot(Slot* slot, bool respawn);
  /// Registers a fault event for `key`; returns true when the breaker
  /// tripped (the config is now quarantined).
  bool record_fault_event(const std::string& key);
  void finish(std::uint64_t ticket, verify::EvalResult result,
              bool quarantined);
  void deliver_verdict(std::uint64_t ticket, verify::EvalResult result);
  void fault_event(std::uint64_t ticket, Slot* slot,
                   const std::string& detail);
  void note_death();
  Worker::Death kill_and_reap(Slot* slot);
  void process_ready(Slot* slot);
  void dispatch();
  void fail_all_outstanding(const std::string& reason);
  SlotStats* slot_stats(const Slot& s);

  WorkerContext ctx_;
  PoolOptions opts_;
  PoolStats stats_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Per-config consecutive fault events (reset when a verdict lands).
  std::map<std::string, std::uint32_t> fault_streak_;
  /// Per-config execution counter: every dispatch (retries included)
  /// consumes one index, so the fault injector draws fresh per execution.
  std::map<std::string, std::uint32_t> exec_counter_;
  std::set<std::string> quarantined_;
  /// Pool-wide consecutive deaths with no delivered result (storm detector
  /// and backoff driver).
  std::uint32_t consecutive_deaths_ = 0;
  /// Jitter stream for the respawn backoff (deterministic per pool).
  SplitMix64 backoff_rng_{0x6261636B6F6666ull};  // "backoff"
  bool started_ = false;

  std::map<std::uint64_t, Work> work_;   // ticket -> unfinished trial
  std::deque<std::uint64_t> queue_;      // tickets awaiting dispatch
  std::vector<Finished> finished_;
};

}  // namespace fpmix::runner
