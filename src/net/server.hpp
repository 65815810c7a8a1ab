// RunnerServer: the daemon half of the distributed search service.
//
// One single-threaded poll(2) event loop multiplexes three kinds of fds:
// the TCP listener, every client session socket, and the response pipes of
// the local sandboxed WorkerPool (via its async submit/pump interface).
// Staying single-threaded is load-bearing twice over: it sidesteps every
// multithreaded-fork hazard when the pool respawns workers, and it means
// trial submission order -- and therefore per-config fault-injector
// execution indices -- is a deterministic function of the session streams.
//
// Sessions that share evaluation semantics (workload, budget, deadline,
// breaker, rlimit, fault campaign) share one backend: one built workload,
// one TrialBuilder (whose warm caches the forked workers inherit), one
// WorkerPool. Each search fingerprint's replicated journal shard indexes
// the verdicts of the trial lines streamed into it; a `shard_cache` session
// is answered from that index without touching the pool, so schedulers
// sharing a fleet do not evaluate a configuration that any of them has
// already committed.
//
// The net layer stays independent of the kernels library: the embedding
// binary (runner_serve, the tests) supplies a WorkloadFactory that maps a
// benchmark name to a built image + structure index + verifier.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "config/structure.hpp"
#include "net/socket.hpp"
#include "program/image.hpp"
#include "support/fault.hpp"
#include "verify/verifier.hpp"

namespace fpmix::net {

/// Everything the server needs to evaluate trials for one workload.
struct ServedWorkload {
  program::Image image;
  config::StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

/// Maps a benchmark id from a Hello to a built workload. Returns nullptr
/// (with *error) for unknown benchmarks; the session is rejected.
using WorkloadFactory = std::function<std::unique_ptr<ServedWorkload>(
    const std::string& bench, char cls, std::string* error)>;

struct ServerOptions {
  /// Sandboxed workers per backend (one backend per distinct evaluation
  /// semantics across sessions).
  int workers = 2;
  /// TERM->KILL grace for timed-out workers (PoolOptions::term_grace_ms).
  std::uint64_t term_grace_ms = 250;
  /// Test/chaos hook: stop serving (dropping every session) after this
  /// many trial results have been delivered; 0 serves forever. Simulates
  /// an endpoint dying mid-search.
  std::uint64_t exit_after_results = 0;
  /// Concurrent session cap; connections past it are rejected with an
  /// error frame before any backend work is done. 0 = unlimited.
  std::uint64_t max_sessions = 64;
  /// Sessions with no inbound traffic for this long are reaped (their
  /// replicated journal shard survives -- that is the point of it).
  /// 0 = never reap.
  std::uint64_t idle_timeout_ms = 600000;
  /// Per-search_fp replicated-journal bound: beyond this many retained
  /// records the lowest sequence numbers are dropped (and counted).
  std::uint64_t max_shard_records = 1ull << 16;
  /// Distinct search_fp shards retained; beyond it the least-recently
  /// touched whole shard is evicted.
  std::uint64_t max_journal_shards = 8;
  /// Durable state directory (one journal file per shard, see
  /// net/shard_store.hpp). Empty keeps every shard purely in memory (the
  /// pre-v4 behaviour); set, a restarted daemon rejoins the fleet with its
  /// replicas intact. An unusable directory degrades back to in-memory
  /// operation (warned once, flagged in every HelloAck) -- never an abort.
  std::string state_dir;
  /// fsync(2) every persisted shard append (power-loss durability).
  bool state_fsync = false;
  /// Seeded deterministic disk-fault injection for the shard store; must
  /// outlive the server. nullptr = no injection.
  const fault::DiskChaos* disk_chaos = nullptr;
  /// Log one line per session/backend event at info level.
  bool verbose = false;
};

struct ServerStats {
  std::uint64_t sessions_accepted = 0;
  std::uint64_t sessions_rejected = 0;   // bad hello / unknown workload / cap
  std::uint64_t sessions_reaped = 0;     // idle-timeout reaps
  std::uint64_t trials_served = 0;       // results delivered (cache included)
  std::uint64_t shard_cache_hits = 0;    // served without touching the pool
  std::uint64_t journal_appends = 0;     // replicated records retained
  std::uint64_t journal_duplicates = 0;  // dropped: shard held their seq
  std::uint64_t journal_rejected = 0;    // bad seal / unparseable seq
  std::uint64_t journal_fetches = 0;     // shard fetches served
  std::uint64_t pings = 0;               // heartbeats answered
  std::uint64_t digests = 0;             // shard-digest requests answered
  std::uint64_t protocol_errors = 0;     // corrupt frames / bad messages
  std::uint64_t backends = 0;            // distinct evaluation contexts
  // Durable-state counters, mirrored from the shard store (zero when no
  // state dir is configured).
  std::uint64_t shards_reloaded = 0;     // state files restored at startup
  std::uint64_t records_reloaded = 0;    // intact lines restored at startup
  std::uint64_t records_discarded = 0;   // damaged lines dropped at reload
  std::uint64_t disk_faults = 0;         // injected + real storage failures
  std::uint64_t state_degraded = 0;      // 1 when persistence fell back to RAM
};

/// The daemon. Construct with a bound listener (port 0 for kernel-assigned,
/// then read port()), then serve() until stopped.
class RunnerServer {
 public:
  RunnerServer(Listener listener, WorkloadFactory factory,
               const ServerOptions& opts);
  ~RunnerServer();
  RunnerServer(const RunnerServer&) = delete;
  RunnerServer& operator=(const RunnerServer&) = delete;

  std::uint16_t port() const;

  /// Runs the event loop until *stop becomes true (checked a few times a
  /// second; pass nullptr to serve until exit_after_results trips or the
  /// process is signalled).
  void serve(const std::atomic<bool>* stop);

  const ServerStats& stats() const { return stats_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServerStats stats_;
};

}  // namespace fpmix::net
