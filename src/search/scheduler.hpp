// Scheduler: the client half of the distributed search service.
//
// Fans trial batches out across a fleet of runner_serve endpoints with
// many trials outstanding per connection, picking the least-loaded shard
// (in-flight trials per worker) for each dispatch. The scheduler is the
// remote counterpart of runner::WorkerPool: the same job and outcome
// types, and every job of a batch gets an outcome, in job order, so the
// search core stays executor-agnostic.
//
// Endpoint failure handling mirrors the pool's worker supervision one
// level up. A dead connection is a fault event, not a verdict: its
// in-flight trials are rerouted to surviving shards, a trial that rides
// too many dying endpoints is quarantined as kCrash (the same breaker
// taxonomy as a crash-looping config), and the endpoint itself is retried
// with jittered exponential backoff until a consecutive-failure budget
// marks it lost. When every endpoint is lost, outcomes come back with
// served == false and the caller (the search) degrades to in-process
// evaluation -- availability over distribution, never a wrong verdict.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "runner/worker_pool.hpp"
#include "search/search.hpp"  // EndpointMetrics
#include "support/backoff.hpp"

namespace fpmix::search {

struct SchedulerOptions {
  std::vector<net::Endpoint> endpoints;
  /// Session handshake template (workload id, evaluation semantics, shard
  /// cache flag, search fingerprint, fault campaign).
  net::HelloMsg hello;
  int connect_timeout_ms = 2000;
  /// The ack can lag on a cold server (it builds the workload and runs the
  /// reference computation inside the handshake).
  int hello_timeout_ms = 60000;
  /// Consecutive connect/session failures before an endpoint is lost.
  std::uint32_t max_endpoint_failures = 3;
  /// Endpoint deaths one trial may ride before it is quarantined as
  /// kCrash (the scheduler-level crash-loop breaker).
  std::uint32_t max_trial_crashes = 3;
  /// Local verifier fingerprint; a shard whose HelloAck disagrees is lost
  /// immediately (semantic mismatch never heals by reconnecting).
  std::string verifier_fp;
  BackoffPolicy reconnect_backoff;
  /// Heartbeat period in milliseconds; 0 disables. While a batch runs the
  /// scheduler pings every live shard this often and tracks round-trip
  /// times, so a stalled endpoint is distinguished from a merely slow one.
  std::uint64_t heartbeat_ms = 0;
  /// Consecutive heartbeats an endpoint may leave unanswered before it is
  /// declared dead: its session closes, its trial leases expire, and its
  /// in-flight trials re-dispatch to surviving shards.
  std::uint32_t missed_beat_limit = 3;
  /// Anti-entropy gossip period in milliseconds; 0 disables. While a batch
  /// runs, every live shard is asked for a digest of its retained journal
  /// shard this often; a digest that disagrees with the scheduler's own
  /// committed record set triggers a re-stream of exactly the missing seq
  /// range (or the full set when the divergence is interior), so a
  /// restarted or damaged endpoint heals continuously instead of waiting
  /// for the next adoption.
  std::uint64_t gossip_ms = 0;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& opts);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Dials every endpoint and runs the handshakes. Returns the number of
  /// live sessions (0 means the caller should degrade to local execution).
  std::size_t connect();

  /// Total workers across live endpoints (the search keeps that many
  /// trials open on the fleet).
  std::size_t capacity() const;
  bool any_live() const;

  /// Evaluates one batch remotely. Blocks until every job has an outcome:
  /// a remote verdict, a quarantine verdict (too many endpoint deaths), or
  /// served == false when the whole fleet is lost.
  std::vector<runner::TrialOutcome> run_batch(
      const std::vector<runner::TrialJob>& jobs);

  /// Ships a verdict this client obtained elsewhere (local fallback,
  /// journal replay) to every live shard's cache. No-op unless the session
  /// was opened with shard_cache.
  void broadcast_insert(const std::string& key, bool passed,
                        std::uint8_t failure_class,
                        const std::string& failure);

  /// Replicates one CRC-sealed journal line to every live shard, as the
  /// local journal commits it. Advisory: a send failure downs that shard
  /// (the line survives on the others and in the local file).
  void stream_journal(const std::string& line);

  /// Fetches every live endpoint's retained journal shard and appends all
  /// lines (unreconciled; duplicates across endpoints expected) to *lines.
  /// Returns the number of shards that answered. Call before dispatching
  /// any trials -- the fetch is synchronous per session.
  std::size_t fetch_fleet_journal(std::vector<std::string>* lines);

  /// Runs one synchronous gossip round right now: redials every endpoint
  /// that is down but not lost (backoff or not), asks every live shard for
  /// a digest, waits (bounded) for each answer, and re-streams what the
  /// comparison shows missing. Returns the number of records re-streamed.
  /// run_batch gossips on its own period; the search ends with one of
  /// these rounds, because the records it commits after its last batch
  /// (the final composition's) are never gossiped otherwise.
  std::size_t gossip_now(int timeout_ms = 5000);

  std::vector<EndpointMetrics> endpoint_metrics() const;

 private:
  struct Shard {
    net::Endpoint ep;
    std::unique_ptr<net::EndpointClient> client;
    Backoff backoff;
    std::uint64_t retry_at_ms = 0;
    std::uint32_t consecutive_failures = 0;
    bool lost = false;
    bool ever_connected = false;
    EndpointMetrics m;
    std::map<std::uint64_t, std::size_t> inflight;  // ticket -> job index
    // Heartbeat state: pings outstanding (nonce -> local send time, ns),
    // the beats the current silence has lasted, and the RTT sample log.
    std::map<std::uint64_t, std::uint64_t> pending_pings;
    std::uint64_t next_nonce = 1;
    std::uint64_t last_ping_ms = 0;
    std::uint32_t unanswered = 0;
    std::vector<std::uint64_t> rtt_us;
    // Gossip state: one digest request outstanding at a time per shard.
    bool digest_inflight = false;
    std::uint64_t last_gossip_ms = 0;
  };

  bool try_connect(Shard* s);
  /// Compares an endpoint's shard digest against the locally committed
  /// record set and re-streams what the endpoint is missing (counted in
  /// the shard's records_repaired). False when a re-stream send failed --
  /// the caller downs the shard.
  bool heal_from_digest(Shard* s, const net::ShardDigestMsg& d);
  void shard_down(Shard* s);
  /// Endpoint-failure accounting shared by every failure path: counts a
  /// circuit-breaker trip on the closed->open transition, arms the jittered
  /// backoff (the breaker's open interval; reconnect_due half-opens it with
  /// a probe), and marks the shard lost past the failure budget.
  void note_failure(Shard* s);
  void reconnect_due();
  Shard* least_loaded();

  SchedulerOptions opts_;
  std::vector<Shard> shards_;
  /// Every CRC-sealed line this scheduler has committed (streamed or
  /// adopted), keyed by sealed seq -- the reference set gossip digests are
  /// compared against. Mirrors the local journal file, so its footprint is
  /// the search history the scheduler already retains on disk.
  std::map<std::uint64_t, std::string> streamed_;
  std::uint64_t next_ticket_ = 1;
};

}  // namespace fpmix::search
