// EndpointClient: one scheduler-side session to a runner_serve daemon.
//
// Owns the socket, the frame reassembly buffer, and the handshake state for
// a single endpoint. The connect path is synchronous (the scheduler brings
// fleets up before searching); everything after the HelloAck is
// non-blocking -- submit() queues trial frames onto the wire, drain()
// collects whatever results have arrived, and the scheduler multiplexes
// many clients through one poll(2) set via fd().
//
// Any transport damage (EOF, socket error, corrupt frame, protocol
// violation) kills the session permanently: drain() returns false, the
// scheduler reroutes in-flight trials to other shards, and reconnection is
// the scheduler's job (with jittered backoff). There is no in-place
// recovery, exactly like a dead worker pipe in the local pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace fpmix::net {

class EndpointClient {
 public:
  /// Connects, sends the hello, and waits (bounded) for the ack. Returns
  /// nullptr with *error on refusal, timeout, rejection, or any protocol
  /// damage during the handshake.
  static std::unique_ptr<EndpointClient> connect(const Endpoint& ep,
                                                 const HelloMsg& hello,
                                                 int connect_timeout_ms,
                                                 int hello_timeout_ms,
                                                 std::string* error);

  /// Queues one trial on the session. False when the session is dead or
  /// the send fails (the caller reroutes the trial).
  bool submit(const TrialMsg& m);

  /// Streams one CRC-sealed journal line for replication. Advisory to the
  /// caller (the line survives on the other shards and in the local file)
  /// but fatal to the session on send failure.
  bool journal_append(const JournalAppendMsg& m);

  /// Sends a heartbeat probe; the pong comes back through drain().
  bool ping(const PingMsg& m);

  /// Requests a shard digest (anti-entropy gossip); the ack comes back
  /// through drain() and take_digests().
  bool request_digest();

  /// Synchronously fetches the endpoint's retained journal shard for this
  /// session's search fingerprint (scheduler failover). Appends the lines
  /// in sequence order to *lines. False (with *error) on timeout or
  /// session death; only usable while no trials are in flight -- any
  /// non-tail frame during the fetch is a protocol violation.
  bool fetch_journal(std::vector<std::string>* lines, int timeout_ms,
                     std::string* error);

  /// Drains the socket and appends every complete ResultMsg to *out.
  /// Returns false when the session died (EOF, error, corrupt frame,
  /// protocol violation); results decoded before the damage are still
  /// appended, so a clean server shutdown delivers its final verdicts.
  /// Pongs are collected aside; take_pongs() hands them over.
  bool drain(std::vector<ResultMsg>* out);

  /// Heartbeat echoes collected by drain() since the last call.
  std::vector<PongMsg> take_pongs() {
    std::vector<PongMsg> out;
    out.swap(pongs_);
    return out;
  }

  /// Shard digests collected by drain() since the last call.
  std::vector<ShardDigestMsg> take_digests() {
    std::vector<ShardDigestMsg> out;
    out.swap(digests_);
    return out;
  }

  bool alive() const { return !dead_; }
  int fd() const { return sock_.fd(); }
  const Endpoint& endpoint() const { return ep_; }
  /// Pool width behind the endpoint (from the HelloAck).
  std::uint32_t workers() const { return workers_; }
  /// Server-side verifier fingerprint (the scheduler cross-checks it
  /// against the local one before trusting any verdict).
  const std::string& verifier_fp() const { return verifier_fp_; }
  /// vm::Engine the endpoint actually runs (from the HelloAck; may lawfully
  /// be micro-op when jit was requested of a jit-incapable host).
  std::uint8_t engine() const { return engine_; }
  /// Journal records the endpoint already retained for this search
  /// fingerprint at handshake time (v3 HelloAck) -- fleet journal coverage.
  std::uint64_t shard_records() const { return shard_records_; }
  /// Endpoint durability health at handshake time (v4 HelloAck): true when
  /// its shard store degraded to in-memory operation.
  bool state_degraded() const { return state_degraded_; }
  /// State files the endpoint restored at its last startup (v4 HelloAck).
  std::uint64_t shards_reloaded() const { return shards_reloaded_; }
  /// Storage failures (injected or real) the endpoint has absorbed.
  std::uint64_t disk_faults() const { return disk_faults_; }
  /// Most recent session error text (handshake rejection, transport
  /// damage), for diagnostics.
  const std::string& last_error() const { return last_error_; }

  void close() {
    dead_ = true;
    sock_.close();
  }

 private:
  EndpointClient(Socket sock, const Endpoint& ep)
      : sock_(std::move(sock)), ep_(ep) {}

  Socket sock_;
  Endpoint ep_;
  FrameBuffer fb_;
  std::uint32_t workers_ = 0;
  std::uint8_t engine_ = 0;
  std::uint64_t shard_records_ = 0;
  bool state_degraded_ = false;
  std::uint64_t shards_reloaded_ = 0;
  std::uint64_t disk_faults_ = 0;
  std::string verifier_fp_;
  std::string last_error_;
  std::vector<PongMsg> pongs_;
  std::vector<ShardDigestMsg> digests_;
  bool dead_ = false;
};

}  // namespace fpmix::net
