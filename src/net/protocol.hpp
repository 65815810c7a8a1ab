// Session protocol of the distributed search service.
//
// The transport reuses the runner's CRC-framed wire format verbatim
// (runner/wire.hpp: `magic | payload_len | payload | crc32`), carried over
// TCP instead of pipes -- a corrupt or truncated frame is a *detected*
// session error on either side, never a silently wrong verdict. The first
// payload byte is a message type:
//
//   client -> server
//     kMsgHello          session handshake: protocol version, workload id,
//                        search fingerprint, and the runner::SandboxSpec
//                        (engine, budget, deadline, breaker, rlimit, fault
//                        campaign)
//     kMsgTrial          one trial: ticket + config digest + full canonical
//                        config key (the session stream stays stateless)
//     kMsgCacheInsert    shard-cache fill: a verdict this client computed
//                        elsewhere (another shard or in-process)
//     kMsgJournalAppend  one CRC-sealed journal record, streamed as the
//                        scheduler commits it locally; the server retains a
//                        per-search_fp replicated shard of them
//     kMsgJournalFetch   request the retained shard for this session's
//                        search_fp (scheduler failover / --adopt)
//     kMsgPing           heartbeat probe (nonce + client send timestamp)
//   server -> client
//     kMsgHelloAck       accept (worker count, verifier fingerprint to
//                        cross-check, retained shard size) or reject
//     kMsgResult         one trial verdict: ticket, flags, encoded EvalResult
//     kMsgJournalTail    fetch response: a chunk of retained journal lines
//                        in sequence order, done flag on the last chunk
//     kMsgPong           heartbeat echo (nonce + timestamp bounced back)
//     kMsgError          fatal session error (text), connection closes
//
// Many trials may be outstanding per connection; results return in
// completion order and are correlated by ticket. Every encode/decode here
// is a pure function over std::string, so the whole protocol unit-tests
// without opening a socket.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "runner/wire.hpp"

namespace fpmix::net {

/// Bumped on any incompatible message change; HelloAck rejects mismatches.
/// v2: Hello carries the VM execution engine, HelloAck echoes the engine
/// the endpoint will actually run (a jit-incapable host downgrades).
/// v3: replicated journal streaming (JournalAppend/JournalFetch/
/// JournalTail), heartbeat liveness (Ping/Pong), HelloAck reports the
/// retained shard size.
/// v4: durable daemon state -- HelloAck reports the endpoint's persistence
/// health (state_degraded, shards_reloaded, disk_faults), and the
/// ShardDigest/ShardDigestAck exchange lets the scheduler compare shard
/// contents across endpoints (anti-entropy gossip) without fetching them.
/// v5: Hello carries the evaluation rules as one runner::SandboxSpec.
/// v6: Result payloads carry TrialCost::setup_ns (Machine construction).
/// v7: Result payloads carry TrialCost::jit_ns (JIT compile + link).
/// v8: Result payloads drop the estimated patch/predecode savings.
constexpr std::uint32_t kProtocolVersion = 8;

constexpr std::uint8_t kMsgHello = 1;
constexpr std::uint8_t kMsgHelloAck = 2;
constexpr std::uint8_t kMsgTrial = 3;
constexpr std::uint8_t kMsgResult = 4;
constexpr std::uint8_t kMsgCacheInsert = 5;
constexpr std::uint8_t kMsgError = 6;
constexpr std::uint8_t kMsgJournalAppend = 7;
constexpr std::uint8_t kMsgJournalFetch = 8;
constexpr std::uint8_t kMsgJournalTail = 9;
constexpr std::uint8_t kMsgPing = 10;
constexpr std::uint8_t kMsgPong = 11;
constexpr std::uint8_t kMsgShardDigest = 12;
constexpr std::uint8_t kMsgShardDigestAck = 13;

/// First payload byte, or 0 for an empty payload.
std::uint8_t peek_msg_type(std::string_view payload);

// ---- Handshake -------------------------------------------------------------

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::string bench;  // workload name ("ep", "cg", ...)
  std::uint8_t cls = 'W';
  std::uint8_t shard_cache = 0;  // consult/fill the fleet-wide trial cache
  std::string search_fp;         // shard-cache namespace (trial_cache.hpp)
  /// Evaluation rules; must match the client's own, or results would not
  /// be byte-compatible with its journal. The engine is the *requested*
  /// one: a jit-incapable endpoint may downgrade (see HelloAckMsg) instead
  /// of rejecting the session.
  runner::SandboxSpec spec;
};

std::string encode_hello(const HelloMsg& m);
bool decode_hello(std::string_view payload, HelloMsg* out);

struct HelloAckMsg {
  std::uint8_t ok = 0;
  std::string error;        // when !ok
  std::string verifier_fp;  // server-side verifier fingerprint (cross-check)
  std::uint32_t workers = 0;  // pool width behind this endpoint
  /// vm::Engine the endpoint will actually evaluate on. Equals the hello's
  /// engine except for the one sanctioned mismatch: jit requested on a host
  /// that cannot run it answers with the micro-op engine.
  std::uint8_t engine = 0;
  /// Journal records this endpoint already retains for the session's
  /// search_fp (v3): an adopting scheduler reads fleet coverage from the
  /// handshake alone.
  std::uint64_t shard_records = 0;
  /// Persistence health (v4). state_degraded means the daemon's shard store
  /// fell back to in-memory operation (unwritable/full state dir) -- its
  /// replicas are live but will not survive a restart. shards_reloaded and
  /// disk_faults snapshot the store counters at handshake time, so a
  /// scheduler can report per-endpoint durability without extra round
  /// trips.
  std::uint8_t state_degraded = 0;
  std::uint64_t shards_reloaded = 0;
  std::uint64_t disk_faults = 0;
};

std::string encode_hello_ack(const HelloAckMsg& m);
bool decode_hello_ack(std::string_view payload, HelloAckMsg* out);

// ---- Trials ----------------------------------------------------------------

struct TrialMsg {
  std::uint64_t ticket = 0;
  std::string key;         // config digest (journal/cache/injector identity)
  std::string config_key;  // full canonical PrecisionConfig serialization
};

std::string encode_trial(const TrialMsg& m);
bool decode_trial(std::string_view payload, TrialMsg* out);

/// ResultMsg flag bits.
constexpr std::uint8_t kResultQuarantined = 1u << 0;  // breaker tripped
constexpr std::uint8_t kResultCacheHit = 1u << 1;     // served from shard cache

struct ResultMsg {
  std::uint64_t ticket = 0;
  std::uint8_t flags = 0;
  std::uint32_t worker_deaths = 0;  // fault events absorbed server-side
  std::uint64_t wall_ns = 0;        // server-side dispatch-to-delivery time
  std::string wire_result;          // runner::encode_result payload
};

std::string encode_result_msg(const ResultMsg& m);
bool decode_result_msg(std::string_view payload, ResultMsg* out);

// ---- Shard cache fill ------------------------------------------------------

struct CacheInsertMsg {
  std::string key;
  std::uint8_t passed = 0;
  std::uint8_t failure_class = 0;  // verify::FailureClass
  std::string failure;
};

std::string encode_cache_insert(const CacheInsertMsg& m);
bool decode_cache_insert(std::string_view payload, CacheInsertMsg* out);

// ---- Replicated journal streaming (v3) -------------------------------------

/// One CRC-sealed journal line (support/journal v2 format, no trailing
/// newline), streamed scheduler -> endpoint as it commits locally. The
/// server re-validates the seal before retaining it, so a damaged line is
/// dropped, never replicated.
struct JournalAppendMsg {
  std::string line;
};

std::string encode_journal_append(const JournalAppendMsg& m);
bool decode_journal_append(std::string_view payload, JournalAppendMsg* out);

/// Requests the endpoint's retained shard for this session's search_fp.
/// The reply is a run of JournalTail chunks ending with done=1.
std::string encode_journal_fetch();
bool decode_journal_fetch(std::string_view payload);

/// One chunk of a shard fetch, lines in ascending sequence order. `total`
/// is the full retained-record count (repeated on every chunk); `done`
/// marks the final chunk (an empty shard answers with one empty done
/// chunk).
struct JournalTailMsg {
  std::uint64_t total = 0;
  std::uint8_t done = 0;
  std::vector<std::string> lines;
};

std::string encode_journal_tail(const JournalTailMsg& m);
bool decode_journal_tail(std::string_view payload, JournalTailMsg* out);

// ---- Anti-entropy gossip (v4) ----------------------------------------------

/// Requests a digest of the endpoint's retained shard for this session's
/// search_fp. The scheduler compares the reply against the record set it
/// has committed locally and re-streams only what the endpoint is missing,
/// so shard healing is continuous instead of riding the next adoption.
std::string encode_shard_digest();
bool decode_shard_digest(std::string_view payload);

/// Digest of one retained shard: record count, highest sealed sequence
/// number, and a CRC32 over the ascending sequence numbers (each as 8
/// little-endian bytes). Two shards with equal digests hold the same
/// sequence set; a matching prefix digest identifies a pure tail gap, which
/// is the cheap (and overwhelmingly common) repair case.
struct ShardDigestMsg {
  std::uint64_t records = 0;
  std::uint64_t max_seq = 0;
  std::uint32_t seq_crc = 0;
};

std::string encode_shard_digest_ack(const ShardDigestMsg& m);
bool decode_shard_digest_ack(std::string_view payload, ShardDigestMsg* out);

/// CRC32 over the ascending sequence numbers of `by_seq` that are
/// <= `up_to_seq`, each contributing 8 little-endian bytes -- the digest
/// both sides of the gossip exchange compute. Returns the record count
/// considered through *records.
std::uint32_t seq_set_crc(const std::map<std::uint64_t, std::string>& by_seq,
                          std::uint64_t up_to_seq, std::uint64_t* records);

// ---- Heartbeat (v3) --------------------------------------------------------

/// Liveness probe. The server echoes both fields back verbatim in a Pong;
/// the scheduler matches by nonce and derives RTT from its own clock, so
/// nothing depends on cross-host time.
struct PingMsg {
  std::uint64_t nonce = 0;
  std::uint64_t t_send_ns = 0;
};

std::string encode_ping(const PingMsg& m);
bool decode_ping(std::string_view payload, PingMsg* out);

struct PongMsg {
  std::uint64_t nonce = 0;
  std::uint64_t t_send_ns = 0;  // the ping's timestamp, echoed
};

std::string encode_pong(const PongMsg& m);
bool decode_pong(std::string_view payload, PongMsg* out);

// ---- Session error ---------------------------------------------------------

std::string encode_error_msg(std::string_view message);
bool decode_error_msg(std::string_view payload, std::string* message);

// ---- Incremental frame extraction ------------------------------------------

/// Accumulates stream bytes and yields complete CRC-verified frame
/// payloads. Corruption is sticky: once the stream is bad there is no
/// resynchronization -- the connection must be dropped (the sender retries
/// on another shard, exactly like a dead worker pipe).
class FrameBuffer {
 public:
  void append(std::string_view data) { buf_.append(data); }

  /// Extracts the next complete frame payload. kNeedMore when the buffer
  /// holds only a prefix; kCorrupt (sticky) on framing/CRC damage.
  runner::FrameStatus next(std::string* payload);

  bool corrupt() const { return corrupt_; }
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  bool corrupt_ = false;
};

}  // namespace fpmix::net
