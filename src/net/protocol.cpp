#include "net/protocol.hpp"

#include "support/journal.hpp"

namespace fpmix::net {

using runner::FrameStatus;
using runner::WireReader;

std::uint8_t peek_msg_type(std::string_view payload) {
  return payload.empty() ? 0 : static_cast<std::uint8_t>(payload[0]);
}

// ---- Hello -----------------------------------------------------------------

std::string encode_hello(const HelloMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgHello);
  runner::put_u32(&p, m.version);
  runner::put_string(&p, m.bench);
  runner::put_u8(&p, m.cls);
  runner::put_u8(&p, m.shard_cache);
  runner::put_string(&p, m.search_fp);
  runner::put_spec(&p, m.spec);
  return p;
}

bool decode_hello(std::string_view payload, HelloMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgHello) return false;
  out->version = r.u32();
  out->bench = r.str();
  out->cls = r.u8();
  out->shard_cache = r.u8();
  out->search_fp = r.str();
  return runner::read_spec(&r, &out->spec) && r.done();
}

// ---- HelloAck --------------------------------------------------------------

std::string encode_hello_ack(const HelloAckMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgHelloAck);
  runner::put_u8(&p, m.ok);
  runner::put_string(&p, m.error);
  runner::put_string(&p, m.verifier_fp);
  runner::put_u32(&p, m.workers);
  runner::put_u8(&p, m.engine);
  runner::put_u64(&p, m.shard_records);
  runner::put_u8(&p, m.state_degraded);
  runner::put_u64(&p, m.shards_reloaded);
  runner::put_u64(&p, m.disk_faults);
  return p;
}

bool decode_hello_ack(std::string_view payload, HelloAckMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgHelloAck) return false;
  out->ok = r.u8();
  out->error = r.str();
  out->verifier_fp = r.str();
  out->workers = r.u32();
  out->engine = r.u8();
  out->shard_records = r.u64();
  out->state_degraded = r.u8();
  out->shards_reloaded = r.u64();
  out->disk_faults = r.u64();
  return r.done();
}

// ---- Trial -----------------------------------------------------------------

std::string encode_trial(const TrialMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgTrial);
  runner::put_u64(&p, m.ticket);
  runner::put_string(&p, m.key);
  runner::put_string(&p, m.config_key);
  return p;
}

bool decode_trial(std::string_view payload, TrialMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgTrial) return false;
  out->ticket = r.u64();
  out->key = r.str();
  out->config_key = r.str();
  return r.done();
}

// ---- Result ----------------------------------------------------------------

std::string encode_result_msg(const ResultMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgResult);
  runner::put_u64(&p, m.ticket);
  runner::put_u8(&p, m.flags);
  runner::put_u32(&p, m.worker_deaths);
  runner::put_u64(&p, m.wall_ns);
  runner::put_string(&p, m.wire_result);
  return p;
}

bool decode_result_msg(std::string_view payload, ResultMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgResult) return false;
  out->ticket = r.u64();
  out->flags = r.u8();
  out->worker_deaths = r.u32();
  out->wall_ns = r.u64();
  out->wire_result = r.str();
  return r.done();
}

// ---- Replicated journal streaming ------------------------------------------

std::string encode_journal_append(const JournalAppendMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgJournalAppend);
  runner::put_string(&p, m.line);
  return p;
}

bool decode_journal_append(std::string_view payload, JournalAppendMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgJournalAppend) return false;
  out->line = r.str();
  return r.done();
}

std::string encode_journal_fetch() {
  std::string p;
  runner::put_u8(&p, kMsgJournalFetch);
  return p;
}

bool decode_journal_fetch(std::string_view payload) {
  WireReader r(payload);
  if (r.u8() != kMsgJournalFetch) return false;
  return r.done();
}

std::string encode_journal_tail(const JournalTailMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgJournalTail);
  runner::put_u64(&p, m.total);
  runner::put_u8(&p, m.done);
  runner::put_u32(&p, static_cast<std::uint32_t>(m.lines.size()));
  for (const std::string& l : m.lines) runner::put_string(&p, l);
  return p;
}

bool decode_journal_tail(std::string_view payload, JournalTailMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgJournalTail) return false;
  out->total = r.u64();
  out->done = r.u8();
  const std::uint32_t n = r.u32();
  // Bound before allocating: a line costs >= 4 payload bytes (its length
  // prefix), so a count the remaining payload cannot possibly hold is
  // framing damage, not a big chunk.
  if (n > payload.size() / 4 + 1) return false;
  out->lines.clear();
  out->lines.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out->lines.push_back(r.str());
  return r.done();
}

// ---- Anti-entropy gossip ---------------------------------------------------

std::string encode_shard_digest() {
  std::string p;
  runner::put_u8(&p, kMsgShardDigest);
  return p;
}

bool decode_shard_digest(std::string_view payload) {
  WireReader r(payload);
  if (r.u8() != kMsgShardDigest) return false;
  return r.done();
}

std::string encode_shard_digest_ack(const ShardDigestMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgShardDigestAck);
  runner::put_u64(&p, m.records);
  runner::put_u64(&p, m.max_seq);
  runner::put_u32(&p, m.seq_crc);
  return p;
}

bool decode_shard_digest_ack(std::string_view payload, ShardDigestMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgShardDigestAck) return false;
  out->records = r.u64();
  out->max_seq = r.u64();
  out->seq_crc = r.u32();
  return r.done();
}

std::uint32_t seq_set_crc(const std::map<std::uint64_t, std::string>& by_seq,
                          std::uint64_t up_to_seq, std::uint64_t* records) {
  // Each sequence number contributes its 8 little-endian bytes, in
  // ascending order, so the CRC identifies the *set* of retained seqs
  // independent of record contents (the seals already guard those).
  std::string bytes;
  std::uint64_t n = 0;
  for (const auto& [seq, line] : by_seq) {
    if (seq > up_to_seq) break;
    std::uint64_t v = seq;
    for (int i = 0; i < 8; ++i) {
      bytes += static_cast<char>(v & 0xFF);
      v >>= 8;
    }
    ++n;
  }
  if (records != nullptr) *records = n;
  return crc32(bytes);
}

// ---- Heartbeat -------------------------------------------------------------

std::string encode_ping(const PingMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgPing);
  runner::put_u64(&p, m.nonce);
  runner::put_u64(&p, m.t_send_ns);
  return p;
}

bool decode_ping(std::string_view payload, PingMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgPing) return false;
  out->nonce = r.u64();
  out->t_send_ns = r.u64();
  return r.done();
}

std::string encode_pong(const PongMsg& m) {
  std::string p;
  runner::put_u8(&p, kMsgPong);
  runner::put_u64(&p, m.nonce);
  runner::put_u64(&p, m.t_send_ns);
  return p;
}

bool decode_pong(std::string_view payload, PongMsg* out) {
  WireReader r(payload);
  if (r.u8() != kMsgPong) return false;
  out->nonce = r.u64();
  out->t_send_ns = r.u64();
  return r.done();
}

// ---- Error -----------------------------------------------------------------

std::string encode_error_msg(std::string_view message) {
  std::string p;
  runner::put_u8(&p, kMsgError);
  runner::put_string(&p, message);
  return p;
}

bool decode_error_msg(std::string_view payload, std::string* message) {
  WireReader r(payload);
  if (r.u8() != kMsgError) return false;
  *message = r.str();
  return r.done();
}

// ---- FrameBuffer -----------------------------------------------------------

FrameStatus FrameBuffer::next(std::string* payload) {
  if (corrupt_) return FrameStatus::kCorrupt;
  std::size_t consumed = 0;
  const FrameStatus st = runner::decode_frame(buf_, payload, &consumed);
  if (st == FrameStatus::kOk) {
    buf_.erase(0, consumed);
  } else if (st == FrameStatus::kCorrupt) {
    corrupt_ = true;
  }
  return st;
}

}  // namespace fpmix::net
