#include "net/client.hpp"


#include "runner/wire.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FPMIX_NET_POSIX 1
#include <poll.h>
#else
#define FPMIX_NET_POSIX 0
#endif

namespace fpmix::net {

using runner::FrameStatus;

std::unique_ptr<EndpointClient> EndpointClient::connect(
    const Endpoint& ep, const HelloMsg& hello, int connect_timeout_ms,
    int hello_timeout_ms, std::string* error) {
#if !FPMIX_NET_POSIX
  (void)ep;
  (void)hello;
  (void)connect_timeout_ms;
  (void)hello_timeout_ms;
  if (error != nullptr) *error = "sockets unsupported on this platform";
  return nullptr;
#else
  Socket sock = connect_to(ep, connect_timeout_ms, error);
  if (!sock.valid()) return nullptr;
  std::unique_ptr<EndpointClient> c(
      new EndpointClient(std::move(sock), ep));
  if (!c->sock_.send_all(runner::encode_frame(encode_hello(hello)),
                         connect_timeout_ms)) {
    if (error != nullptr) {
      *error = strformat("%s: hello send failed", ep.str().c_str());
    }
    return nullptr;
  }
  // The ack can take a while on a cold server: building the workload and
  // running the reference computation happens inside the handshake.
  const std::uint64_t deadline = steady_ms() + static_cast<std::uint64_t>(
                                                hello_timeout_ms > 0
                                                    ? hello_timeout_ms
                                                    : 60000);
  for (;;) {
    std::string payload;
    const FrameStatus st = c->fb_.next(&payload);
    if (st == FrameStatus::kOk) {
      HelloAckMsg ack;
      if (peek_msg_type(payload) != kMsgHelloAck ||
          !decode_hello_ack(payload, &ack)) {
        // A full daemon answers the connect with an error frame instead of
        // an ack (e.g. "session limit reached"); surface its text.
        std::string text;
        if (peek_msg_type(payload) == kMsgError &&
            decode_error_msg(payload, &text)) {
          if (error != nullptr) {
            *error = strformat("%s: rejected: %s", ep.str().c_str(),
                               text.c_str());
          }
          return nullptr;
        }
        if (error != nullptr) {
          *error = strformat("%s: malformed hello ack", ep.str().c_str());
        }
        return nullptr;
      }
      if (ack.ok == 0) {
        if (error != nullptr) {
          *error = strformat("%s: rejected: %s", ep.str().c_str(),
                             ack.error.c_str());
        }
        return nullptr;
      }
      c->workers_ = ack.workers;
      c->engine_ = ack.engine;
      c->verifier_fp_ = ack.verifier_fp;
      c->shard_records_ = ack.shard_records;
      c->state_degraded_ = ack.state_degraded != 0;
      c->shards_reloaded_ = ack.shards_reloaded;
      c->disk_faults_ = ack.disk_faults;
      return c;
    }
    if (st == FrameStatus::kCorrupt) {
      if (error != nullptr) {
        *error = strformat("%s: corrupt handshake frame", ep.str().c_str());
      }
      return nullptr;
    }
    const std::uint64_t now = steady_ms();
    if (now >= deadline) {
      if (error != nullptr) {
        *error = strformat("%s: hello ack timeout", ep.str().c_str());
      }
      return nullptr;
    }
    pollfd pfd{c->sock_.fd(), POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(deadline - now));
    std::string bytes;
    const IoStatus io = c->sock_.read_available(&bytes);
    if (!bytes.empty()) c->fb_.append(bytes);
    if (io == IoStatus::kEof || io == IoStatus::kError) {
      if (c->fb_.buffered() > 0) continue;  // the ack may already be here
      if (error != nullptr) {
        *error = strformat("%s: connection closed during handshake",
                           ep.str().c_str());
      }
      return nullptr;
    }
  }
#endif
}

bool EndpointClient::submit(const TrialMsg& m) {
  if (dead_) return false;
  if (!sock_.send_all(runner::encode_frame(encode_trial(m)),
                      /*timeout_ms=*/10000)) {
    last_error_ = "trial send failed";
    close();
    return false;
  }
  return true;
}

bool EndpointClient::journal_append(const JournalAppendMsg& m) {
  if (dead_) return false;
  if (!sock_.send_all(runner::encode_frame(encode_journal_append(m)),
                      /*timeout_ms=*/10000)) {
    last_error_ = "journal append send failed";
    close();
    return false;
  }
  return true;
}

bool EndpointClient::ping(const PingMsg& m) {
  if (dead_) return false;
  if (!sock_.send_all(runner::encode_frame(encode_ping(m)),
                      /*timeout_ms=*/10000)) {
    last_error_ = "ping send failed";
    close();
    return false;
  }
  return true;
}

bool EndpointClient::request_digest() {
  if (dead_) return false;
  if (!sock_.send_all(runner::encode_frame(encode_shard_digest()),
                      /*timeout_ms=*/10000)) {
    last_error_ = "shard digest send failed";
    close();
    return false;
  }
  return true;
}

bool EndpointClient::fetch_journal(std::vector<std::string>* lines,
                                   int timeout_ms, std::string* error) {
#if !FPMIX_NET_POSIX
  (void)lines;
  (void)timeout_ms;
  if (error != nullptr) *error = "sockets unsupported on this platform";
  return false;
#else
  if (dead_) {
    if (error != nullptr) *error = "session dead";
    return false;
  }
  if (!sock_.send_all(runner::encode_frame(encode_journal_fetch()),
                      /*timeout_ms=*/10000)) {
    last_error_ = "journal fetch send failed";
    close();
    if (error != nullptr) *error = last_error_;
    return false;
  }
  const std::uint64_t deadline =
      steady_ms() + static_cast<std::uint64_t>(timeout_ms > 0 ? timeout_ms
                                                           : 10000);
  bool peer_closed = false;
  for (;;) {
    std::string payload;
    const FrameStatus st = fb_.next(&payload);
    if (st == FrameStatus::kOk) {
      JournalTailMsg tail;
      if (peek_msg_type(payload) != kMsgJournalTail ||
          !decode_journal_tail(payload, &tail)) {
        // Pongs from an in-flight heartbeat (or a digest ack from a gossip
        // round) may interleave with the tail stream; anything else
        // mid-fetch is a protocol violation.
        PongMsg pong;
        if (peek_msg_type(payload) == kMsgPong &&
            decode_pong(payload, &pong)) {
          pongs_.push_back(pong);
          continue;
        }
        ShardDigestMsg digest;
        if (peek_msg_type(payload) == kMsgShardDigestAck &&
            decode_shard_digest_ack(payload, &digest)) {
          digests_.push_back(digest);
          continue;
        }
        last_error_ = "unexpected frame during journal fetch";
        close();
        if (error != nullptr) *error = last_error_;
        return false;
      }
      for (std::string& l : tail.lines) lines->push_back(std::move(l));
      if (tail.done != 0) return true;
      continue;
    }
    if (st == FrameStatus::kCorrupt) {
      last_error_ = "corrupt frame during journal fetch";
      close();
      if (error != nullptr) *error = last_error_;
      return false;
    }
    // kNeedMore: a closed peer can never complete the partial frame.
    if (peer_closed) {
      last_error_ = "connection closed during journal fetch";
      close();
      if (error != nullptr) *error = last_error_;
      return false;
    }
    const std::uint64_t now = steady_ms();
    if (now >= deadline) {
      last_error_ = "journal fetch timeout";
      close();
      if (error != nullptr) *error = last_error_;
      return false;
    }
    pollfd pfd{sock_.fd(), POLLIN, 0};
    ::poll(&pfd, 1, static_cast<int>(deadline - now));
    std::string bytes;
    const IoStatus io = sock_.read_available(&bytes);
    if (!bytes.empty()) fb_.append(bytes);
    if (io == IoStatus::kEof || io == IoStatus::kError) peer_closed = true;
  }
#endif
}

bool EndpointClient::drain(std::vector<ResultMsg>* out) {
  if (dead_) return false;
  std::string bytes;
  const IoStatus io = sock_.read_available(&bytes);
  if (!bytes.empty()) fb_.append(bytes);
  bool session_over = io == IoStatus::kEof || io == IoStatus::kError;
  // Decode everything already reassembled -- a server that answered and
  // then died still gets its verdicts counted.
  for (;;) {
    std::string payload;
    const FrameStatus st = fb_.next(&payload);
    if (st == FrameStatus::kNeedMore) break;
    if (st == FrameStatus::kCorrupt) {
      last_error_ = "corrupt frame";
      session_over = true;
      break;
    }
    const std::uint8_t type = peek_msg_type(payload);
    if (type == kMsgResult) {
      ResultMsg m;
      if (!decode_result_msg(payload, &m)) {
        last_error_ = "malformed result message";
        session_over = true;
        break;
      }
      out->push_back(std::move(m));
      continue;
    }
    if (type == kMsgPong) {
      PongMsg m;
      if (!decode_pong(payload, &m)) {
        last_error_ = "malformed pong message";
        session_over = true;
        break;
      }
      pongs_.push_back(m);
      continue;
    }
    if (type == kMsgShardDigestAck) {
      ShardDigestMsg m;
      if (!decode_shard_digest_ack(payload, &m)) {
        last_error_ = "malformed shard-digest ack";
        session_over = true;
        break;
      }
      digests_.push_back(m);
      continue;
    }
    if (type == kMsgError) {
      std::string text;
      last_error_ = decode_error_msg(payload, &text)
                        ? text
                        : std::string("malformed error message");
      session_over = true;
      break;
    }
    last_error_ = strformat("unexpected message type %u",
                            static_cast<unsigned>(type));
    session_over = true;
    break;
  }
  if (session_over) {
    if (last_error_.empty()) last_error_ = "connection closed";
    close();
    return false;
  }
  return true;
}

}  // namespace fpmix::net
