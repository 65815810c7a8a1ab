#include "net/server.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "net/shard_store.hpp"
#include "runner/worker_pool.hpp"
#include "support/fault.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "verify/trial_builder.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FPMIX_NET_POSIX 1
#include <poll.h>
#else
#define FPMIX_NET_POSIX 0
#endif

namespace fpmix::net {

using runner::FrameStatus;

namespace {

/// Identity of one evaluation context: sessions with the same workload and
/// spec share a backend (workload, builder, injector, pool).
std::string backend_key(const HelloMsg& h, const runner::SandboxSpec& spec) {
  std::string k = h.bench + "|" + static_cast<char>(h.cls) + "|";
  runner::put_spec(&k, spec);
  return k;
}

}  // namespace

struct RunnerServer::Impl {
  Listener listener;
  WorkloadFactory factory;
  ServerOptions opts;
  ServerStats* stats = nullptr;

  struct Backend {
    std::unique_ptr<ServedWorkload> wl;
    std::unique_ptr<verify::TrialBuilder> builder;
    std::unique_ptr<fault::Injector> injector;
    std::unique_ptr<runner::WorkerPool> pool;
    std::string verifier_fp;
    std::uint32_t workers = 0;
    /// Routing of pool tickets back to sessions.
    struct Route {
      std::uint64_t session_id = 0;
      std::uint64_t client_ticket = 0;
    };
    std::map<std::uint64_t, Route> inflight;
    std::uint64_t next_ticket = 1;
  };

  struct Session {
    std::uint64_t id = 0;
    Socket sock;
    FrameBuffer fb;
    bool hello_done = false;
    bool dead = false;
    Backend* backend = nullptr;
    std::string search_fp;
    bool shard_cache = false;
    std::uint64_t last_active_ms = 0;  // last inbound traffic (idle reaping)
  };

  /// One replicated journal shard: every CRC-sealed line a scheduler has
  /// streamed for one search fingerprint, keyed (and deduplicated) by its
  /// sealed sequence number. Survives the session that fed it -- an adopting
  /// scheduler fetches it over a *new* session with the same search_fp.
  struct JournalShard {
    std::map<std::uint64_t, std::string> by_seq;
    /// The verdict of every trial line streamed for this search_fp, first
    /// key wins: what a shard_cache session's trials are answered from.
    std::unordered_map<std::string, verify::CachedTrial> verdicts;
    std::uint64_t dropped = 0;     // records shed to max_shard_records
    std::uint64_t last_touch = 0;  // LRU clock for whole-shard eviction

    void index(const std::string& line) {
      JsonRecord rec;
      std::string key;
      verify::CachedTrial t;
      if (parse_flat_json(line, &rec) &&
          verify::decode_trial_line(rec, &key, &t)) {
        verdicts.try_emplace(std::move(key), std::move(t));
      }
    }
  };

  std::map<std::string, std::unique_ptr<Backend>> backends;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions;
  std::map<std::string, JournalShard> journal_shards;  // by search_fp
  /// Durable backing for journal shards (no-op without a state dir).
  std::unique_ptr<ShardStore> store;
  std::uint64_t next_session_id = 1;
  std::uint64_t shard_touch_clock = 1;
  bool exit_tripped = false;

  void mirror_store_stats() {
    const ShardStoreStats& s = store->stats();
    stats->shards_reloaded = s.shards_reloaded;
    stats->records_reloaded = s.records_reloaded;
    stats->records_discarded = s.records_discarded;
    stats->disk_faults = s.disk_faults;
    stats->state_degraded = s.degraded ? 1 : 0;
  }

  /// Restores persisted shards into memory, enforcing the same retention
  /// caps a live stream would have hit, and re-indexes their trial lines.
  void reload_state() {
    std::map<std::string, std::map<std::uint64_t, std::string>> journal;
    store->load(&journal);
    for (auto& [fp, by_seq] : journal) {
      JournalShard shard;
      shard.by_seq = std::move(by_seq);
      while (opts.max_shard_records > 0 &&
             shard.by_seq.size() > opts.max_shard_records) {
        shard.by_seq.erase(shard.by_seq.begin());
        ++shard.dropped;
      }
      for (const auto& [seq, line] : shard.by_seq) shard.index(line);
      shard.last_touch = shard_touch_clock++;
      journal_shards.emplace(fp, std::move(shard));
    }
    while (opts.max_journal_shards > 0 &&
           journal_shards.size() > opts.max_journal_shards) {
      auto victim = journal_shards.begin();
      for (auto jt = journal_shards.begin(); jt != journal_shards.end();
           ++jt) {
        if (jt->second.last_touch < victim->second.last_touch) victim = jt;
      }
      store->remove_journal(victim->first);
      journal_shards.erase(victim);
    }
    mirror_store_stats();
  }

  /// The retained shard for `search_fp`, creating it (and evicting the
  /// least-recently-touched shard past the cap) on first touch.
  JournalShard* touch_shard(const std::string& search_fp) {
    auto it = journal_shards.find(search_fp);
    if (it == journal_shards.end()) {
      if (opts.max_journal_shards > 0 &&
          journal_shards.size() >= opts.max_journal_shards) {
        auto victim = journal_shards.begin();
        for (auto jt = journal_shards.begin(); jt != journal_shards.end();
             ++jt) {
          if (jt->second.last_touch < victim->second.last_touch) victim = jt;
        }
        if (opts.verbose) {
          log::infof("runner_serve: evicting journal shard %s (%zu records)",
                     victim->first.c_str(), victim->second.by_seq.size());
        }
        store->remove_journal(victim->first);
        journal_shards.erase(victim);
      }
      it = journal_shards.emplace(search_fp, JournalShard{}).first;
    }
    it->second.last_touch = shard_touch_clock++;
    return &it->second;
  }

  std::uint64_t shard_records(const std::string& search_fp) const {
    auto it = journal_shards.find(search_fp);
    return it == journal_shards.end() ? 0 : it->second.by_seq.size();
  }

  void drop_session(Session* s) {
    s->dead = true;
    s->sock.close();
  }

  void send_frame(Session* s, const std::string& payload) {
    if (s->dead) return;
    if (!s->sock.send_all(runner::encode_frame(payload),
                          /*timeout_ms=*/10000)) {
      drop_session(s);
    }
  }

  void session_error(Session* s, const std::string& message) {
    ++stats->protocol_errors;
    send_frame(s, encode_error_msg(message));
    drop_session(s);
  }

  /// Builds (or reuses) the backend for a hello and acks the session.
  void handle_hello(Session* s, const HelloMsg& h) {
    HelloAckMsg ack;
    if (h.version != kProtocolVersion) {
      ack.error = strformat("protocol version mismatch: server %u, client %u",
                            kProtocolVersion, h.version);
      ++stats->sessions_rejected;
      send_frame(s, encode_hello_ack(ack));
      drop_session(s);
      return;
    }
    // The one sanctioned mismatch: jit requested on a host that cannot run
    // it downgrades to the (bit-identical) micro-op engine. The resolved
    // engine keys the backend, so a jit and a microop session on a jit-less
    // host share one pool.
    runner::SandboxSpec spec = h.spec;
    if (spec.engine == vm::Engine::kJit && !vm::jit::jit_supported()) {
      spec.engine = vm::Engine::kMicroOp;
      log::warnf("runner_serve: jit engine unavailable (%s); session %llu "
                 "runs on the micro-op engine",
                 vm::jit::jit_unsupported_reason(),
                 static_cast<unsigned long long>(s->id));
    }
    ack.engine = static_cast<std::uint8_t>(spec.engine);
    const std::string key = backend_key(h, spec);
    Backend* b = nullptr;
    auto it = backends.find(key);
    if (it != backends.end()) {
      b = it->second.get();
    } else {
      auto nb = std::make_unique<Backend>();
      std::string error;
      // Hello fields are remote input: a factory that throws on them
      // rejects this session, never the daemon.
      try {
        nb->wl = factory(h.bench, static_cast<char>(h.cls), &error);
      } catch (const std::exception& e) {
        error = strformat("cannot build workload: %s", e.what());
      }
      if (nb->wl == nullptr) {
        ack.error = error.empty() ? "unknown workload" : error;
        ++stats->sessions_rejected;
        send_frame(s, encode_hello_ack(ack));
        drop_session(s);
        return;
      }
      nb->verifier_fp = nb->wl->verifier->fingerprint();
      nb->builder = std::make_unique<verify::TrialBuilder>(
          nb->wl->image, nb->wl->index,
          static_cast<std::size_t>(std::max(1, opts.workers)));
      if (spec.has_fault) {
        nb->injector = std::make_unique<fault::Injector>(spec.fault_seed,
                                                         spec.fault_rates);
      }
      runner::PoolPlan plan = runner::plan_pool(spec);
      runner::WorkerContext ctx;
      ctx.image = &nb->wl->image;
      ctx.index = &nb->wl->index;
      ctx.verifier = nb->wl->verifier.get();
      ctx.eval = plan.eval;
      ctx.eval.builder = nb->builder.get();
      ctx.injector = nb->injector.get();
      plan.pool.workers = opts.workers;
      plan.pool.term_grace_ms = opts.term_grace_ms;
      nb->pool = std::make_unique<runner::WorkerPool>(ctx, plan.pool);
      if (!nb->pool->start()) {
        ack.error = "cannot spawn sandboxed workers on this host";
        ++stats->sessions_rejected;
        send_frame(s, encode_hello_ack(ack));
        drop_session(s);
        return;
      }
      nb->workers =
          static_cast<std::uint32_t>(nb->pool->stats().slots.size());
      b = nb.get();
      backends.emplace(key, std::move(nb));
      ++stats->backends;
      if (opts.verbose) {
        log::infof("runner_serve: backend %s.%c up (%u workers)",
                   h.bench.c_str(), static_cast<char>(h.cls), b->workers);
      }
    }
    s->backend = b;
    s->hello_done = true;
    s->search_fp = h.search_fp;
    s->shard_cache = h.shard_cache != 0;
    ack.ok = 1;
    ack.verifier_fp = b->verifier_fp;
    ack.workers = b->workers;
    ack.shard_records = shard_records(h.search_fp);
    ack.state_degraded = store->stats().degraded ? 1 : 0;
    ack.shards_reloaded = store->stats().shards_reloaded;
    ack.disk_faults = store->stats().disk_faults;
    send_frame(s, encode_hello_ack(ack));
  }

  /// Sends one result and trips the exit_after_results chaos hook.
  void send_result(Session* s, const ResultMsg& m) {
    send_frame(s, encode_result_msg(m));
    ++stats->trials_served;
    if (opts.exit_after_results > 0 &&
        stats->trials_served >= opts.exit_after_results) {
      exit_tripped = true;
    }
  }

  /// The verdict a shard_cache session's trial is answered with: one a
  /// journal line of its search_fp recorded, or nullptr (evaluate it).
  const verify::CachedTrial* shard_verdict(const Session* s,
                                           const std::string& key) const {
    if (!s->shard_cache) return nullptr;
    const auto shard = journal_shards.find(s->search_fp);
    if (shard == journal_shards.end()) return nullptr;
    const auto hit = shard->second.verdicts.find(key);
    return hit == shard->second.verdicts.end() ? nullptr : &hit->second;
  }

  void handle_trial(Session* s, const TrialMsg& m) {
    Backend* b = s->backend;
    if (const verify::CachedTrial* hit = shard_verdict(s, m.key)) {
      ++stats->shard_cache_hits;
      verify::EvalResult er;
      er.passed = hit->passed;
      er.failure_class = hit->failure_class;
      er.failure = hit->failure;
      ResultMsg r;
      r.ticket = m.ticket;
      r.flags = kResultCacheHit;
      r.wire_result = runner::encode_result(er);
      send_result(s, r);
      return;
    }
    config::PrecisionConfig cfg;
    if (!config::PrecisionConfig::from_canonical_key(m.config_key, &cfg)) {
      session_error(s, strformat("trial %s: malformed config key",
                                 m.key.c_str()));
      return;
    }
    const std::uint64_t ticket = b->next_ticket++;
    Backend::Route route;
    route.session_id = s->id;
    route.client_ticket = m.ticket;
    b->inflight.emplace(ticket, std::move(route));
    b->pool->submit(ticket, m.key, cfg);
  }

  /// Retains one streamed journal record. Damage (bad seal, unparseable
  /// seq) is *dropped*, not fatal: the replicated shard mirrors the local
  /// journal's torn-tail tolerance -- a reader skips the broken record, and
  /// the fleet-wide union from the other endpoints heals the gap.
  void handle_journal_append(Session* s, const JournalAppendMsg& m) {
    std::uint64_t seq = 0;
    if (check_seal(m.line) != SealCheck::kOk || !sealed_seq(m.line, &seq)) {
      ++stats->journal_rejected;
      return;
    }
    JournalShard* shard = touch_shard(s->search_fp);
    // Indexed before the seq dedupe: a second session under this search_fp
    // restarts at seq 1, and its verdicts are fleet knowledge all the same.
    shard->index(m.line);
    if (!shard->by_seq.emplace(seq, m.line).second) {
      ++stats->journal_duplicates;
      return;
    }
    ++stats->journal_appends;
    store->append_journal(s->search_fp, m.line);
    std::uint64_t evicted = 0;
    while (opts.max_shard_records > 0 &&
           shard->by_seq.size() > opts.max_shard_records) {
      shard->by_seq.erase(shard->by_seq.begin());
      ++shard->dropped;
      ++evicted;
    }
    if (evicted > 0) {
      store->note_evicted(s->search_fp, evicted, shard->by_seq);
    }
    mirror_store_stats();
  }

  /// Answers a gossip digest request over the session's retained shard.
  /// An endpoint with no shard answers the zero digest, which the
  /// scheduler reads as "missing everything".
  void handle_shard_digest(Session* s) {
    ++stats->digests;
    ShardDigestMsg d;
    const auto it = journal_shards.find(s->search_fp);
    if (it != journal_shards.end() && !it->second.by_seq.empty()) {
      it->second.last_touch = shard_touch_clock++;
      d.max_seq = it->second.by_seq.rbegin()->first;
      d.seq_crc = seq_set_crc(it->second.by_seq, d.max_seq, &d.records);
    }
    send_frame(s, encode_shard_digest_ack(d));
  }

  /// Streams the whole retained shard back as JournalTail chunks. Chunked
  /// so a large history never produces one unbounded frame; the client
  /// reassembles until done=1.
  void handle_journal_fetch(Session* s) {
    ++stats->journal_fetches;
    const auto it = journal_shards.find(s->search_fp);
    JournalTailMsg chunk;
    chunk.total = it == journal_shards.end() ? 0 : it->second.by_seq.size();
    constexpr std::size_t kLinesPerChunk = 256;
    if (it != journal_shards.end()) {
      it->second.last_touch = shard_touch_clock++;
      for (const auto& [seq, line] : it->second.by_seq) {
        chunk.lines.push_back(line);
        if (chunk.lines.size() >= kLinesPerChunk) {
          send_frame(s, encode_journal_tail(chunk));
          chunk.lines.clear();
          if (s->dead) return;
        }
      }
    }
    chunk.done = 1;
    send_frame(s, encode_journal_tail(chunk));
  }

  void handle_payload(Session* s, const std::string& payload) {
    const std::uint8_t type = peek_msg_type(payload);
    if (!s->hello_done) {
      HelloMsg h;
      if (type != kMsgHello || !decode_hello(payload, &h)) {
        session_error(s, "expected hello");
        return;
      }
      handle_hello(s, h);
      return;
    }
    switch (type) {
      case kMsgTrial: {
        TrialMsg m;
        if (!decode_trial(payload, &m)) {
          session_error(s, "malformed trial message");
          return;
        }
        handle_trial(s, m);
        return;
      }
      case kMsgJournalAppend: {
        JournalAppendMsg m;
        if (!decode_journal_append(payload, &m)) {
          session_error(s, "malformed journal-append message");
          return;
        }
        handle_journal_append(s, m);
        return;
      }
      case kMsgJournalFetch: {
        if (!decode_journal_fetch(payload)) {
          session_error(s, "malformed journal-fetch message");
          return;
        }
        handle_journal_fetch(s);
        return;
      }
      case kMsgShardDigest: {
        if (!decode_shard_digest(payload)) {
          session_error(s, "malformed shard-digest message");
          return;
        }
        handle_shard_digest(s);
        return;
      }
      case kMsgPing: {
        PingMsg m;
        if (!decode_ping(payload, &m)) {
          session_error(s, "malformed ping message");
          return;
        }
        ++stats->pings;
        PongMsg pong;
        pong.nonce = m.nonce;
        pong.t_send_ns = m.t_send_ns;
        send_frame(s, encode_pong(pong));
        return;
      }
      case kMsgError: {
        drop_session(s);
        return;
      }
      default:
        session_error(s, strformat("unexpected message type %u",
                                   static_cast<unsigned>(type)));
    }
  }

  /// Routes finished pool work back to sessions.
  void pump_backends() {
    for (auto& [key, b] : backends) {
      if (b->pool == nullptr || b->pool->idle()) continue;
      b->pool->pump(0);
      for (runner::WorkerPool::Finished& f : b->pool->take_finished()) {
        auto rit = b->inflight.find(f.ticket);
        if (rit == b->inflight.end()) continue;
        Backend::Route route = std::move(rit->second);
        b->inflight.erase(rit);
        auto sit = sessions.find(route.session_id);
        if (sit == sessions.end() || sit->second->dead) continue;
        ResultMsg r;
        r.ticket = route.client_ticket;
        if (f.outcome.quarantined) r.flags |= kResultQuarantined;
        r.worker_deaths = f.outcome.worker_deaths;
        r.wall_ns = f.outcome.wall_ns;
        r.wire_result = runner::encode_result(f.outcome.result);
        send_result(sit->second.get(), r);
      }
    }
  }
};

RunnerServer::RunnerServer(Listener listener, WorkloadFactory factory,
                           const ServerOptions& opts)
    : impl_(std::make_unique<Impl>()) {
  impl_->listener = std::move(listener);
  impl_->factory = std::move(factory);
  impl_->opts = opts;
  impl_->stats = &stats_;
  ShardStoreOptions sopts;
  sopts.dir = opts.state_dir;
  sopts.fsync = opts.state_fsync;
  sopts.chaos = opts.disk_chaos;
  sopts.verbose = opts.verbose;
  impl_->store = std::make_unique<ShardStore>(sopts);
  impl_->reload_state();
}

RunnerServer::~RunnerServer() = default;

std::uint16_t RunnerServer::port() const { return impl_->listener.port(); }

void RunnerServer::serve(const std::atomic<bool>* stop) {
#if !FPMIX_NET_POSIX
  (void)stop;
  return;
#else
  Impl& im = *impl_;
  std::string scratch;
  while (!(stop != nullptr && stop->load()) && !im.exit_tripped) {
    // ---- Assemble the poll set: listener + sessions + worker pipes. ----
    std::vector<pollfd> fds;
    fds.push_back(pollfd{im.listener.fd(), POLLIN, 0});
    std::vector<Impl::Session*> fd_sessions;
    for (auto& [id, s] : im.sessions) {
      if (s->dead) continue;
      fds.push_back(pollfd{s->sock.fd(), POLLIN, 0});
      fd_sessions.push_back(s.get());
    }
    const std::size_t pool_fd_base = fds.size();
    std::uint64_t pool_deadline = 0;
    for (auto& [key, b] : im.backends) {
      std::vector<int> pfds;
      b->pool->poll_fds(&pfds);
      for (int fd : pfds) fds.push_back(pollfd{fd, POLLIN, 0});
      const std::uint64_t d = b->pool->next_deadline_ns();
      if (d != 0 && (pool_deadline == 0 || d < pool_deadline)) {
        pool_deadline = d;
      }
    }
    (void)pool_fd_base;

    // Wake a few times a second to check the stop flag; earlier when a
    // supervised trial's deadline comes first.
    int timeout_ms = 200;
    if (pool_deadline != 0) {
      const std::uint64_t now_ns = steady_ns();
      const int until =
          pool_deadline > now_ns
              ? static_cast<int>((pool_deadline - now_ns) / 1000000ull) + 1
              : 0;
      if (until < timeout_ms) timeout_ms = until;
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    // ---- Accept new sessions. ----
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        Socket sock = im.listener.accept_connection();
        if (!sock.valid()) break;
        if (im.opts.max_sessions > 0 &&
            im.sessions.size() >= im.opts.max_sessions) {
          // Reject above the cap before any backend work: an error frame
          // the client surfaces, then close.
          ++stats_.sessions_rejected;
          sock.send_all(runner::encode_frame(
                            encode_error_msg("session limit reached")),
                        /*timeout_ms=*/1000);
          sock.close();
          continue;
        }
        auto s = std::make_unique<Impl::Session>();
        s->id = im.next_session_id++;
        s->sock = std::move(sock);
        s->last_active_ms = steady_ms();
        ++stats_.sessions_accepted;
        if (im.opts.verbose) {
          log::infof("runner_serve: session %llu connected",
                     static_cast<unsigned long long>(s->id));
        }
        im.sessions.emplace(s->id, std::move(s));
      }
    }

    // ---- Drain session sockets and process complete frames. ----
    for (Impl::Session* s : fd_sessions) {
      scratch.clear();
      const IoStatus st = s->sock.read_available(&scratch);
      if (!scratch.empty()) {
        s->fb.append(scratch);
        s->last_active_ms = steady_ms();
      }
      if (st == IoStatus::kError || st == IoStatus::kEof) im.drop_session(s);
      for (;;) {
        std::string payload;
        const FrameStatus fst = s->fb.next(&payload);
        if (fst == FrameStatus::kNeedMore) break;
        if (fst == FrameStatus::kCorrupt) {
          im.session_error(s, "corrupt frame");
          break;
        }
        im.handle_payload(s, payload);
        if (s->dead) break;
      }
    }

    // ---- Run the pools and route finished trials. ----
    im.pump_backends();

    // ---- Reap idle sessions (their journal shard survives them). ----
    if (im.opts.idle_timeout_ms > 0) {
      const std::uint64_t now_ms = steady_ms();
      for (auto& [id, s] : im.sessions) {
        if (s->dead || now_ms - s->last_active_ms < im.opts.idle_timeout_ms) {
          continue;
        }
        ++stats_.sessions_reaped;
        log::infof("runner_serve: reaping idle session %llu (search_fp %s, "
                   "%llu retained journal records)",
                   static_cast<unsigned long long>(id),
                   s->search_fp.empty() ? "-" : s->search_fp.c_str(),
                   static_cast<unsigned long long>(
                       im.shard_records(s->search_fp)));
        im.drop_session(s.get());
      }
    }

    // ---- Reap dead sessions. ----
    for (auto it = im.sessions.begin(); it != im.sessions.end();) {
      if (it->second->dead) {
        if (im.opts.verbose) {
          log::infof("runner_serve: session %llu closed",
                     static_cast<unsigned long long>(it->first));
        }
        it = im.sessions.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Teardown: closing the listener and every session socket is the
  // "endpoint died" signal clients react to (exit_after_results chaos
  // hook, daemon shutdown). Pools die with their backends.
  im.listener.close();
  for (auto& [id, s] : im.sessions) s->sock.close();
  im.sessions.clear();
  im.mirror_store_stats();
#endif
}

}  // namespace fpmix::net
