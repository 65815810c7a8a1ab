// The distributed search service: session protocol, sockets, the runner
// daemon, the network scheduler, and the search running across a fleet.
//
// Seven layers:
//  1. protocol -- every message round-trips as a pure function, the frame
//     buffer reassembles byte-dribbled streams, and corruption is a sticky
//     *detected* session error, never a wrong payload;
//  2. sockets -- endpoint parsing and frames surviving partial reads and
//     partial writes over a real loopback connection;
//  3. scheduler -- remote batches match in-process verdicts; an endpoint
//     dying mid-trial reroutes its in-flight work to surviving shards or
//     quarantines it as kCrash once the crash budget is spent;
//  4. search equivalence -- a fleet-served search must produce journals
//     byte-identical to the in-process path, degrade to local execution
//     when no endpoint is reachable, and keep every accepted trial across
//     an endpoint death mid-search;
//  5. the acceptance soak -- seeded hard-fault campaigns driven through a
//     two-endpoint fleet, each asserted byte-identical to the local
//     isolated oracle under the same campaign;
//  6. failover -- replicated journal shards survive session death and
//     reject torn lines, heartbeats measure RTT and expire leases,
//     duplicate results are discarded never double-voted, and a scheduler
//     SIGKILLed mid-search is adopted (--adopt) byte-identically under
//     clean, endpoint-death, and seeded network-chaos campaigns;
//  7. durability -- a daemon's journal shards (and the shard-cache
//     verdicts their trial lines give) persist under --state-dir, a
//     protocol-v8 verdict file beside them is ignored, and they survive
//     SIGKILL + restart (torn tails and
//     corrupt records healed at reload), anti-entropy gossip re-streams
//     whatever a shard digest shows missing, an unwritable state dir
//     degrades to in-memory with the degradation announced in the hello
//     ack, and seeded disk-fault campaigns stay byte-identical to the
//     clean oracle.
//
// The soak's campaign count scales via FPMIX_SOAK_CAMPAIGNS (CI sets 200).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/textio.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "runner/trial_runner.hpp"
#include "runner/wire.hpp"
#include "search/scheduler.hpp"
#include "search/search.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/journal.hpp"
#include "verify/evaluate.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace fpmix {
namespace {

using config::Precision;
using lang::Builder;
using lang::Expr;

// ---------------------------------------------------------------------------
// Session protocol: pure functions, no sockets.

TEST(NetProtocol, HelloRoundTripPreservesFaultCampaign) {
  net::HelloMsg h;
  h.bench = "cg";
  h.cls = 'A';
  h.shard_cache = 1;
  h.search_fp = "fp:abc|v1";
  runner::SandboxSpec& sp = h.spec;
  sp.engine = vm::Engine::kJit;
  sp.max_instructions = 123456789;
  sp.deadline_ms = 250;
  sp.max_crashes = 7;
  sp.rlimit_mb = 64;
  sp.has_fault = true;
  sp.fault_seed = 0xDEADBEEFCAFEull;
  // Twelve distinct rates, so a swapped pair cannot round-trip unnoticed.
  std::array<double, 12> rates{};
  for (std::size_t i = 0; i < rates.size(); ++i) {
    rates[i] = 1.0 / static_cast<double>(i + 3);  // 1/3: non-terminating
  }
  sp.fault_rates = fault::Injector::Rates::from_values(rates);

  const std::string payload = net::encode_hello(h);
  EXPECT_EQ(net::peek_msg_type(payload), net::kMsgHello);

  net::HelloMsg back;
  ASSERT_TRUE(net::decode_hello(payload, &back));
  EXPECT_EQ(back.version, net::kProtocolVersion);
  EXPECT_EQ(back.bench, h.bench);
  EXPECT_EQ(back.cls, h.cls);
  EXPECT_EQ(back.shard_cache, h.shard_cache);
  EXPECT_EQ(back.search_fp, h.search_fp);
  const runner::SandboxSpec& bs = back.spec;
  EXPECT_EQ(bs.engine, sp.engine);
  EXPECT_EQ(bs.max_instructions, sp.max_instructions);
  EXPECT_EQ(bs.deadline_ms, sp.deadline_ms);
  EXPECT_EQ(bs.max_crashes, sp.max_crashes);
  EXPECT_EQ(bs.rlimit_mb, sp.rlimit_mb);
  EXPECT_EQ(bs.has_fault, sp.has_fault);
  EXPECT_EQ(bs.fault_seed, sp.fault_seed);
  // Rates ship as raw bit patterns: bit-exact, both sides re-derive the
  // same per-trial draws.
  const std::array<double, 12> got = bs.fault_rates.values();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(rates[i]))
        << "rate " << i;
  }
  EXPECT_EQ(bs.fault_rates.abort, rates[0]);
  EXPECT_EQ(bs.fault_rates.corrupt_result, rates[11]);

  // An unknown engine byte is a malformed hello, not a guess.
  std::string bad = payload;
  const std::size_t engine_at = 1 + 4 + (4 + h.bench.size()) + 1 + 1 +
                                (4 + h.search_fp.size());
  ASSERT_EQ(bad[engine_at], static_cast<char>(vm::Engine::kJit));
  bad[engine_at] = 9;
  EXPECT_FALSE(net::decode_hello(bad, &back));

  // A message of the wrong type never decodes as another.
  net::TrialMsg t;
  EXPECT_FALSE(net::decode_trial(payload, &t));
}

TEST(NetProtocol, AckTrialResultErrorRoundTrip) {
  net::HelloAckMsg ack;
  ack.ok = 1;
  ack.verifier_fp = "relerr:1e-12:9";
  ack.workers = 4;
  net::HelloAckMsg ack_back;
  ASSERT_TRUE(net::decode_hello_ack(net::encode_hello_ack(ack), &ack_back));
  EXPECT_EQ(ack_back.ok, 1);
  EXPECT_EQ(ack_back.verifier_fp, ack.verifier_fp);
  EXPECT_EQ(ack_back.workers, 4u);

  net::HelloAckMsg rej;
  rej.ok = 0;
  rej.error = "unknown benchmark 'zz'";
  ASSERT_TRUE(net::decode_hello_ack(net::encode_hello_ack(rej), &ack_back));
  EXPECT_EQ(ack_back.ok, 0);
  EXPECT_EQ(ack_back.error, rej.error);

  net::TrialMsg trial;
  trial.ticket = 42;
  trial.key = "cfg-digest-abc";
  trial.config_key = "m0=s;f3=d;i12=i;";
  net::TrialMsg trial_back;
  ASSERT_TRUE(net::decode_trial(net::encode_trial(trial), &trial_back));
  EXPECT_EQ(trial_back.ticket, 42u);
  EXPECT_EQ(trial_back.key, trial.key);
  EXPECT_EQ(trial_back.config_key, trial.config_key);

  verify::EvalResult wr;
  wr.passed = false;
  wr.failure_class = verify::FailureClass::kDivergence;
  wr.failure = "relative error 3.1e-7 at output 1";
  wr.instructions_retired = 987654;
  net::ResultMsg res;
  res.ticket = 7;
  res.flags = net::kResultQuarantined | net::kResultCacheHit;
  res.worker_deaths = 2;
  res.wall_ns = 12345678;
  res.wire_result = runner::encode_result(wr);
  net::ResultMsg res_back;
  ASSERT_TRUE(net::decode_result_msg(net::encode_result_msg(res), &res_back));
  EXPECT_EQ(res_back.ticket, 7u);
  EXPECT_EQ(res_back.flags, res.flags);
  EXPECT_EQ(res_back.worker_deaths, 2u);
  EXPECT_EQ(res_back.wall_ns, res.wall_ns);
  verify::EvalResult wr_back;
  ASSERT_TRUE(runner::decode_result(res_back.wire_result, &wr_back));
  EXPECT_EQ(wr_back.passed, wr.passed);
  EXPECT_EQ(wr_back.failure_class, wr.failure_class);
  EXPECT_EQ(wr_back.failure, wr.failure);
  EXPECT_EQ(wr_back.instructions_retired, wr.instructions_retired);

  std::string text;
  ASSERT_TRUE(
      net::decode_error_msg(net::encode_error_msg("session torn"), &text));
  EXPECT_EQ(text, "session torn");
}

TEST(NetProtocol, FrameBufferReassemblesByteDribbledStream) {
  const std::vector<std::string> payloads = {
      net::encode_hello(net::HelloMsg{}),
      net::encode_trial(net::TrialMsg{9, "k", "m0=s;"}),
      net::encode_error_msg("x")};
  std::string stream;
  for (const std::string& p : payloads) stream += runner::encode_frame(p);

  net::FrameBuffer fb;
  std::vector<std::string> got;
  std::string payload;
  for (char c : stream) {
    fb.append(std::string_view(&c, 1));
    while (fb.next(&payload) == runner::FrameStatus::kOk) {
      got.push_back(payload);
    }
  }
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got[i], payloads[i]) << i;
  }
  EXPECT_EQ(fb.buffered(), 0u);
  EXPECT_FALSE(fb.corrupt());
}

TEST(NetProtocol, SingleByteCorruptionIsStickyAndNeverResyncs) {
  const std::string good = runner::encode_frame(
      net::encode_trial(net::TrialMsg{1, "key", "m0=s;"}));
  // Damage the first payload byte (the message type): magic and length
  // still parse, so only the CRC can catch it.
  std::string bad = good;
  bad[8] = static_cast<char>(bad[8] ^ 0x20);

  net::FrameBuffer fb;
  fb.append(bad);
  std::string payload;
  EXPECT_EQ(fb.next(&payload), runner::FrameStatus::kCorrupt);
  EXPECT_TRUE(fb.corrupt());

  // No resynchronization: even a pristine frame after the damage stays
  // unreadable -- the connection must be dropped.
  fb.append(good);
  EXPECT_EQ(fb.next(&payload), runner::FrameStatus::kCorrupt);
  EXPECT_TRUE(fb.corrupt());
}

TEST(NetProtocol, JournalStreamingMessagesRoundTrip) {
  // HelloAck carries the endpoint's retained-shard size, so an adopting
  // scheduler knows before fetching whether the fleet holds any history.
  net::HelloAckMsg ack;
  ack.ok = 1;
  ack.verifier_fp = "relerr:1e-12:9";
  ack.workers = 2;
  ack.shard_records = 12345;
  net::HelloAckMsg ack_back;
  ASSERT_TRUE(net::decode_hello_ack(net::encode_hello_ack(ack), &ack_back));
  EXPECT_EQ(ack_back.shard_records, 12345u);

  // JournalAppend ships the sealed line byte-exactly: the seal (seq + CRC)
  // is the integrity check on the far side, so nothing may reformat it.
  net::JournalAppendMsg app;
  app.line = seal_record("{\"type\":\"trial\",\"key\":\"abc\"}", 7);
  net::JournalAppendMsg app_back;
  ASSERT_TRUE(
      net::decode_journal_append(net::encode_journal_append(app), &app_back));
  EXPECT_EQ(app_back.line, app.line);
  EXPECT_EQ(check_seal(app_back.line), SealCheck::kOk);

  EXPECT_TRUE(net::decode_journal_fetch(net::encode_journal_fetch()));

  net::JournalTailMsg tail;
  tail.total = 3;
  tail.done = 1;
  tail.lines = {seal_record("{\"a\":1}", 1), seal_record("{\"b\":2}", 2)};
  net::JournalTailMsg tail_back;
  ASSERT_TRUE(
      net::decode_journal_tail(net::encode_journal_tail(tail), &tail_back));
  EXPECT_EQ(tail_back.total, 3u);
  EXPECT_EQ(tail_back.done, 1);
  ASSERT_EQ(tail_back.lines.size(), 2u);
  EXPECT_EQ(tail_back.lines[0], tail.lines[0]);
  EXPECT_EQ(tail_back.lines[1], tail.lines[1]);

  net::PingMsg ping;
  ping.nonce = 42;
  ping.t_send_ns = 998877665544332211ull;
  net::PingMsg ping_back;
  ASSERT_TRUE(net::decode_ping(net::encode_ping(ping), &ping_back));
  EXPECT_EQ(ping_back.nonce, 42u);
  EXPECT_EQ(ping_back.t_send_ns, ping.t_send_ns);

  net::PongMsg pong;
  pong.nonce = 42;
  pong.t_send_ns = ping.t_send_ns;
  net::PongMsg pong_back;
  ASSERT_TRUE(net::decode_pong(net::encode_pong(pong), &pong_back));
  EXPECT_EQ(pong_back.nonce, 42u);
  EXPECT_EQ(pong_back.t_send_ns, pong.t_send_ns);

  // Cross-type decodes fail: a ping never decodes as a pong or an append.
  EXPECT_FALSE(net::decode_pong(net::encode_ping(ping), &pong_back));
  EXPECT_FALSE(
      net::decode_journal_append(net::encode_ping(ping), &app_back));
  EXPECT_FALSE(net::decode_journal_fetch(net::encode_ping(ping)));
}

TEST(NetProtocol, ShardDigestMessagesAndSeqSetCrc) {
  // The v4 HelloAck announces the endpoint's durability health.
  net::HelloAckMsg ack;
  ack.ok = 1;
  ack.verifier_fp = "relerr:1e-12:9";
  ack.workers = 2;
  ack.state_degraded = 1;
  ack.shards_reloaded = 7;
  ack.disk_faults = 3;
  net::HelloAckMsg ack_back;
  ASSERT_TRUE(net::decode_hello_ack(net::encode_hello_ack(ack), &ack_back));
  EXPECT_EQ(ack_back.state_degraded, 1);
  EXPECT_EQ(ack_back.shards_reloaded, 7u);
  EXPECT_EQ(ack_back.disk_faults, 3u);

  EXPECT_TRUE(net::decode_shard_digest(net::encode_shard_digest()));
  EXPECT_FALSE(net::decode_shard_digest(net::encode_journal_fetch()));

  net::ShardDigestMsg d;
  d.records = 42;
  d.max_seq = 99;
  d.seq_crc = 0xDEADBEEF;
  net::ShardDigestMsg d_back;
  ASSERT_TRUE(net::decode_shard_digest_ack(net::encode_shard_digest_ack(d),
                                           &d_back));
  EXPECT_EQ(d_back.records, 42u);
  EXPECT_EQ(d_back.max_seq, 99u);
  EXPECT_EQ(d_back.seq_crc, 0xDEADBEEFu);
  EXPECT_FALSE(
      net::decode_shard_digest_ack(net::encode_shard_digest(), &d_back));

  // seq_set_crc is a pure function of the *sequence numbers* present, so
  // two replicas agree exactly when they hold the same record set.
  std::map<std::uint64_t, std::string> a;
  a[1] = "x";
  a[2] = "y";
  a[3] = "z";
  std::uint64_t n = 0;
  const std::uint32_t full = net::seq_set_crc(a, 3, &n);
  EXPECT_EQ(n, 3u);

  std::map<std::uint64_t, std::string> b;
  b[1] = "completely";
  b[2] = "different";
  b[3] = "payloads";
  const std::uint32_t same_seqs = net::seq_set_crc(b, 3, &n);
  EXPECT_EQ(same_seqs, full);  // digests cover presence, not bytes

  // The prefix digest is what tail-gap detection compares: a replica that
  // holds exactly seqs 1..2 digests identically to our 1..2 prefix.
  const std::uint32_t prefix = net::seq_set_crc(a, 2, &n);
  EXPECT_EQ(n, 2u);
  EXPECT_NE(prefix, full);
  b.erase(3);
  EXPECT_EQ(net::seq_set_crc(b, 99, &n), prefix);

  // An interior hole changes the digest even at equal count and max seq.
  std::map<std::uint64_t, std::string> holey;
  holey[1] = "x";
  holey[3] = "z";
  std::uint64_t holey_n = 0;
  const std::uint32_t holey_crc = net::seq_set_crc(holey, 3, &holey_n);
  EXPECT_EQ(holey_n, 2u);
  EXPECT_NE(holey_crc, prefix);
}

TEST(NetProtocol, DiskChaosIsDeterministicPerSeedFileAndOp) {
  fault::DiskChaos::Rates rates;
  rates.short_write = 0.1;
  rates.torn_record = 0.1;
  rates.fsync_fail = 0.1;
  rates.enospc = 0.05;
  rates.unreadable = 0.5;
  const fault::DiskChaos chaos(0xD15CFA11, rates);

  // Same (seed, file, op) -> same draw, every time: a daemon restarted
  // under the identical campaign re-derives the identical fault schedule.
  for (std::uint64_t op = 0; op < 200; ++op) {
    EXPECT_EQ(chaos.for_op("shard-abc.jsonl", op),
              chaos.for_op("shard-abc.jsonl", op));
  }
  // Different files and different seeds draw independently.
  const fault::DiskChaos other(0xD15CFA12, rates);
  std::size_t file_diff = 0;
  std::size_t seed_diff = 0;
  for (std::uint64_t op = 0; op < 200; ++op) {
    if (chaos.for_op("shard-abc.jsonl", op) !=
        chaos.for_op("shard-def.jsonl", op)) {
      ++file_diff;
    }
    if (chaos.for_op("shard-abc.jsonl", op) !=
        other.for_op("shard-abc.jsonl", op)) {
      ++seed_diff;
    }
  }
  EXPECT_GT(file_diff, 0u);
  EXPECT_GT(seed_diff, 0u);

  // Op 0 is the reload probe: only "unreadable" may fire there, and
  // append ops (>= 1) never draw it -- a fault taxonomy where each fault
  // lands on the operation it models.
  std::size_t unreadable_at_reload = 0;
  for (std::uint64_t f = 0; f < 64; ++f) {
    const std::string name = "shard-" + std::to_string(f) + ".jsonl";
    const fault::DiskFault at0 = chaos.for_op(name, 0);
    EXPECT_TRUE(at0 == fault::DiskFault::kNone ||
                at0 == fault::DiskFault::kUnreadable);
    if (at0 == fault::DiskFault::kUnreadable) ++unreadable_at_reload;
    for (std::uint64_t op = 1; op < 50; ++op) {
      EXPECT_NE(chaos.for_op(name, op), fault::DiskFault::kUnreadable);
    }
  }
  EXPECT_GT(unreadable_at_reload, 0u);  // rate 0.5 over 64 files

  // Zero rates never fault.
  const fault::DiskChaos clean(1, fault::DiskChaos::Rates{});
  for (std::uint64_t op = 0; op < 100; ++op) {
    EXPECT_EQ(clean.for_op("shard-abc.jsonl", op), fault::DiskFault::kNone);
  }
}

TEST(NetProtocol, AtomicReplaceWritesWholeFileOrNothing) {
  const std::string path = testing::TempDir() + "atomic_replace_test.txt";
  std::remove(path.c_str());
  std::string error;
  ASSERT_TRUE(atomic_replace(path, "first\n", &error)) << error;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    EXPECT_EQ(ss.str(), "first\n");
  }
  // Replacing an existing file swaps contents atomically (tmp + rename);
  // the tmp file never lingers.
  ASSERT_TRUE(atomic_replace(path, "second\n", &error)) << error;
  {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    EXPECT_EQ(ss.str(), "second\n");
  }
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
  // A destination whose directory does not exist fails cleanly.
  EXPECT_FALSE(atomic_replace(testing::TempDir() + "no_such_dir/x.txt",
                              "data", &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Sockets.

TEST(NetSocket, ParseEndpoint) {
  net::Endpoint ep;
  ASSERT_TRUE(net::parse_endpoint("10.0.0.7:9000", &ep));
  EXPECT_EQ(ep.host, "10.0.0.7");
  EXPECT_EQ(ep.port, 9000);
  EXPECT_EQ(ep.str(), "10.0.0.7:9000");

  ASSERT_TRUE(net::parse_endpoint(":4500", &ep));
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 4500);

  EXPECT_FALSE(net::parse_endpoint("no-port-here", &ep));
  EXPECT_FALSE(net::parse_endpoint("h:0", &ep));
  EXPECT_FALSE(net::parse_endpoint("h:65536", &ep));
  EXPECT_FALSE(net::parse_endpoint("h:notaport", &ep));
  EXPECT_FALSE(net::parse_endpoint("", &ep));
}

#if defined(__unix__) || defined(__APPLE__)

/// Pumps a socket until the frame buffer yields one payload (bounded).
std::string read_one_frame(net::Socket* s, net::FrameBuffer* fb) {
  std::string payload;
  for (int i = 0; i < 2000; ++i) {
    if (fb->next(&payload) == runner::FrameStatus::kOk) return payload;
    std::string chunk;
    const net::IoStatus st = s->read_available(&chunk);
    if (st == net::IoStatus::kOk) {
      fb->append(chunk);
    } else if (st == net::IoStatus::kWouldBlock) {
      ::poll(nullptr, 0, 2);
    } else {
      break;
    }
  }
  ADD_FAILURE() << "no frame arrived";
  return std::string();
}

TEST(NetSocket, FramesSurvivePartialReadsAndWritesOverLoopback) {
  if (!net::supported()) GTEST_SKIP() << "no sockets on this platform";
  net::Listener listener;
  std::string error;
  ASSERT_TRUE(listener.listen_on("127.0.0.1", 0, &error)) << error;
  ASSERT_GT(listener.port(), 0);

  net::Endpoint ep;
  ep.port = listener.port();
  net::Socket client = net::connect_to(ep, 2000, &error);
  ASSERT_TRUE(client.valid()) << error;

  net::Socket server;
  for (int i = 0; i < 500 && !server.valid(); ++i) {
    server = listener.accept_connection();
    if (!server.valid()) ::poll(nullptr, 0, 2);
  }
  ASSERT_TRUE(server.valid());

  // Client -> server, one byte per send: the reader sees an arbitrarily
  // fragmented stream and must still reassemble the exact payload.
  const std::string payload =
      net::encode_trial(net::TrialMsg{77, "digest", "f1=s;"});
  const std::string frame = runner::encode_frame(payload);
  for (char c : frame) {
    ASSERT_TRUE(client.send_all(std::string_view(&c, 1), 1000));
  }
  net::FrameBuffer server_fb;
  EXPECT_EQ(read_one_frame(&server, &server_fb), payload);

  // Server -> client, whole frame at once.
  const std::string reply = net::encode_error_msg("pong");
  ASSERT_TRUE(server.send_all(runner::encode_frame(reply), 1000));
  net::FrameBuffer client_fb;
  EXPECT_EQ(read_one_frame(&client, &client_fb), reply);

  // Orderly shutdown surfaces as EOF, not an error.
  server.close();
  std::string rest;
  for (int i = 0; i < 500; ++i) {
    const net::IoStatus st = client.read_available(&rest);
    if (st == net::IoStatus::kWouldBlock) {
      ::poll(nullptr, 0, 2);
      continue;
    }
    EXPECT_EQ(st, net::IoStatus::kEof);
    break;
  }
}

#endif  // POSIX sockets

// ---------------------------------------------------------------------------
// The served workload: same mixed-sensitivity shape as the isolation
// tests -- a narrowable floor() chain plus a precision-critical tail, so
// searches descend through several levels.

struct NetWorkload {
  program::Image image;
  config::StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

NetWorkload make_workload() {
  Builder b;
  b.begin_func("main", "m");
  auto good = b.var_f64("good");
  auto bad = b.var_f64("bad");
  b.set(good, b.cf(0.0));
  for (int k = 0; k < 10; ++k) {
    b.set(good, floor_(Expr(good) + b.cf(1.0 + k)));
  }
  b.set(bad, b.cf(1.0) / b.cf(3.0) + b.cf(1.0) / b.cf(7.0));
  b.output(good);
  b.output(bad);
  b.end_func();

  NetWorkload w{program::relayout(lang::compile(b.take_model(),
                                                lang::Mode::kDouble)),
                {}, nullptr};
  w.index = config::StructureIndex::build(program::lift(w.image));
  std::vector<double> ref = verify::reference_outputs(w.image);
  w.verifier = std::make_unique<verify::RelativeErrorVerifier>(std::move(ref),
                                                               1e-12);
  return w;
}

std::string temp_journal(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

#define SKIP_WITHOUT_NET()                                          \
  if (!net::supported() || !runner::isolation_supported()) {        \
    GTEST_SKIP() << "sockets or fork unavailable on this platform"; \
  }

#if defined(__unix__) || defined(__APPLE__)

/// The test fleet serves the "iso" workload; "throw" makes the factory
/// throw, and any other name goes through kernels::make_workload as
/// runner_serve's factory does.
std::unique_ptr<net::ServedWorkload> serve_factory(const std::string& bench,
                                                   char cls,
                                                   std::string* error) {
  if (bench == "throw") throw Error("factory failure");
  if (bench != "iso") {
    const std::optional<kernels::Workload> k =
        kernels::make_workload(bench, cls);
    if (!k) {
      if (error != nullptr) *error = "unknown benchmark '" + bench + "'";
      return nullptr;
    }
    auto out = std::make_unique<net::ServedWorkload>();
    out->image = kernels::build_image(*k);
    out->index = config::StructureIndex::build(program::lift(out->image));
    out->verifier = kernels::make_verifier(*k, out->image);
    return out;
  }
  NetWorkload w = make_workload();
  auto out = std::make_unique<net::ServedWorkload>();
  out->image = std::move(w.image);
  out->index = config::StructureIndex::build(program::lift(out->image));
  out->verifier = std::move(w.verifier);
  return out;
}

/// A RunnerServer forked into a child process. Forking keeps the daemon's
/// single-threaded-loop-that-forks-workers discipline intact (the gtest
/// parent may spin up search threads), and killing the child IS the
/// endpoint-death fault the failover tests exercise.
struct ServerProc {
  net::Endpoint ep;
  pid_t pid = -1;

  ServerProc() = default;
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;
  ServerProc(ServerProc&& o) noexcept : ep(o.ep), pid(o.pid) { o.pid = -1; }
  ServerProc& operator=(ServerProc&& o) noexcept {
    stop();
    ep = o.ep;
    pid = o.pid;
    o.pid = -1;
    return *this;
  }

  void stop() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }
  /// Shuts the daemon down cleanly and returns its exit status: the number
  /// of backends it built (ServerStats::backends), or -1 on an abnormal
  /// exit.
  int terminate() {
    if (pid <= 0) return -1;
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  ~ServerProc() { stop(); }
};

struct SpawnOpts {
  int workers = 2;
  std::uint64_t exit_after = 0;
  std::size_t max_sessions = 0;
  std::uint64_t idle_timeout_ms = 0;
  /// Durable-state knobs: shard/cache persistence under this directory,
  /// optionally under a seeded disk-fault campaign.
  std::string state_dir;
  const fault::DiskChaos* disk_chaos = nullptr;
  /// 0 binds a kernel-assigned port; nonzero rebinds a specific one (the
  /// restart-on-the-same-endpoint path; SO_REUSEADDR makes this race-free
  /// once the predecessor is reaped).
  std::uint16_t port = 0;
};

ServerProc spawn_server_with(const SpawnOpts& o, bool allow_bind_fail = false) {
  net::Listener listener;
  std::string error;
  if (!listener.listen_on("127.0.0.1", o.port, &error)) {
    if (!allow_bind_fail) ADD_FAILURE() << "listen: " << error;
    return ServerProc{};
  }
  ServerProc sp;
  sp.ep.port = listener.port();
  sp.pid = ::fork();
  if (sp.pid == 0) {
    net::ServerOptions sopts;
    sopts.workers = o.workers;
    sopts.exit_after_results = o.exit_after;
    if (o.max_sessions > 0) sopts.max_sessions = o.max_sessions;
    if (o.idle_timeout_ms > 0) sopts.idle_timeout_ms = o.idle_timeout_ms;
    sopts.state_dir = o.state_dir;
    sopts.disk_chaos = o.disk_chaos;
    static std::atomic<bool> stop{false};
    std::signal(SIGTERM, [](int) { stop.store(true); });
    net::RunnerServer server(std::move(listener), serve_factory, sopts);
    server.serve(&stop);
    std::_Exit(static_cast<int>(
        std::min<std::uint64_t>(server.stats().backends, 255)));
  }
  // The parent's copy of the listener fd closes with the local object; the
  // child keeps its own.
  return sp;
}

ServerProc spawn_server(int workers, std::uint64_t exit_after = 0,
                        std::size_t max_sessions = 0,
                        std::uint64_t idle_timeout_ms = 0) {
  SpawnOpts o;
  o.workers = workers;
  o.exit_after = exit_after;
  o.max_sessions = max_sessions;
  o.idle_timeout_ms = idle_timeout_ms;
  return spawn_server_with(o);
}

/// Respawns a daemon on a specific port (a restart of a killed one). The
/// old child must already be reaped; the bind can still race the kernel
/// briefly, so retry for up to ~2s.
ServerProc respawn_at(std::uint16_t port, SpawnOpts o) {
  o.port = port;
  for (int i = 0; i < 200; ++i) {
    ServerProc sp = spawn_server_with(o, /*allow_bind_fail=*/true);
    if (sp.pid > 0) return sp;
    ::poll(nullptr, 0, 10);
  }
  ADD_FAILURE() << "could not rebind port " << port;
  return ServerProc{};
}

/// A fresh, unique on-disk state directory.
std::string temp_state_dir(const std::string& tag) {
  std::string tmpl = testing::TempDir() + "fpmix_state_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  char* got = ::mkdtemp(buf.data());
  if (got == nullptr) {
    ADD_FAILURE() << "mkdtemp failed for " << tmpl;
    return tmpl;
  }
  return std::string(got);
}

net::HelloMsg make_hello() {
  net::HelloMsg h;
  h.bench = "iso";
  h.spec.max_instructions = 1ull << 24;
  return h;
}

// ---------------------------------------------------------------------------
// Client handshake.

TEST(DistributedClient, ServerRejectsUnknownWorkloadAndBadVersion) {
  SKIP_WITHOUT_NET();
  ServerProc sp = spawn_server(1);
  ASSERT_GT(sp.pid, 0);

  net::HelloMsg bad_bench = make_hello();
  bad_bench.bench = "nope";
  std::string error;
  EXPECT_EQ(net::EndpointClient::connect(sp.ep, bad_bench, 2000, 30000,
                                         &error),
            nullptr);
  EXPECT_NE(error.find("unknown benchmark"), std::string::npos) << error;

  net::HelloMsg bad_version = make_hello();
  bad_version.version = 999;
  EXPECT_EQ(net::EndpointClient::connect(sp.ep, bad_version, 2000, 30000,
                                         &error),
            nullptr);
  EXPECT_FALSE(error.empty());

  // A good hello on the same (still running) daemon succeeds and reports
  // the pool width and verifier fingerprint.
  NetWorkload w = make_workload();
  auto client =
      net::EndpointClient::connect(sp.ep, make_hello(), 2000, 60000, &error);
  ASSERT_NE(client, nullptr) << error;
  EXPECT_EQ(client->workers(), 1u);
  EXPECT_EQ(client->verifier_fp(), w.verifier->fingerprint());
}

TEST(DistributedClient, BadWorkloadClassIsRejectedAndDaemonKeepsServing) {
  SKIP_WITHOUT_NET();
  ServerProc sp = spawn_server(1);
  ASSERT_GT(sp.pid, 0);

  // A known NAS name at a class no kernel has: a rejecting HelloAck, not a
  // daemon abort.
  net::HelloMsg bad_class = make_hello();
  bad_class.bench = "ep";
  bad_class.cls = 'Q';
  std::string error;
  EXPECT_EQ(net::EndpointClient::connect(sp.ep, bad_class, 2000, 30000,
                                         &error),
            nullptr);
  EXPECT_NE(error.find("unknown benchmark"), std::string::npos) << error;

  // A factory that throws on a hello rejects that session only.
  net::HelloMsg throwing = make_hello();
  throwing.bench = "throw";
  EXPECT_EQ(net::EndpointClient::connect(sp.ep, throwing, 2000, 30000,
                                         &error),
            nullptr);
  EXPECT_NE(error.find("cannot build workload: factory failure"),
            std::string::npos)
      << error;

  // The same daemon then serves a whole valid session.
  NetWorkload w = make_workload();
  search::SchedulerOptions so;
  so.endpoints = {sp.ep};
  so.hello = make_hello();
  so.verifier_fp = w.verifier->fingerprint();
  {
    search::Scheduler sched(so);
    ASSERT_EQ(sched.connect(), 1u);
    config::PrecisionConfig all_double;
    const std::vector<runner::TrialOutcome> outs =
        sched.run_batch({runner::TrialJob{"all-double", &all_double}});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].served);
    EXPECT_TRUE(outs[0].result.passed) << outs[0].result.failure;
  }
  // One backend: the rejected hello built none.
  EXPECT_EQ(sp.terminate(), 1);
}

TEST(DistributedClient, SessionsWithEqualSpecsShareOneBackend) {
  SKIP_WITHOUT_NET();
  // Connects every hello to a fresh daemon; returns the backends it built.
  const auto backends_after = [](const std::vector<net::HelloMsg>& hellos) {
    ServerProc sp = spawn_server(1);
    if (sp.pid <= 0) return -1;
    for (const net::HelloMsg& h : hellos) {
      std::string error;
      if (net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error) ==
          nullptr) {
        ADD_FAILURE() << error;
      }
    }
    return sp.terminate();
  };

  net::HelloMsg h = make_hello();
  h.search_fp = "fp:first";
  h.spec.has_fault = true;
  h.spec.fault_seed = 7;
  h.spec.fault_rates.segv = 0.25;
  // Another search under the same rules: same evaluation context.
  net::HelloMsg same = h;
  same.search_fp = "fp:second";
  // One fault rate apart: a different campaign, so a different backend.
  net::HelloMsg other = h;
  other.spec.fault_rates.corrupt_result = 0.5;

  EXPECT_EQ(backends_after({h, same}), 1);
  EXPECT_EQ(backends_after({h, same, other}), 2);
}

TEST(DistributedClient, JournalShardSurvivesSessionDeathAndRejectsTornLines) {
  SKIP_WITHOUT_NET();
  ServerProc sp = spawn_server(1);
  ASSERT_GT(sp.pid, 0);

  net::HelloMsg h = make_hello();
  h.search_fp = "fp:shard-retention";
  std::string error;
  auto c1 = net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error);
  ASSERT_NE(c1, nullptr) << error;
  EXPECT_EQ(c1->shard_records(), 0u);

  const std::string meta = seal_record(
      "{\"type\":\"meta\",\"version\":2,\"search_fp\":\"fp:shard-retention\"}",
      1);
  const std::string t1 = seal_record("{\"type\":\"trial\",\"key\":\"a\"}", 2);
  const std::string t2 = seal_record("{\"type\":\"trial\",\"key\":\"b\"}", 3);
  // A torn line -- the tail a dying scheduler half-wrote: one flipped byte
  // breaks the CRC, and the shard must reject it rather than retain damage.
  std::string torn = seal_record("{\"type\":\"trial\",\"key\":\"torn\"}", 4);
  torn[torn.find("torn")] ^= 0x01;
  ASSERT_EQ(check_seal(torn), SealCheck::kCorrupt);

  ASSERT_TRUE(c1->journal_append({meta}));
  ASSERT_TRUE(c1->journal_append({t1}));
  ASSERT_TRUE(c1->journal_append({torn}));
  ASSERT_TRUE(c1->journal_append({t2}));
  // A duplicate sequence number (a re-streamed record after a failover
  // heals the fleet) is idempotent: the first retained copy wins.
  ASSERT_TRUE(c1->journal_append(
      {seal_record("{\"type\":\"trial\",\"key\":\"dup\"}", 2)}));

  std::vector<std::string> lines;
  ASSERT_TRUE(c1->fetch_journal(&lines, 10000, &error)) << error;
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], meta);
  EXPECT_EQ(lines[1], t1);
  EXPECT_EQ(lines[2], t2);

  // Kill the session outright; the shard outlives it, and a fresh session
  // announcing the same search sees the retained history in its ack.
  c1.reset();
  auto c2 = net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error);
  ASSERT_NE(c2, nullptr) << error;
  EXPECT_EQ(c2->shard_records(), 3u);
  lines.clear();
  ASSERT_TRUE(c2->fetch_journal(&lines, 10000, &error)) << error;
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], meta);
  EXPECT_EQ(lines[2], t2);

  // A different search fingerprint gets its own (empty) shard.
  net::HelloMsg other = make_hello();
  other.search_fp = "fp:someone-else";
  auto c3 = net::EndpointClient::connect(sp.ep, other, 2000, 60000, &error);
  ASSERT_NE(c3, nullptr) << error;
  EXPECT_EQ(c3->shard_records(), 0u);
}

TEST(DistributedClient, SessionCapRejectsAndIdleReapingKeepsTheShard) {
  SKIP_WITHOUT_NET();
  // One-session daemon that reaps anything idle for 200ms.
  ServerProc sp = spawn_server(1, /*exit_after=*/0, /*max_sessions=*/1,
                               /*idle_timeout_ms=*/200);
  ASSERT_GT(sp.pid, 0);

  net::HelloMsg h = make_hello();
  h.search_fp = "fp:reap-test";
  std::string error;
  auto c1 = net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error);
  ASSERT_NE(c1, nullptr) << error;
  ASSERT_TRUE(c1->journal_append({seal_record(
      "{\"type\":\"meta\",\"version\":2,\"search_fp\":\"fp:reap-test\"}",
      1)}));

  // The cap: a second concurrent session is rejected outright.
  EXPECT_EQ(net::EndpointClient::connect(sp.ep, h, 2000, 5000, &error),
            nullptr);
  EXPECT_NE(error.find("session limit"), std::string::npos) << error;

  // Idle reaping: after 200ms of silence the daemon drops the session --
  // but the retained journal shard survives it, so the slot it frees can
  // serve a successor that still sees the full history.
  std::vector<net::ResultMsg> results;
  bool dropped = false;
  for (int i = 0; i < 2000 && !dropped; ++i) {
    dropped = !c1->drain(&results);
    ::poll(nullptr, 0, 5);
  }
  EXPECT_TRUE(dropped);
  c1.reset();
  auto c2 = net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error);
  ASSERT_NE(c2, nullptr) << error;
  EXPECT_EQ(c2->shard_records(), 1u);
}

/// A hand-made journal trial line recording a failure that the all-double
/// config (which passes) would never produce, so a result carrying it can
/// only have come from the shard-cache index.
std::string planted_trial(const std::string& key, verify::FailureClass fc,
                          const std::string& failure) {
  return verify::encode_trial_line(
      key, "planted", 1, verify::CachedTrial{false, fc, failure, 0, false});
}

/// Submits the all-double config under `key` and waits (bounded) for its
/// result. False when the session dies or no result arrives.
bool await_trial(net::EndpointClient* c, std::uint64_t ticket,
                 const std::string& key, net::ResultMsg* msg,
                 verify::EvalResult* result) {
  net::TrialMsg m;
  m.ticket = ticket;
  m.key = key;
  m.config_key = config::PrecisionConfig{}.canonical_key();
  if (!c->submit(m)) return false;
  for (int i = 0; i < 3000; ++i) {
    std::vector<net::ResultMsg> got;
    const bool alive = c->drain(&got);
    for (net::ResultMsg& r : got) {
      if (r.ticket != ticket) continue;
      *msg = std::move(r);
      return runner::decode_result(msg->wire_result, result);
    }
    if (!alive) return false;
    pollfd pfd{c->fd(), POLLIN, 0};
    ::poll(&pfd, 1, 10);
  }
  return false;
}

TEST(DistributedClient, ShardCacheAnswersFromStreamedTrialLinesOnly) {
  SKIP_WITHOUT_NET();
  ServerProc sp = spawn_server(1);
  ASSERT_GT(sp.pid, 0);

  net::HelloMsg h = make_hello();
  h.search_fp = "fp:index";
  h.shard_cache = 1;
  std::string error;
  auto c1 = net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error);
  ASSERT_NE(c1, nullptr) << error;

  using verify::FailureClass;
  const std::string meta = seal_record(
      "{\"type\":\"meta\",\"version\":2,\"search_fp\":\"fp:index\"}", 1);
  std::string damaged =
      seal_record(planted_trial("k-damaged", FailureClass::kTrap, "x"), 4);
  damaged[damaged.find("k-damaged")] ^= 0x01;
  ASSERT_EQ(check_seal(damaged), SealCheck::kCorrupt);
  ASSERT_TRUE(c1->journal_append({meta}));
  ASSERT_TRUE(c1->journal_append({seal_record(
      planted_trial("k-hit", FailureClass::kTrap, "planted trap"), 2)}));
  ASSERT_TRUE(c1->journal_append(
      {planted_trial("k-unsealed", FailureClass::kTrap, "unsealed")}));
  ASSERT_TRUE(c1->journal_append({damaged}));
  // Seq 2 is taken, so the shard drops this line; the index still learns
  // it (a second session under one search_fp restarts at seq 1).
  ASSERT_TRUE(c1->journal_append({seal_record(
      planted_trial("k-collide", FailureClass::kDivergence,
                    "planted divergence"),
      2)}));
  // A later line for a key already indexed: the first verdict stays.
  ASSERT_TRUE(c1->journal_append({seal_record(
      planted_trial("k-hit", FailureClass::kBudget, "second verdict"), 3)}));

  // Lines under another search_fp never answer this one's trials. The
  // fetch round-trip makes sure the daemon has indexed them first.
  net::HelloMsg other = h;
  other.search_fp = "fp:index-other";
  auto c2 = net::EndpointClient::connect(sp.ep, other, 2000, 60000, &error);
  ASSERT_NE(c2, nullptr) << error;
  ASSERT_TRUE(c2->journal_append({seal_record(
      planted_trial("k-other", FailureClass::kTrap, "other fp"), 2)}));
  std::vector<std::string> lines;
  ASSERT_TRUE(c2->fetch_journal(&lines, 10000, &error)) << error;

  struct Want {
    const char* key;
    bool hit;
    FailureClass fc;
    const char* failure;
  };
  const Want wants[] = {
      {"k-hit", true, FailureClass::kTrap, "planted trap"},
      {"k-collide", true, FailureClass::kDivergence, "planted divergence"},
      {"k-unsealed", false, FailureClass::kNone, ""},
      {"k-damaged", false, FailureClass::kNone, ""},
      {"k-other", false, FailureClass::kNone, ""},
  };
  std::uint64_t ticket = 1;
  for (const Want& w : wants) {
    net::ResultMsg msg;
    verify::EvalResult er;
    ASSERT_TRUE(await_trial(c1.get(), ticket++, w.key, &msg, &er)) << w.key;
    EXPECT_EQ(msg.flags, w.hit ? net::kResultCacheHit : 0) << w.key;
    // A miss is evaluated by the pool: the all-double config passes.
    EXPECT_EQ(er.passed, !w.hit) << w.key;
    EXPECT_EQ(er.failure_class, w.fc) << w.key;
    EXPECT_EQ(er.failure, w.failure) << w.key;
  }

  // A session without shard_cache is always evaluated, even for a key its
  // search_fp's shard has a verdict for.
  net::HelloMsg plain = h;
  plain.shard_cache = 0;
  auto c3 = net::EndpointClient::connect(sp.ep, plain, 2000, 60000, &error);
  ASSERT_NE(c3, nullptr) << error;
  net::ResultMsg msg;
  verify::EvalResult er;
  ASSERT_TRUE(await_trial(c3.get(), 1, "k-hit", &msg, &er));
  EXPECT_EQ(msg.flags, 0);
  EXPECT_TRUE(er.passed);
}

// ---------------------------------------------------------------------------
// The scheduler: remote batches, endpoint death, failover.

TEST(DistributedScheduler, RemoteBatchMatchesInProcessVerdicts) {
  SKIP_WITHOUT_NET();
  ServerProc sp = spawn_server(2);
  ASSERT_GT(sp.pid, 0);
  NetWorkload w = make_workload();

  search::SchedulerOptions so;
  so.endpoints = {sp.ep};
  so.hello = make_hello();
  so.verifier_fp = w.verifier->fingerprint();
  search::Scheduler sched(so);
  ASSERT_EQ(sched.connect(), 1u);
  EXPECT_TRUE(sched.any_live());
  EXPECT_EQ(sched.capacity(), 2u);

  config::PrecisionConfig all_double;
  config::PrecisionConfig module_single;
  module_single.set_module(0, Precision::kSingle);
  std::vector<runner::TrialJob> jobs;
  jobs.push_back(runner::TrialJob{"all-double", &all_double});
  jobs.push_back(runner::TrialJob{"module-single", &module_single});

  const std::vector<runner::TrialOutcome> outs = sched.run_batch(jobs);
  ASSERT_EQ(outs.size(), 2u);
  verify::EvalOptions eval;
  eval.max_instructions = 1ull << 24;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const verify::EvalResult ref = verify::evaluate_config(
        w.image, w.index, *jobs[i].config, *w.verifier, eval);
    EXPECT_TRUE(outs[i].served) << jobs[i].key;
    EXPECT_FALSE(outs[i].quarantined) << jobs[i].key;
    EXPECT_EQ(outs[i].worker_deaths, 0u) << jobs[i].key;
    EXPECT_EQ(outs[i].result.passed, ref.passed) << jobs[i].key;
    EXPECT_EQ(outs[i].result.failure_class, ref.failure_class)
        << jobs[i].key;
    EXPECT_EQ(outs[i].result.failure, ref.failure) << jobs[i].key;
  }

  const std::vector<search::EndpointMetrics> em = sched.endpoint_metrics();
  ASSERT_EQ(em.size(), 1u);
  EXPECT_EQ(em[0].address, sp.ep.str());
  EXPECT_EQ(em[0].workers, 2u);
  EXPECT_EQ(em[0].trials, 2u);
  EXPECT_FALSE(em[0].lost);
}

TEST(DistributedScheduler, EndpointDeathMidTrialQuarantinesAsCrash) {
  SKIP_WITHOUT_NET();
  // A single endpoint that dies after delivering one result, and a crash
  // budget of one: every trial stranded in flight must come back as a
  // quarantined kCrash verdict -- the same breaker taxonomy as a
  // crash-looping config -- never hang, never pass.
  ServerProc sp = spawn_server(2, /*exit_after=*/1);
  ASSERT_GT(sp.pid, 0);
  NetWorkload w = make_workload();

  search::SchedulerOptions so;
  so.endpoints = {sp.ep};
  so.hello = make_hello();
  so.verifier_fp = w.verifier->fingerprint();
  so.max_trial_crashes = 1;
  so.max_endpoint_failures = 1;
  search::Scheduler sched(so);
  ASSERT_EQ(sched.connect(), 1u);

  config::PrecisionConfig all_double;
  std::vector<runner::TrialJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(
        runner::TrialJob{"death-" + std::to_string(i), &all_double});
  }
  const std::vector<runner::TrialOutcome> outs = sched.run_batch(jobs);
  const std::vector<search::EndpointMetrics> em = sched.endpoint_metrics();
  // Every outcome and the endpoint's counters, streamed into each
  // assertion below so that a failure names its cause.
  std::ostringstream why;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const runner::TrialOutcome& o = outs[i];
    why << "\n  outcome " << i << ": served=" << o.served
        << " quarantined=" << o.quarantined << " passed=" << o.result.passed
        << " class=" << verify::failure_class_name(o.result.failure_class)
        << " deaths=" << o.worker_deaths << " failure=\"" << o.result.failure
        << "\"";
  }
  for (const search::EndpointMetrics& e : em) {
    why << "\n  endpoint " << e.address << ": trials=" << e.trials
        << " failovers=" << e.failovers << " reconnects=" << e.reconnects
        << " disconnects=" << e.disconnects << " lost=" << e.lost
        << " lease_expiries=" << e.lease_expiries
        << " late_results=" << e.late_results
        << " redispatched=" << e.redispatched
        << " breaker_trips=" << e.breaker_trips;
  }
  const std::string diag = why.str();
  ASSERT_EQ(outs.size(), jobs.size()) << diag;

  std::size_t ok = 0, quarantined = 0;
  for (const runner::TrialOutcome& o : outs) {
    if (o.served && !o.quarantined) {
      ++ok;
    } else if (o.served && o.quarantined) {
      ++quarantined;
      EXPECT_FALSE(o.result.passed) << diag;
      EXPECT_EQ(o.result.failure_class, verify::FailureClass::kCrash) << diag;
      EXPECT_NE(o.result.failure.find("endpoint failures"),
                std::string::npos)
          << o.result.failure << diag;
      EXPECT_GE(o.worker_deaths, 1u) << diag;
    }
  }
  EXPECT_GE(ok, 1u) << diag;           // the endpoint served before dying
  EXPECT_GE(quarantined, 1u) << diag;  // and stranded the rest
  EXPECT_EQ(ok + quarantined, jobs.size()) << diag;

  ASSERT_EQ(em.size(), 1u) << diag;
  EXPECT_GE(em[0].disconnects, 1u) << diag;
  EXPECT_TRUE(em[0].lost) << diag;
}

TEST(DistributedScheduler, EndpointDeathFailsOverToSurvivingShard) {
  SKIP_WITHOUT_NET();
  ServerProc dying = spawn_server(2, /*exit_after=*/1);
  ServerProc healthy = spawn_server(2);
  ASSERT_GT(dying.pid, 0);
  ASSERT_GT(healthy.pid, 0);
  NetWorkload w = make_workload();

  search::SchedulerOptions so;
  so.endpoints = {dying.ep, healthy.ep};
  so.hello = make_hello();
  so.verifier_fp = w.verifier->fingerprint();
  so.max_endpoint_failures = 2;
  search::Scheduler sched(so);
  ASSERT_EQ(sched.connect(), 2u);
  EXPECT_EQ(sched.capacity(), 4u);

  config::PrecisionConfig all_double;
  config::PrecisionConfig module_single;
  module_single.set_module(0, Precision::kSingle);
  std::vector<runner::TrialJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(runner::TrialJob{
        "failover-" + std::to_string(i),
        (i % 2 == 0) ? &all_double : &module_single});
  }
  const std::vector<runner::TrialOutcome> outs = sched.run_batch(jobs);
  ASSERT_EQ(outs.size(), jobs.size());

  // Every trial lands a real verdict on the surviving shard: no
  // quarantines, no unserved work, verdicts equal to in-process.
  verify::EvalOptions eval;
  eval.max_instructions = 1ull << 24;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(outs[i].served) << jobs[i].key;
    EXPECT_FALSE(outs[i].quarantined) << jobs[i].key;
    const verify::EvalResult ref = verify::evaluate_config(
        w.image, w.index, *jobs[i].config, *w.verifier, eval);
    EXPECT_EQ(outs[i].result.passed, ref.passed) << jobs[i].key;
    EXPECT_EQ(outs[i].result.failure, ref.failure) << jobs[i].key;
  }

  const std::vector<search::EndpointMetrics> em = sched.endpoint_metrics();
  ASSERT_EQ(em.size(), 2u);
  EXPECT_GE(em[0].disconnects, 1u);  // the dying endpoint dropped
  EXPECT_GE(em[0].failovers, 1u);    // and its in-flight work was rerouted
  EXPECT_EQ(em[0].trials + em[1].trials, jobs.size());
}

TEST(DistributedScheduler, HeartbeatMeasuresRttOnALiveEndpoint) {
  SKIP_WITHOUT_NET();
  ServerProc sp = spawn_server(2);
  ASSERT_GT(sp.pid, 0);
  NetWorkload w = make_workload();

  search::SchedulerOptions so;
  so.endpoints = {sp.ep};
  so.hello = make_hello();
  so.verifier_fp = w.verifier->fingerprint();
  so.heartbeat_ms = 1;  // ping on every dispatch loop
  search::Scheduler sched(so);
  ASSERT_EQ(sched.connect(), 1u);

  config::PrecisionConfig all_double;
  std::vector<runner::TrialJob> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(runner::TrialJob{"hb-" + std::to_string(i), &all_double});
  }
  const std::vector<runner::TrialOutcome> outs = sched.run_batch(jobs);
  ASSERT_EQ(outs.size(), jobs.size());
  for (const runner::TrialOutcome& o : outs) {
    EXPECT_TRUE(o.served);
    EXPECT_FALSE(o.quarantined);
  }

  // A healthy endpoint answers its pings: no missed beats, no lease
  // expiries, and the RTT percentiles are ordered samples, not garbage.
  const std::vector<search::EndpointMetrics> em = sched.endpoint_metrics();
  ASSERT_EQ(em.size(), 1u);
  EXPECT_GE(em[0].pings, 1u);
  EXPECT_GE(em[0].pongs, 1u);
  EXPECT_EQ(em[0].lease_expiries, 0u);
  EXPECT_FALSE(em[0].lost);
  EXPECT_LE(em[0].rtt_p50_us, em[0].rtt_p95_us);
  EXPECT_LE(em[0].rtt_p95_us, em[0].rtt_max_us);
  EXPECT_GT(em[0].rtt_max_us, 0u);
}

TEST(DistributedScheduler, DuplicateResultIsDiscardedNeverDoubleVoted) {
  if (!net::supported()) GTEST_SKIP() << "no sockets on this platform";
  // A hand-rolled endpoint that answers one trial with the same verdict
  // TWICE in a single write: the second copy's ticket no longer holds a
  // lease, so the scheduler must discard it (counted as a late result),
  // never hand the batch two outcomes.
  net::Listener listener;
  std::string error;
  ASSERT_TRUE(listener.listen_on("127.0.0.1", 0, &error)) << error;
  net::Endpoint ep;
  ep.port = listener.port();

  NetWorkload w = make_workload();
  const std::string fp = w.verifier->fingerprint();
  std::thread server([&listener, fp]() {
    net::Socket s;
    for (int i = 0; i < 2000 && !s.valid(); ++i) {
      s = listener.accept_connection();
      if (!s.valid()) ::poll(nullptr, 0, 2);
    }
    if (!s.valid()) return;
    net::FrameBuffer fb;
    std::string payload = read_one_frame(&s, &fb);  // the hello
    net::HelloAckMsg ack;
    ack.ok = 1;
    ack.workers = 1;
    ack.verifier_fp = fp;
    s.send_all(runner::encode_frame(net::encode_hello_ack(ack)), 1000);
    payload = read_one_frame(&s, &fb);  // the trial
    net::TrialMsg t;
    if (!net::decode_trial(payload, &t)) return;
    verify::EvalResult wr;
    wr.passed = true;
    net::ResultMsg r;
    r.ticket = t.ticket;
    r.wire_result = runner::encode_result(wr);
    const std::string frame =
        runner::encode_frame(net::encode_result_msg(r));
    s.send_all(frame + frame, 1000);  // the verdict, delivered twice
    // Linger until the scheduler hangs up so the close is not a death.
    std::string sink;
    for (int i = 0; i < 2000; ++i) {
      if (s.read_available(&sink) != net::IoStatus::kWouldBlock) break;
      ::poll(nullptr, 0, 2);
    }
  });

  {
    search::SchedulerOptions so;
    so.endpoints = {ep};
    so.hello = make_hello();
    so.verifier_fp = fp;
    search::Scheduler sched(so);
    ASSERT_EQ(sched.connect(), 1u);

    config::PrecisionConfig all_double;
    std::vector<runner::TrialJob> jobs;
    jobs.push_back(runner::TrialJob{"dup-result", &all_double});
    const std::vector<runner::TrialOutcome> outs = sched.run_batch(jobs);
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].served);
    EXPECT_TRUE(outs[0].result.passed);
    EXPECT_FALSE(outs[0].quarantined);

    const std::vector<search::EndpointMetrics> em =
        sched.endpoint_metrics();
    ASSERT_EQ(em.size(), 1u);
    EXPECT_EQ(em[0].trials, 1u);        // voted exactly once
    EXPECT_EQ(em[0].late_results, 1u);  // the duplicate, discarded
  }
  server.join();
}

// ---------------------------------------------------------------------------
// Search equivalence across the fleet.

TEST(DistributedSearch, CleanFleetRunIsByteIdenticalToLocalRun) {
  SKIP_WITHOUT_NET();
  // Fork the fleet before the local run spins up threads.
  ServerProc s1 = spawn_server(2);
  ServerProc s2 = spawn_server(2);
  ASSERT_GT(s1.pid, 0);
  ASSERT_GT(s2.pid, 0);

  const std::string local_journal = temp_journal("net_clean_local.jsonl");
  const std::string fleet_journal = temp_journal("net_clean_fleet.jsonl");

  search::SearchOptions local;
  local.num_threads = 4;  // matches the fleet's lane count (2 x 2 workers)
  local.journal_timings = false;
  local.journal_path = local_journal;
  NetWorkload a = make_workload();
  const search::SearchResult lres =
      search::run_search(a.image, &a.index, *a.verifier, local);

  search::SearchOptions fleet;
  fleet.endpoints = {s1.ep.str(), s2.ep.str()};
  fleet.remote_bench = "iso";
  fleet.journal_timings = false;
  fleet.journal_path = fleet_journal;
  NetWorkload b = make_workload();
  const search::SearchResult fres =
      search::run_search(b.image, &b.index, *b.verifier, fleet);

  EXPECT_FALSE(fres.metrics.remote_degraded);
  EXPECT_GT(fres.metrics.remote_trials, 0u);
  EXPECT_EQ(fres.metrics.remote_unserved, 0u);
  EXPECT_EQ(fres.metrics.endpoints_lost, 0u);
  ASSERT_EQ(fres.metrics.endpoints_used.size(), 2u);

  EXPECT_EQ(fres.configs_tested, lres.configs_tested);
  EXPECT_EQ(fres.final_passed, lres.final_passed);
  EXPECT_EQ(config::to_text(b.index, fres.final_config),
            config::to_text(a.index, lres.final_config));
  // The journals -- trial order, keys, verdicts, failure text -- agree
  // down to the byte: a resumed search cannot tell which executor ran.
  const std::string local_bytes = read_file(local_journal);
  ASSERT_FALSE(local_bytes.empty());
  EXPECT_EQ(read_file(fleet_journal), local_bytes);
}

TEST(DistributedSearch, FleetLossDegradesToLocalExecution) {
  if (!net::supported()) GTEST_SKIP() << "no sockets on this platform";
  // A once-valid endpoint that refuses connections: bind, then close.
  net::Listener gone;
  std::string error;
  ASSERT_TRUE(gone.listen_on("127.0.0.1", 0, &error)) << error;
  const std::uint16_t dead_port = gone.port();
  gone.close();

  NetWorkload o = make_workload();
  const search::SearchResult oracle =
      search::run_search(o.image, &o.index, *o.verifier, {});

  search::SearchOptions opts;
  opts.endpoints = {"127.0.0.1:" + std::to_string(dead_port)};
  opts.remote_bench = "iso";
  opts.connect_timeout_ms = 500;
  NetWorkload w = make_workload();
  const search::SearchResult res =
      search::run_search(w.image, &w.index, *w.verifier, opts);

  EXPECT_TRUE(res.metrics.remote_degraded);
  EXPECT_EQ(res.metrics.remote_trials, 0u);
  EXPECT_EQ(res.configs_tested, oracle.configs_tested);
  EXPECT_EQ(res.final_passed, oracle.final_passed);
  EXPECT_EQ(config::to_text(w.index, res.final_config),
            config::to_text(o.index, oracle.final_config));
}

TEST(DistributedSearch, EndpointDeathMidSearchKeepsEveryAcceptedTrial) {
  SKIP_WITHOUT_NET();
  // One endpoint dies after two results; its sibling absorbs the rest.
  ServerProc dying = spawn_server(2, /*exit_after=*/2);
  ServerProc healthy = spawn_server(2);
  ASSERT_GT(dying.pid, 0);
  ASSERT_GT(healthy.pid, 0);

  const std::string local_journal = temp_journal("net_death_local.jsonl");
  const std::string fleet_journal = temp_journal("net_death_fleet.jsonl");

  search::SearchOptions local;
  local.num_threads = 4;
  local.journal_timings = false;
  local.journal_path = local_journal;
  NetWorkload a = make_workload();
  const search::SearchResult lres =
      search::run_search(a.image, &a.index, *a.verifier, local);

  search::SearchOptions fleet;
  fleet.endpoints = {dying.ep.str(), healthy.ep.str()};
  fleet.remote_bench = "iso";
  fleet.journal_timings = false;
  fleet.journal_path = fleet_journal;
  fleet.max_endpoint_failures = 2;
  NetWorkload b = make_workload();
  const search::SearchResult fres =
      search::run_search(b.image, &b.index, *b.verifier, fleet);

  // Graceful degradation: the death cost retries, never accepted trials
  // or correctness.
  EXPECT_GE(fres.metrics.endpoint_disconnects, 1u);
  EXPECT_EQ(fres.metrics.remote_unserved, 0u);
  EXPECT_EQ(fres.configs_tested, lres.configs_tested);
  EXPECT_EQ(fres.final_passed, lres.final_passed);
  EXPECT_EQ(config::to_text(b.index, fres.final_config),
            config::to_text(a.index, lres.final_config));
  const std::string local_bytes = read_file(local_journal);
  ASSERT_FALSE(local_bytes.empty());
  EXPECT_EQ(read_file(fleet_journal), local_bytes);
}

TEST(DistributedSearch, WholeFleetLossMidSearchFallsBackByteIdentically) {
  SKIP_WITHOUT_NET();
  // The only endpoint dies after its first result and is abandoned at its
  // first failure, so the first trial loses the fleet mid-vote (one remote
  // attempt spent) and every trial after it revotes in-process from
  // attempt 0.
  ServerProc dying = spawn_server(2, /*exit_after=*/1);
  ASSERT_GT(dying.pid, 0);

  const std::string local_journal = temp_journal("net_loss_local.jsonl");
  const std::string fleet_journal = temp_journal("net_loss_fleet.jsonl");

  search::SearchOptions fleet;
  fleet.endpoints = {dying.ep.str()};
  fleet.remote_bench = "iso";
  fleet.max_retries = 1;
  fleet.journal_timings = false;
  fleet.journal_path = fleet_journal;
  fleet.max_endpoint_failures = 1;
  fleet.max_trial_crashes = 8;  // stranded trials fall back, never quarantine
  NetWorkload b = make_workload();
  const search::SearchResult fres =
      search::run_search(b.image, &b.index, *b.verifier, fleet);

  search::SearchOptions local;
  local.num_threads = 2;  // the fleet's capacity
  local.max_retries = 1;
  local.journal_timings = false;
  local.journal_path = local_journal;
  NetWorkload a = make_workload();
  const search::SearchResult lres =
      search::run_search(a.image, &a.index, *a.verifier, local);

  const search::SearchMetrics& m = fres.metrics;
  EXPECT_FALSE(m.remote_degraded);
  EXPECT_GT(m.remote_trials, 0u);
  EXPECT_GT(m.remote_unserved, 0u);
  EXPECT_EQ(m.endpoints_lost, 1u);
  EXPECT_EQ(m.failures_by_class.count("crash"), 0u);
  EXPECT_EQ(fres.configs_tested, lres.configs_tested);
  EXPECT_EQ(fres.final_passed, lres.final_passed);
  EXPECT_EQ(config::to_text(b.index, fres.final_config),
            config::to_text(a.index, lres.final_config));
  const std::string local_bytes = read_file(local_journal);
  ASSERT_FALSE(local_bytes.empty());
  EXPECT_EQ(read_file(fleet_journal), local_bytes);
  // The remote attempt spent before the loss stays on the trial's books.
  EXPECT_GE(m.eval_seconds, m.patch_seconds + m.predecode_seconds +
                                m.setup_seconds + m.jit_seconds +
                                m.run_seconds + m.verify_seconds);
  EXPECT_EQ(m.retries, lres.metrics.retries + 1);
}

TEST(DistributedSearch, ShardCacheServesRepeatSearchWithoutReevaluation) {
  SKIP_WITHOUT_NET();
  ServerProc sp = spawn_server(2);
  ASSERT_GT(sp.pid, 0);

  search::SearchOptions opts;
  opts.endpoints = {sp.ep.str()};
  opts.remote_bench = "iso";
  opts.shard_cache = true;

  NetWorkload a = make_workload();
  const search::SearchResult first =
      search::run_search(a.image, &a.index, *a.verifier, opts);
  EXPECT_FALSE(first.metrics.remote_degraded);
  EXPECT_GT(first.metrics.remote_trials, 0u);

  // Same search fingerprint, fresh session: the daemon's fleet-wide cache
  // answers repeat configurations without touching its pool.
  NetWorkload b = make_workload();
  const search::SearchResult second =
      search::run_search(b.image, &b.index, *b.verifier, opts);
  EXPECT_GT(second.metrics.shard_cache_hits, 0u);
  EXPECT_EQ(second.configs_tested, first.configs_tested);
  EXPECT_EQ(second.final_passed, first.final_passed);
  EXPECT_EQ(config::to_text(b.index, second.final_config),
            config::to_text(a.index, first.final_config));
}

TEST(DistributedSearch, ShardCacheNeverAnswersARevoteWithItsOwnAttempt) {
  SKIP_WITHOUT_NET();
  ServerProc sp = spawn_server(2);
  ASSERT_GT(sp.pid, 0);

  search::SearchOptions opts;
  opts.endpoints = {sp.ep.str()};
  opts.remote_bench = "iso";
  opts.shard_cache = true;
  opts.max_retries = 1;

  // A fresh daemon knows no verdict of this search: every attempt of every
  // trial is evaluated. A revote answered from the daemon's copy of the
  // trial's own first attempt would count one evaluation twice.
  NetWorkload a = make_workload();
  const search::SearchResult first =
      search::run_search(a.image, &a.index, *a.verifier, opts);
  EXPECT_FALSE(first.metrics.remote_degraded);
  EXPECT_GT(first.metrics.trials_live, 0u);
  EXPECT_EQ(first.metrics.shard_cache_hits, 0u);
  EXPECT_EQ(first.metrics.remote_trials, 2 * first.metrics.trials_live);

  // The first search streamed its trial lines (it has no local journal):
  // a repeat is answered from them and lands on the same config.
  NetWorkload b = make_workload();
  const search::SearchResult second =
      search::run_search(b.image, &b.index, *b.verifier, opts);
  EXPECT_GT(second.metrics.shard_cache_hits, 0u);
  EXPECT_EQ(second.final_passed, first.final_passed);
  EXPECT_EQ(config::to_text(b.index, second.final_config),
            config::to_text(a.index, first.final_config));
}

// ---------------------------------------------------------------------------
// The acceptance soak: seeded hard-fault campaigns against a fleet whose
// endpoints' workers are dying under them, each campaign asserted
// byte-identical to the local isolated oracle under the same campaign.

std::size_t soak_campaigns() {
  if (const char* env = std::getenv("FPMIX_SOAK_CAMPAIGNS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 25;  // local default; CI exports FPMIX_SOAK_CAMPAIGNS=200
}

TEST(DistributedSoak, FaultedFleetConvergesByteIdenticallyToIsolatedOracle) {
  SKIP_WITHOUT_NET();
  // Process-destroying faults only (worker deaths are retried, never
  // voted), at the same rates as the isolation soak.
  fault::Injector::Rates rates;
  rates.segv = 0.05;
  rates.kill = 0.03;
  rates.oom = 0.03;
  rates.trunc_result = 0.02;
  rates.corrupt_result = 0.02;

  // Each campaign runs two full searches (fleet + oracle) and forks two
  // daemons; scale the count down from the isolation soak's budget.
  const std::size_t campaigns = std::max<std::size_t>(2, soak_campaigns() / 5);
  std::uint64_t total_faults = 0;
  for (std::size_t c = 0; c < campaigns; ++c) {
    SCOPED_TRACE("campaign " + std::to_string(c));
    const fault::Injector injector(0x7E57D157 + c, rates);

    ServerProc s1 = spawn_server(2);
    ServerProc s2 = spawn_server(2);
    ASSERT_GT(s1.pid, 0);
    ASSERT_GT(s2.pid, 0);

    const std::string fleet_journal =
        temp_journal("net_soak_fleet_" + std::to_string(c) + ".jsonl");
    search::SearchOptions fleet;
    fleet.endpoints = {s1.ep.str(), s2.ep.str()};
    fleet.remote_bench = "iso";
    fleet.journal_timings = false;
    fleet.journal_path = fleet_journal;
    fleet.fault_injector = &injector;
    fleet.max_trial_crashes = 6;  // absorb faults, don't quarantine configs
    NetWorkload f = make_workload();
    const search::SearchResult fres =
        search::run_search(f.image, &f.index, *f.verifier, fleet);
    s1.stop();
    s2.stop();

    // The oracle: same campaign, local sandboxed pool of the same width
    // (so lanes -- and therefore journal order -- match the fleet).
    const std::string oracle_journal =
        temp_journal("net_soak_oracle_" + std::to_string(c) + ".jsonl");
    search::SearchOptions oracle;
    oracle.isolate_trials = true;
    oracle.num_workers = 4;
    oracle.journal_timings = false;
    oracle.journal_path = oracle_journal;
    oracle.fault_injector = &injector;
    oracle.max_trial_crashes = 6;
    NetWorkload o = make_workload();
    const search::SearchResult ores =
        search::run_search(o.image, &o.index, *o.verifier, oracle);

    EXPECT_FALSE(fres.metrics.remote_degraded);
    EXPECT_GT(fres.metrics.remote_trials, 0u);
    EXPECT_EQ(fres.final_passed, ores.final_passed);
    EXPECT_EQ(config::to_text(f.index, fres.final_config),
              config::to_text(o.index, ores.final_config));
    const std::string oracle_bytes = read_file(oracle_journal);
    ASSERT_FALSE(oracle_bytes.empty());
    EXPECT_EQ(read_file(fleet_journal), oracle_bytes);

    // The oracle runs the identical seeded campaign, so its fault census
    // proves the campaign actually destroyed workers on both executors.
    total_faults += ores.metrics.worker_crashes + ores.metrics.protocol_errors;
  }
  EXPECT_GT(total_faults, 0u);
}

// ---------------------------------------------------------------------------
// Scheduler failover: a dead scheduler's history lives in the fleet's
// replicated shards, and a fresh --adopt scheduler must resume from them
// byte-identically -- clean, under endpoint death, and under seeded
// network chaos.

/// Reference journal bytes + final config text from an undisturbed local
/// run of the shared workload (4 lanes, matching the 2 x 2-worker fleet).
struct Oracle {
  std::string journal;
  std::string config;
};

Oracle local_oracle(const std::string& tag) {
  const std::string path = temp_journal("net_oracle_" + tag + ".jsonl");
  search::SearchOptions local;
  local.num_threads = 4;
  local.journal_timings = false;
  local.journal_path = path;
  NetWorkload w = make_workload();
  const search::SearchResult res =
      search::run_search(w.image, &w.index, *w.verifier, local);
  Oracle o;
  o.journal = read_file(path);
  o.config = config::to_text(w.index, res.final_config);
  EXPECT_FALSE(o.journal.empty());
  return o;
}

/// Forks a child process running a fleet search -- the scheduler host the
/// failover tests kill. The child inherits any installed socket chaos.
pid_t spawn_fleet_search(const std::vector<std::string>& eps,
                         const std::string& journal_path) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    search::SearchOptions fleet;
    fleet.endpoints = eps;
    fleet.remote_bench = "iso";
    fleet.journal_timings = false;
    fleet.journal_path = journal_path;
    fleet.max_endpoint_failures = 32;
    fleet.heartbeat_ms = 20;
    NetWorkload w = make_workload();
    search::run_search(w.image, &w.index, *w.verifier, fleet);
    std::_Exit(0);
  }
  return pid;
}

/// SIGKILLs `pid` once its journal shows progress (or reaps it if the
/// search won the race and finished -- both outcomes must converge).
void kill_after_progress(pid_t pid, const std::string& journal_path,
                         std::size_t min_lines) {
  for (int i = 0; i < 5000; ++i) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return;
    const std::string bytes = read_file(journal_path);
    if (static_cast<std::size_t>(
            std::count(bytes.begin(), bytes.end(), '\n')) >= min_lines) {
      break;
    }
    ::poll(nullptr, 0, 2);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

search::SearchResult adopt_run(const std::vector<std::string>& eps,
                               const std::string& journal_path,
                               NetWorkload* w) {
  search::SearchOptions opts;
  opts.endpoints = eps;
  opts.remote_bench = "iso";
  opts.journal_timings = false;
  opts.journal_path = journal_path;
  opts.adopt_fleet = true;
  opts.max_endpoint_failures = 32;
  opts.heartbeat_ms = 20;
  return search::run_search(w->image, &w->index, *w->verifier, opts);
}

TEST(DistributedFailover, AdoptRebuildsLocalJournalFromFleetShards) {
  SKIP_WITHOUT_NET();
  ServerProc s1 = spawn_server(2);
  ServerProc s2 = spawn_server(2);
  ASSERT_GT(s1.pid, 0);
  ASSERT_GT(s2.pid, 0);
  const Oracle oracle = local_oracle("adopt_clean");

  // A fleet search completes, streaming every journal record to both
  // daemons as it commits locally.
  const std::string fleet_j = temp_journal("net_adopt_fleet.jsonl");
  {
    search::SearchOptions fleet;
    fleet.endpoints = {s1.ep.str(), s2.ep.str()};
    fleet.remote_bench = "iso";
    fleet.journal_timings = false;
    fleet.journal_path = fleet_j;
    NetWorkload w = make_workload();
    const search::SearchResult res =
        search::run_search(w.image, &w.index, *w.verifier, fleet);
    EXPECT_FALSE(res.metrics.remote_degraded);
    EXPECT_EQ(read_file(fleet_j), oracle.journal);
  }

  // The scheduler host "dies": its local journal is gone. A fresh --adopt
  // scheduler with an empty journal path rebuilds the full history from
  // the fleet and resumes with every verdict already cached.
  std::remove(fleet_j.c_str());
  const std::string adopt_j = temp_journal("net_adopt_rebuilt.jsonl");
  NetWorkload w = make_workload();
  const search::SearchResult res =
      adopt_run({s1.ep.str(), s2.ep.str()}, adopt_j, &w);
  EXPECT_GT(res.metrics.adopted_records, 0u);
  EXPECT_EQ(res.metrics.trials_live, 0u);  // nothing re-evaluated
  EXPECT_EQ(read_file(adopt_j), oracle.journal);
  EXPECT_EQ(config::to_text(w.index, res.final_config), oracle.config);
}

TEST(DistributedFailover, SchedulerKilledMidSearchAdoptsByteIdentically) {
  SKIP_WITHOUT_NET();
  const Oracle oracle = local_oracle("adopt_kill");
  for (int dying = 0; dying < 2; ++dying) {
    SCOPED_TRACE(dying ? "endpoint-death" : "clean");
    // In the endpoint-death case one daemon dies after two results, so the
    // killed scheduler ALSO rode a failover before its own death.
    ServerProc s1 = dying ? spawn_server(2, /*exit_after=*/2)
                          : spawn_server(2);
    ServerProc s2 = spawn_server(2);
    ASSERT_GT(s1.pid, 0);
    ASSERT_GT(s2.pid, 0);
    const std::vector<std::string> eps = {s1.ep.str(), s2.ep.str()};

    const std::string child_j =
        temp_journal("net_kill_child_" + std::to_string(dying) + ".jsonl");
    const pid_t pid = spawn_fleet_search(eps, child_j);
    ASSERT_GT(pid, 0);
    kill_after_progress(pid, child_j, /*min_lines=*/3);

    // A fresh scheduler on a fresh journal path: only the fleet-held
    // shards can supply the dead scheduler's history.
    const std::string adopt_j =
        temp_journal("net_kill_adopt_" + std::to_string(dying) + ".jsonl");
    NetWorkload w = make_workload();
    const search::SearchResult res = adopt_run(eps, adopt_j, &w);
    EXPECT_EQ(read_file(adopt_j), oracle.journal);
    EXPECT_EQ(config::to_text(w.index, res.final_config), oracle.config);
  }
}

TEST(DistributedChaos, SeededChaosCampaignsConvergeAndAdoptByteIdentically) {
  SKIP_WITHOUT_NET();
  const Oracle oracle = local_oracle("chaos");
  fault::NetChaos::Rates rates;
  rates.reset = 0.01;
  rates.stall = 0.03;
  rates.stall_ms = 5;
  rates.delay = 0.04;
  rates.dup = 0.04;
  rates.reorder = 0.02;

  // Even campaigns: an undisturbed in-process scheduler rides out the
  // chaos. Odd campaigns: the scheduler is killed mid-search and a fresh
  // one adopts -- still under the same chaos. Every campaign must land the
  // oracle's exact journal bytes and final configuration.
  const std::size_t campaigns = std::max<std::size_t>(2, soak_campaigns() / 5);
  for (std::size_t c = 0; c < campaigns; ++c) {
    SCOPED_TRACE("campaign " + std::to_string(c));
    // Daemons fork before chaos installs, so faults land exactly on the
    // scheduler's half of every session.
    ServerProc s1 = spawn_server(2);
    ServerProc s2 = spawn_server(2);
    ASSERT_GT(s1.pid, 0);
    ASSERT_GT(s2.pid, 0);
    const std::vector<std::string> eps = {s1.ep.str(), s2.ep.str()};
    const fault::NetChaos chaos(0xC4A05EED + c, rates);
    net::set_socket_chaos(&chaos);

    const std::string cj =
        temp_journal("net_chaos_" + std::to_string(c) + ".jsonl");
    NetWorkload w = make_workload();
    if (c % 2 == 0) {
      search::SearchOptions fleet;
      fleet.endpoints = eps;
      fleet.remote_bench = "iso";
      fleet.journal_timings = false;
      fleet.journal_path = cj;
      fleet.max_endpoint_failures = 32;
      fleet.heartbeat_ms = 20;
      const search::SearchResult res =
          search::run_search(w.image, &w.index, *w.verifier, fleet);
      net::set_socket_chaos(nullptr);
      EXPECT_EQ(read_file(cj), oracle.journal);
      EXPECT_EQ(config::to_text(w.index, res.final_config), oracle.config);
    } else {
      const pid_t pid = spawn_fleet_search(eps, cj);
      ASSERT_GT(pid, 0);
      kill_after_progress(pid, cj, /*min_lines=*/3);
      const std::string adopt_j =
          temp_journal("net_chaos_adopt_" + std::to_string(c) + ".jsonl");
      const search::SearchResult res = adopt_run(eps, adopt_j, &w);
      net::set_socket_chaos(nullptr);
      EXPECT_EQ(read_file(adopt_j), oracle.journal);
      EXPECT_EQ(config::to_text(w.index, res.final_config), oracle.config);
    }
  }
}

// ---------------------------------------------------------------------------
// Durability: --state-dir persistence across SIGKILL + restart, damage
// healing at reload, anti-entropy gossip, and seeded disk-fault campaigns.

TEST(DistributedDurable, StateDirSurvivesSigkillRestartAndHealsDamage) {
  SKIP_WITHOUT_NET();
  const std::string state = temp_state_dir("restart");
  const std::string fp = "fp:durable-restart";
  SpawnOpts o;
  o.workers = 1;
  o.state_dir = state;
  ServerProc sp = spawn_server_with(o);
  ASSERT_GT(sp.pid, 0);

  net::HelloMsg h = make_hello();
  h.search_fp = fp;
  std::string error;
  auto c1 = net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error);
  ASSERT_NE(c1, nullptr) << error;
  EXPECT_FALSE(c1->state_degraded());
  EXPECT_EQ(c1->shard_records(), 0u);

  const std::string meta = seal_record(
      "{\"type\":\"meta\",\"version\":2,\"search_fp\":\"" + fp + "\"}", 1);
  const std::string t1 = seal_record("{\"type\":\"trial\",\"key\":\"a\"}", 2);
  const std::string t2 = seal_record("{\"type\":\"trial\",\"key\":\"b\"}", 3);
  ASSERT_TRUE(c1->journal_append({meta}));
  ASSERT_TRUE(c1->journal_append({t1}));
  ASSERT_TRUE(c1->journal_append({t2}));
  std::vector<std::string> lines;
  ASSERT_TRUE(c1->fetch_journal(&lines, 10000, &error)) << error;
  ASSERT_EQ(lines.size(), 3u);
  c1.reset();

  // SIGKILL: nothing graceful happens, yet every append already reached
  // the shard file.
  sp.stop();

  // Damage the shard on disk the way real crashes do: flip one byte
  // inside a sealed record (CRC now fails) and glue a torn half-record
  // onto the tail (the write a dying daemon never finished).
  const std::string shard_path =
      state + "/shard-" + hex_digest(fnv1a64(fp)) + ".jsonl";
  std::string bytes = read_file(shard_path);
  ASSERT_FALSE(bytes.empty());
  const std::size_t at = bytes.find("\"key\":\"b\"");
  ASSERT_NE(at, std::string::npos);
  bytes[at + 8] ^= 0x01;
  bytes += "{\"type\":\"trial\",\"key\":\"half";  // no newline: torn tail
  {
    std::ofstream f(shard_path, std::ios::trunc | std::ios::binary);
    f << bytes;
  }

  // Restart from the same state dir: the intact records reload, the
  // damaged ones are dropped and the file is compacted down to what
  // survived.
  ServerProc sp2 = spawn_server_with(o);
  ASSERT_GT(sp2.pid, 0);
  auto c2 = net::EndpointClient::connect(sp2.ep, h, 2000, 60000, &error);
  ASSERT_NE(c2, nullptr) << error;
  EXPECT_FALSE(c2->state_degraded());
  EXPECT_GE(c2->shards_reloaded(), 1u);
  EXPECT_EQ(c2->shard_records(), 2u);  // meta + t1; t2 was corrupted
  lines.clear();
  ASSERT_TRUE(c2->fetch_journal(&lines, 10000, &error)) << error;
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], meta);
  EXPECT_EQ(lines[1], t1);

  // New appends continue the stream and also survive a second restart.
  // The fetch round-trip after the append matters: appends are
  // fire-and-forget, and TCP ordering means the daemon has processed
  // (and persisted) the append before it can answer the fetch -- without
  // it the SIGKILL below races the append frame.
  ASSERT_TRUE(c2->journal_append({t2}));
  lines.clear();
  ASSERT_TRUE(c2->fetch_journal(&lines, 10000, &error)) << error;
  ASSERT_EQ(lines.size(), 3u);
  c2.reset();
  sp2.stop();
  const std::string healed = read_file(shard_path);
  EXPECT_EQ(healed.find("half"), std::string::npos);  // tail healed away
  ServerProc sp3 = spawn_server_with(o);
  ASSERT_GT(sp3.pid, 0);
  auto c3 = net::EndpointClient::connect(sp3.ep, h, 2000, 60000, &error);
  ASSERT_NE(c3, nullptr) << error;
  EXPECT_EQ(c3->shard_records(), 3u);
  lines.clear();
  ASSERT_TRUE(c3->fetch_journal(&lines, 10000, &error)) << error;
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], t2);
}

TEST(DistributedDurable, VerdictCacheSurvivesRestartAndServesCacheHits) {
  SKIP_WITHOUT_NET();
  const std::string state = temp_state_dir("cache");
  SpawnOpts o;
  o.workers = 2;
  o.state_dir = state;
  ServerProc sp = spawn_server_with(o);
  ASSERT_GT(sp.pid, 0);

  search::SearchOptions opts;
  opts.endpoints = {sp.ep.str()};
  opts.remote_bench = "iso";
  opts.shard_cache = true;
  NetWorkload a = make_workload();
  const search::SearchResult first =
      search::run_search(a.image, &a.index, *a.verifier, opts);
  EXPECT_FALSE(first.metrics.remote_degraded);
  EXPECT_GT(first.metrics.remote_trials, 0u);

  // Kill the daemon outright; a successor on the same state dir reloads
  // the persisted verdict cache, so the repeat search is answered from it
  // without re-evaluating -- across a process death, not just a session.
  sp.stop();
  ServerProc sp2 = spawn_server_with(o);
  ASSERT_GT(sp2.pid, 0);
  opts.endpoints = {sp2.ep.str()};
  NetWorkload b = make_workload();
  const search::SearchResult second =
      search::run_search(b.image, &b.index, *b.verifier, opts);
  EXPECT_GT(second.metrics.shard_cache_hits, 0u);
  EXPECT_EQ(second.configs_tested, first.configs_tested);
  EXPECT_EQ(second.final_passed, first.final_passed);
  EXPECT_EQ(config::to_text(b.index, second.final_config),
            config::to_text(a.index, first.final_config));
  ASSERT_EQ(second.metrics.endpoints_used.size(), 1u);
  EXPECT_GE(second.metrics.endpoints_used[0].shards_reloaded, 1u);
}

TEST(DistributedDurable, ParentCacheFileIsIgnoredAndShardLinesServeHits) {
  SKIP_WITHOUT_NET();
  const std::string state = temp_state_dir("v8cache");
  const std::string fp = "fp:v8-state";
  SpawnOpts o;
  o.workers = 1;
  o.state_dir = state;
  ServerProc sp = spawn_server_with(o);
  ASSERT_GT(sp.pid, 0);

  net::HelloMsg h = make_hello();
  h.search_fp = fp;
  h.shard_cache = 1;
  std::string error;
  auto c1 = net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error);
  ASSERT_NE(c1, nullptr) << error;
  ASSERT_TRUE(c1->journal_append({seal_record(
      "{\"type\":\"meta\",\"version\":2,\"search_fp\":\"" + fp + "\"}",
      1)}));
  ASSERT_TRUE(c1->journal_append({seal_record(
      planted_trial("k-shard", verify::FailureClass::kTrap, "from shard"),
      2)}));
  std::vector<std::string> lines;
  ASSERT_TRUE(c1->fetch_journal(&lines, 10000, &error)) << error;
  ASSERT_EQ(lines.size(), 2u);
  c1.reset();
  sp.stop();

  // The verdict file a protocol-v8 daemon kept beside each shard.
  const std::string cache_path =
      state + "/cache-" + hex_digest(fnv1a64(fp)) + ".jsonl";
  {
    std::ofstream f(cache_path, std::ios::binary);
    f << seal_record("{\"type\":\"shard-head\",\"kind\":\"cache\","
                     "\"search_fp\":\"" + fp + "\"}",
                     0)
      << "\n"
      << seal_record("{\"type\":\"verdict\",\"key\":\"k-cache\","
                     "\"passed\":false,\"fc\":1,\"failure\":\"from cache\"}",
                     1)
      << "\n";
  }

  ServerProc sp2 = spawn_server_with(o);
  ASSERT_GT(sp2.pid, 0);
  auto c2 = net::EndpointClient::connect(sp2.ep, h, 2000, 60000, &error);
  ASSERT_NE(c2, nullptr) << error;
  EXPECT_EQ(c2->shards_reloaded(), 1u);  // the shard file alone
  EXPECT_EQ(c2->shard_records(), 2u);

  // The reloaded shard's trial line answers; the cache file does not.
  net::ResultMsg msg;
  verify::EvalResult er;
  ASSERT_TRUE(await_trial(c2.get(), 1, "k-shard", &msg, &er));
  EXPECT_EQ(msg.flags, net::kResultCacheHit);
  EXPECT_FALSE(er.passed);
  EXPECT_EQ(er.failure_class, verify::FailureClass::kTrap);
  EXPECT_EQ(er.failure, "from shard");
  ASSERT_TRUE(await_trial(c2.get(), 2, "k-cache", &msg, &er));
  EXPECT_EQ(msg.flags, 0);
  EXPECT_TRUE(er.passed);
}

TEST(DistributedDurable, UnwritableStateDirDegradesToInMemory) {
  SKIP_WITHOUT_NET();
  // A state dir that cannot exist: a path component is a regular file.
  const std::string blocker = testing::TempDir() + "fpmix_state_blocker";
  {
    std::ofstream f(blocker, std::ios::trunc);
    f << "not a directory\n";
  }
  SpawnOpts o;
  o.workers = 1;
  o.state_dir = blocker + "/sub";
  ServerProc sp = spawn_server_with(o);
  ASSERT_GT(sp.pid, 0);

  // The daemon still serves -- in-memory, with the degradation announced
  // in the very first hello ack.
  net::HelloMsg h = make_hello();
  h.search_fp = "fp:degraded";
  std::string error;
  auto c = net::EndpointClient::connect(sp.ep, h, 2000, 60000, &error);
  ASSERT_NE(c, nullptr) << error;
  EXPECT_TRUE(c->state_degraded());
  EXPECT_GE(c->disk_faults(), 1u);
  ASSERT_TRUE(c->journal_append({seal_record(
      "{\"type\":\"meta\",\"version\":2,\"search_fp\":\"fp:degraded\"}", 1)}));
  std::vector<std::string> lines;
  ASSERT_TRUE(c->fetch_journal(&lines, 10000, &error)) << error;
  EXPECT_EQ(lines.size(), 1u);
  std::remove(blocker.c_str());
}

TEST(DistributedGossip, GossipRepairsBlankedShardWithoutAdoption) {
  SKIP_WITHOUT_NET();
  ServerProc s1 = spawn_server(1);
  SpawnOpts o2;
  o2.workers = 1;
  ServerProc s2 = spawn_server_with(o2);
  ASSERT_GT(s1.pid, 0);
  ASSERT_GT(s2.pid, 0);
  const std::uint16_t port2 = s2.ep.port;

  search::SchedulerOptions so;
  so.endpoints = {s1.ep, s2.ep};
  so.hello = make_hello();
  so.hello.search_fp = "fp:gossip";
  so.max_endpoint_failures = 64;
  search::Scheduler sched(so);
  ASSERT_EQ(sched.connect(), 2u);

  // Stream a small committed history to the whole fleet.
  std::vector<std::string> committed;
  committed.push_back(seal_record(
      "{\"type\":\"meta\",\"version\":2,\"search_fp\":\"fp:gossip\"}", 1));
  for (std::uint64_t seq = 2; seq <= 6; ++seq) {
    committed.push_back(seal_record(
        "{\"type\":\"trial\",\"key\":\"k" + std::to_string(seq) + "\"}", seq));
  }
  for (const std::string& l : committed) sched.stream_journal(l);

  // A digest round against a fleet that already agrees repairs nothing.
  EXPECT_EQ(sched.gossip_now(5000), 0u);

  // Blank one endpoint: SIGKILL it and restart it empty on the same port
  // (no state dir -- its replica is simply gone, the worst case).
  s2.stop();
  s2 = respawn_at(port2, o2);
  ASSERT_GT(s2.pid, 0);

  // Gossip alone -- no adoption, no fetch -- must notice the blank digest
  // and re-stream the full history. The first round after the drop downs
  // the stale session; reconnect + heal happen within the backoff budget.
  std::size_t repaired = 0;
  for (int i = 0; i < 500 && repaired < committed.size(); ++i) {
    repaired += sched.gossip_now(5000);
    ::poll(nullptr, 0, 10);
  }
  EXPECT_GE(repaired, committed.size());

  // The restarted endpoint now holds the byte-exact replica.
  std::string error;
  auto check = net::EndpointClient::connect(s2.ep, so.hello, 2000, 60000,
                                            &error);
  ASSERT_NE(check, nullptr) << error;
  EXPECT_EQ(check->shard_records(), committed.size());
  std::vector<std::string> lines;
  ASSERT_TRUE(check->fetch_journal(&lines, 10000, &error)) << error;
  ASSERT_EQ(lines.size(), committed.size());
  for (std::size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(lines[i], committed[i]);
  }

  const std::vector<search::EndpointMetrics> em = sched.endpoint_metrics();
  ASSERT_EQ(em.size(), 2u);
  EXPECT_GE(em[1].records_repaired, committed.size());
  EXPECT_GT(em[1].gossip_rounds, 0u);
}

// A record committed while an endpoint is down (the search's final
// composition, streamed after its last batch) reaches that endpoint only
// through the search's closing heal round: one gossip_now that redials the
// endpoint at once, however long its reconnect backoff still runs.
TEST(DistributedGossip, HealRoundRedialsAnEndpointDownAcrossTheFinalCommit) {
  SKIP_WITHOUT_NET();
  ServerProc s1 = spawn_server(1);
  SpawnOpts o2;
  o2.workers = 1;
  ServerProc s2 = spawn_server_with(o2);
  ASSERT_GT(s1.pid, 0);
  ASSERT_GT(s2.pid, 0);
  const std::uint16_t port2 = s2.ep.port;

  search::SchedulerOptions so;
  so.endpoints = {s1.ep, s2.ep};
  so.hello = make_hello();
  so.hello.search_fp = "fp:final-heal";
  // Backoff far longer than the test: only an explicit redial reconnects.
  so.reconnect_backoff.base_ms = 600000;
  so.reconnect_backoff.cap_ms = 600000;
  search::Scheduler sched(so);
  ASSERT_EQ(sched.connect(), 2u);

  std::vector<std::string> committed;
  committed.push_back(seal_record(
      "{\"type\":\"meta\",\"version\":2,\"search_fp\":\"fp:final-heal\"}",
      1));
  for (std::uint64_t seq = 2; seq <= 5; ++seq) {
    committed.push_back(seal_record(
        "{\"type\":\"trial\",\"key\":\"k" + std::to_string(seq) + "\"}",
        seq));
  }
  for (const std::string& l : committed) sched.stream_journal(l);
  EXPECT_EQ(sched.gossip_now(5000), 0u);

  // Endpoint 2 dies; the next round sees it go (and arms its backoff).
  s2.stop();
  EXPECT_EQ(sched.gossip_now(5000), 0u);
  ASSERT_EQ(sched.endpoint_metrics()[1].disconnects, 1u);

  // The final record commits while it is down, then it restarts blank.
  committed.push_back(seal_record(
      "{\"type\":\"trial\",\"key\":\"final composition\"}", 6));
  sched.stream_journal(committed.back());
  s2 = respawn_at(port2, o2);
  ASSERT_GT(s2.pid, 0);

  // One round heals it: redial, digest, full re-stream.
  EXPECT_EQ(sched.gossip_now(5000), committed.size());
  std::string error;
  auto check = net::EndpointClient::connect(s2.ep, so.hello, 2000, 60000,
                                            &error);
  ASSERT_NE(check, nullptr) << error;
  std::vector<std::string> lines;
  ASSERT_TRUE(check->fetch_journal(&lines, 10000, &error)) << error;
  EXPECT_EQ(lines, committed);
  EXPECT_EQ(sched.endpoint_metrics()[1].reconnects, 1u);
}

TEST(DistributedDurable, DaemonSigkilledMidSearchRestartsFromStateDir) {
  SKIP_WITHOUT_NET();
  const Oracle oracle = local_oracle("durable_kill");
  const std::string state = temp_state_dir("midsearch");
  SpawnOpts o1;
  o1.workers = 2;
  o1.state_dir = state;
  ServerProc s1 = spawn_server_with(o1);
  ServerProc s2 = spawn_server(2);
  ASSERT_GT(s1.pid, 0);
  ASSERT_GT(s2.pid, 0);
  const std::uint16_t port1 = s1.ep.port;

  const std::string fleet_j = temp_journal("net_durable_kill.jsonl");
  // A sidecar kills the stateful daemon once the search shows progress,
  // then restarts it from the same state dir on the same port. The
  // scheduler rides the death (failover + reconnect) and gossip re-streams
  // whatever the shard missed while the daemon was down.
  ServerProc restarted;
  std::thread killer([&]() {
    kill_after_progress(s1.pid, fleet_j, /*min_lines=*/3);
    s1.pid = -1;  // reaped by kill_after_progress
    restarted = respawn_at(port1, o1);
  });

  search::SearchOptions fleet;
  fleet.endpoints = {"127.0.0.1:" + std::to_string(port1), s2.ep.str()};
  fleet.remote_bench = "iso";
  fleet.journal_timings = false;
  fleet.journal_path = fleet_j;
  fleet.max_endpoint_failures = 64;
  fleet.heartbeat_ms = 20;
  fleet.gossip_ms = 20;
  NetWorkload w = make_workload();
  const search::SearchResult res =
      search::run_search(w.image, &w.index, *w.verifier, fleet);
  killer.join();

  // Byte-identical convergence: the daemon death cost availability only.
  EXPECT_EQ(read_file(fleet_j), oracle.journal);
  EXPECT_EQ(config::to_text(w.index, res.final_config), oracle.config);
  EXPECT_EQ(res.metrics.remote_unserved, 0u);
  ASSERT_EQ(res.metrics.endpoints_used.size(), 2u);
  const search::EndpointMetrics& em = res.metrics.endpoints_used[0];
  EXPECT_GE(em.disconnects, 1u);
  // The reconnect handshake saw the state reloaded from disk (the daemon
  // was not blank after its restart)...
  EXPECT_GE(em.shards_reloaded + em.journal_records, 1u);

  // ...and after the run the restarted daemon's shard is the full journal
  // byte-for-byte (reload + gossip healing, not adoption).
  net::HelloMsg h = make_hello();
  h.search_fp = "";
  std::string error;
  std::vector<std::string> lines;
  {
    search::SchedulerOptions so;
    so.endpoints = {net::Endpoint{"127.0.0.1", port1}};
    so.hello = make_hello();
    // Recover the search fingerprint from the journal's meta record.
    const std::string bytes = read_file(fleet_j);
    JsonRecord meta;
    ASSERT_TRUE(parse_flat_json(bytes.substr(0, bytes.find('\n')), &meta));
    so.hello.search_fp = meta["search_fp"];
    search::Scheduler probe(so);
    ASSERT_EQ(probe.connect(), 1u);
    ASSERT_EQ(probe.fetch_fleet_journal(&lines), 1u);
  }
  std::string shard_bytes;
  for (const std::string& l : lines) {
    shard_bytes += l;
    shard_bytes += '\n';
  }
  EXPECT_EQ(shard_bytes, oracle.journal);
}

TEST(DistributedDiskChaos, SeededDiskFaultCampaignsStayByteIdentical) {
  SKIP_WITHOUT_NET();
  const Oracle oracle = local_oracle("disk_chaos");
  fault::DiskChaos::Rates rates;
  rates.short_write = 0.05;
  rates.torn_record = 0.05;
  rates.fsync_fail = 0.05;
  rates.unreadable = 0.25;  // fires only at reload, i.e. the restart leg

  // Even campaigns run undisturbed under write faults; odd campaigns also
  // SIGKILL + restart the stateful daemon mid-search, so torn shard tails
  // written by the fault campaign are healed at reload and the gap is
  // gossip-repaired. Every campaign must land the oracle's exact bytes:
  // daemon-side disk damage may cost durability, never verdicts.
  const std::size_t campaigns = std::max<std::size_t>(2, soak_campaigns() / 8);
  std::uint64_t total_faults = 0;
  for (std::size_t c = 0; c < campaigns; ++c) {
    SCOPED_TRACE("campaign " + std::to_string(c));
    const fault::DiskChaos chaos(0xD15C0000 + c, rates);
    const std::string state1 = temp_state_dir("dc1_" + std::to_string(c));
    const std::string state2 = temp_state_dir("dc2_" + std::to_string(c));
    SpawnOpts o1;
    o1.workers = 2;
    o1.state_dir = state1;
    o1.disk_chaos = &chaos;
    SpawnOpts o2 = o1;
    o2.state_dir = state2;
    ServerProc s1 = spawn_server_with(o1);
    ServerProc s2 = spawn_server_with(o2);
    ASSERT_GT(s1.pid, 0);
    ASSERT_GT(s2.pid, 0);
    const std::uint16_t port1 = s1.ep.port;

    const std::string cj =
        temp_journal("net_disk_chaos_" + std::to_string(c) + ".jsonl");
    ServerProc restarted;
    std::thread killer;
    if (c % 2 == 1) {
      killer = std::thread([&]() {
        kill_after_progress(s1.pid, cj, /*min_lines=*/3);
        s1.pid = -1;
        restarted = respawn_at(port1, o1);
      });
    }

    search::SearchOptions fleet;
    fleet.endpoints = {"127.0.0.1:" + std::to_string(port1), s2.ep.str()};
    fleet.remote_bench = "iso";
    fleet.journal_timings = false;
    fleet.journal_path = cj;
    fleet.max_endpoint_failures = 64;
    fleet.heartbeat_ms = 20;
    fleet.gossip_ms = 20;
    NetWorkload w = make_workload();
    const search::SearchResult res =
        search::run_search(w.image, &w.index, *w.verifier, fleet);
    if (killer.joinable()) killer.join();

    EXPECT_FALSE(res.metrics.remote_degraded);
    EXPECT_EQ(read_file(cj), oracle.journal);
    EXPECT_EQ(config::to_text(w.index, res.final_config), oracle.config);

    // The campaign's injected faults are visible in a fresh handshake's
    // durability census (store-wide counters survive within the daemon).
    std::string error;
    for (const net::Endpoint& ep :
         {net::Endpoint{"127.0.0.1", port1}, s2.ep}) {
      auto probe =
          net::EndpointClient::connect(ep, make_hello(), 2000, 60000, &error);
      if (probe != nullptr) total_faults += probe->disk_faults();
    }
  }
  EXPECT_GT(total_faults, 0u);

  // The degraded leg: a daemon whose state dir is unusable serves the
  // whole search in-memory, byte-identically, with the degradation
  // counted in the scheduler's metrics.
  const std::string blocker = testing::TempDir() + "fpmix_dc_blocker";
  {
    std::ofstream f(blocker, std::ios::trunc);
    f << "not a directory\n";
  }
  SpawnOpts od;
  od.workers = 2;
  od.state_dir = blocker + "/sub";
  ServerProc sd1 = spawn_server_with(od);
  ServerProc sd2 = spawn_server(2);
  ASSERT_GT(sd1.pid, 0);
  ASSERT_GT(sd2.pid, 0);
  const std::string dj = temp_journal("net_disk_degraded.jsonl");
  search::SearchOptions fleet;
  fleet.endpoints = {sd1.ep.str(), sd2.ep.str()};
  fleet.remote_bench = "iso";
  fleet.journal_timings = false;
  fleet.journal_path = dj;
  fleet.gossip_ms = 20;
  NetWorkload w = make_workload();
  const search::SearchResult res =
      search::run_search(w.image, &w.index, *w.verifier, fleet);
  EXPECT_EQ(read_file(dj), oracle.journal);
  EXPECT_EQ(config::to_text(w.index, res.final_config), oracle.config);
  EXPECT_GE(res.metrics.state_degraded, 1u);
  EXPECT_GE(res.metrics.disk_faults, 1u);
  std::remove(blocker.c_str());
}

#endif  // POSIX fork

}  // namespace
}  // namespace fpmix
