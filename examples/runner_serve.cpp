// runner_serve: the remote half of the distributed search service.
//
// Starts a daemon that fronts a local sandboxed WorkerPool and serves trial
// evaluations to nas_search --connect clients over TCP (the same CRC-framed
// wire protocol the pool speaks to its forked workers). One daemon can hold
// sessions from many schedulers at once; sessions that announce the same
// workload and evaluation semantics share one backend (one built image, one
// warm TrialBuilder, one worker fleet) and, with --shard-cache on the
// client, one fleet-wide trial cache.
//
// Usage:  runner_serve [--host H] [--port N] [--port-file FILE]
//                      [--workers N] [--exit-after N] [--quiet]
//                      [--max-sessions N] [--idle-timeout-ms N]
//                      [--state-dir DIR] [--state-fsync]
//                      [--disk-fault-seed N] [--disk-fault-rate P]
//                      [--disk-unreadable-rate P]
//
// --port 0 (the default) binds a kernel-assigned port; --port-file writes
// the bound "host:port" to FILE so scripts and CI can discover it without
// racing. --exit-after N stops the daemon after N trial results -- the
// chaos hook the endpoint-death tests and CI smoke use to simulate a
// runner dying mid-search.
//
// --state-dir DIR persists every retained journal shard and verdict cache
// under DIR as CRC-sealed JSONL and reloads them at startup, so a daemon
// that is SIGKILLed and restarted on the same directory resumes with its
// replicas intact (--state-fsync makes each append power-loss durable). An
// unusable directory degrades the daemon to the pre-v4 in-memory behaviour
// with a one-time warning; it never refuses to serve. --disk-fault-* turn
// on the seeded deterministic disk-fault campaign (short writes, torn
// records, fsync failures, ENOSPC, unreadable files on reload) for
// durability testing.
//
// Each session's scheduler streams its CRC-sealed journal records here;
// the daemon retains a per-search replicated shard that outlives the
// session, so a fresh scheduler (nas_search --adopt) can rebuild the
// trial history from the fleet after its host dies. --max-sessions caps
// concurrent sessions (default 64; excess connects are rejected with an
// error frame) and --idle-timeout-ms reaps sessions with no traffic for
// that long (default 600000, 0 disables); a reaped session logs its
// search fingerprint and retained-shard size, and the shard survives.
//
// Exit codes: 0 clean shutdown (signal or --exit-after); 1 cannot bind;
// 2 usage error.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "config/structure.hpp"
#include "kernels/workload.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "program/program.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

using namespace fpmix;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// Maps a session's announced benchmark to a built workload. Every NAS
/// analogue nas_search can search is servable.
std::unique_ptr<net::ServedWorkload> build_workload(const std::string& bench,
                                                    char cls,
                                                    std::string* error) {
  const std::optional<kernels::Workload> w =
      kernels::make_workload(bench, cls);
  if (!w) {
    if (error != nullptr) {
      *error = strformat("unknown benchmark '%s'", bench.c_str());
    }
    return nullptr;
  }
  auto out = std::make_unique<net::ServedWorkload>();
  out->image = kernels::build_image(*w);
  out->index = config::StructureIndex::build(program::lift(out->image));
  out->verifier = kernels::make_verifier(*w, out->image);
  return out;
}

/// Parses a probability in [0, 1]. Strict: the whole string must consume.
bool parse_prob(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || v < 0.0 || v > 1.0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint64_t port = 0;
  std::string port_file;
  net::ServerOptions sopts;
  bool quiet = false;
  bool have_disk_seed = false;
  std::uint64_t disk_seed = 0;
  double disk_fault_rate = 0.02;
  double disk_unreadable_rate = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quiet") quiet = true;
    else if (arg == "--host" && i + 1 < argc) host = argv[++i];
    else if (arg == "--port" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &port) || port > 65535) {
        std::fprintf(stderr, "bad --port value '%s'\n", argv[i]);
        return 2;
      }
    }
    else if (arg == "--port-file" && i + 1 < argc) port_file = argv[++i];
    else if (arg == "--workers" && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_u64(argv[++i], &n) || n == 0 || n > 256) {
        std::fprintf(stderr, "bad --workers value '%s'\n", argv[i]);
        return 2;
      }
      sopts.workers = static_cast<int>(n);
    }
    else if (arg == "--exit-after" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &sopts.exit_after_results)) {
        std::fprintf(stderr, "bad --exit-after value '%s'\n", argv[i]);
        return 2;
      }
    }
    else if (arg == "--max-sessions" && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_u64(argv[++i], &n) || n == 0 || n > 4096) {
        std::fprintf(stderr, "bad --max-sessions value '%s' (1..4096)\n",
                     argv[i]);
        return 2;
      }
      sopts.max_sessions = static_cast<std::size_t>(n);
    }
    else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &sopts.idle_timeout_ms)) {
        std::fprintf(stderr, "bad --idle-timeout-ms value '%s' "
                             "(0 disables)\n", argv[i]);
        return 2;
      }
    }
    else if (arg == "--state-dir" && i + 1 < argc) {
      sopts.state_dir = argv[++i];
    }
    else if (arg == "--state-fsync") sopts.state_fsync = true;
    else if (arg == "--disk-fault-seed" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &disk_seed)) {
        std::fprintf(stderr, "bad --disk-fault-seed value '%s'\n", argv[i]);
        return 2;
      }
      have_disk_seed = true;
    }
    else if (arg == "--disk-fault-rate" && i + 1 < argc) {
      if (!parse_prob(argv[++i], &disk_fault_rate)) {
        std::fprintf(stderr, "bad --disk-fault-rate value '%s' (0..1)\n",
                     argv[i]);
        return 2;
      }
    }
    else if (arg == "--disk-unreadable-rate" && i + 1 < argc) {
      if (!parse_prob(argv[++i], &disk_unreadable_rate)) {
        std::fprintf(stderr, "bad --disk-unreadable-rate value '%s' "
                             "(0..1)\n", argv[i]);
        return 2;
      }
    }
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (!quiet) {
    sopts.verbose = true;
    log::set_level(log::Level::kInfo);
  }
  // The disk-fault campaign: write-path faults (short write, torn record,
  // fsync failure) at the shared rate, plus optionally unreadable files at
  // reload. ENOSPC/degradation is exercised with an unwritable --state-dir
  // rather than a rate -- it is a terminal state, not a recoverable fault.
  std::unique_ptr<fault::DiskChaos> disk_chaos;
  if (have_disk_seed) {
    if (sopts.state_dir.empty()) {
      std::fprintf(stderr,
                   "--disk-fault-seed needs --state-dir (disk faults are "
                   "injected into the shard store)\n");
      return 2;
    }
    fault::DiskChaos::Rates rates;
    rates.short_write = disk_fault_rate;
    rates.torn_record = disk_fault_rate;
    rates.fsync_fail = disk_fault_rate;
    rates.unreadable = disk_unreadable_rate;
    disk_chaos = std::make_unique<fault::DiskChaos>(disk_seed, rates);
    sopts.disk_chaos = disk_chaos.get();
  }

  if (!net::supported()) {
    std::fprintf(stderr, "sockets are unsupported on this platform\n");
    return 1;
  }
  net::Listener listener;
  std::string error;
  if (!listener.listen_on(host, static_cast<std::uint16_t>(port), &error)) {
    std::fprintf(stderr, "cannot listen: %s\n", error.c_str());
    return 1;
  }
  const std::string address =
      strformat("%s:%u", host.c_str(),
                static_cast<unsigned>(listener.port()));
  if (!port_file.empty()) {
    std::ofstream f(port_file);
    f << address << "\n";
    if (!f.good()) {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 1;
    }
  }
  std::printf("runner_serve: listening on %s (%d workers per backend)\n",
              address.c_str(), sopts.workers);
  std::fflush(stdout);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  net::RunnerServer server(std::move(listener), build_workload, sopts);
  server.serve(&g_stop);

  const net::ServerStats& st = server.stats();
  std::printf("runner_serve: done -- %llu session(s) (%llu rejected, "
              "%llu reaped), %llu trial(s) served (%llu shard-cache "
              "hit(s)), %llu cache insert(s), %llu protocol error(s), "
              "%llu backend(s)\n",
              static_cast<unsigned long long>(st.sessions_accepted),
              static_cast<unsigned long long>(st.sessions_rejected),
              static_cast<unsigned long long>(st.sessions_reaped),
              static_cast<unsigned long long>(st.trials_served),
              static_cast<unsigned long long>(st.shard_cache_hits),
              static_cast<unsigned long long>(st.cache_inserts),
              static_cast<unsigned long long>(st.protocol_errors),
              static_cast<unsigned long long>(st.backends));
  std::printf("runner_serve: journal -- %llu append(s) (%llu rejected), "
              "%llu fetch(es), %llu digest(s), %llu ping(s)\n",
              static_cast<unsigned long long>(st.journal_appends),
              static_cast<unsigned long long>(st.journal_rejected),
              static_cast<unsigned long long>(st.journal_fetches),
              static_cast<unsigned long long>(st.digests),
              static_cast<unsigned long long>(st.pings));
  std::printf("runner_serve: state -- %llu shard(s) reloaded (%llu "
              "record(s), %llu discarded), %llu disk fault(s)%s\n",
              static_cast<unsigned long long>(st.shards_reloaded),
              static_cast<unsigned long long>(st.records_reloaded),
              static_cast<unsigned long long>(st.records_discarded),
              static_cast<unsigned long long>(st.disk_faults),
              st.state_degraded != 0 ? ", DEGRADED to in-memory" : "");
  return 0;
}
