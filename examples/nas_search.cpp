// The paper's NAS experiment as a command-line tool: run the automatic
// mixed-precision search on one benchmark analogue and write the
// recommended configuration file.
//
// Usage:  nas_search <ep|cg|ft|mg|bt|lu|sp|amg> [S|W|A|C] [--trace]
//                    [--refine] [--out FILE] [--journal FILE] [--no-resume]
//                    [--threads N] [--deadline-ms N] [--retries N] [--quiet]
//                    [--isolate] [--workers N] [--max-crashes N]
//                    [--worker-rlimit-as MB] [--fault-seed N]
//                    [--metrics-json FILE] [--no-image-cache]
//                    [--connect HOST:PORT,...] [--shard-cache]
//                    [--journal-deterministic]
//                    [--engine switch|microop|jit] [--adopt]
//                    [--heartbeat-ms N] [--reconnect-max-ms N]
//                    [--gossip-ms N]
//
// --deadline-ms bounds each trial's wall-clock time (a spinning patched
// binary is classified "timeout" instead of hanging the search);
// --retries N re-evaluates each trial until one verdict holds a majority
// of N+1 attempts, quarantining configs whose attempts disagree.
//
// With --journal, every completed trial is appended to FILE as it
// finishes; re-running the same command resumes from it, re-using every
// journaled verdict instead of re-evaluating (an interrupted search loses
// at most the trial in flight).
//
// --threads N evaluates up to N trials at once (1..256). Lanes take queued
// units as they free up, and results commit in the order a 1-lane search
// pops them, so the journal, trace and configuration do not depend on N.
//
// --isolate runs every trial in a forked, rlimit-capped worker process:
// a trial that crashes or OOMs kills its worker, never the search.
// --workers N (1..256) sizes the worker fleet (default: --threads),
// --max-crashes N
// sets the per-config crash-loop breaker, and --fault-seed N arms a
// deterministic hard-fault campaign (SIGSEGV/SIGKILL/OOM/corrupt-frame
// injection) for exercising the supervisor. --metrics-json dumps the full
// SearchMetrics, including the per-signal worker-crash census and the
// per-worker-slot request/respawn/quarantine counts, to FILE.
//
// --no-image-cache turns off reuse across trials (per-function variants
// and warm whole images): every trial builds through a fresh one-shot
// trial builder, the same pipeline with nothing cached. Results are
// identical either way; the flag exists for A/B benchmarking.
//
// --connect dispatches trials to remote runner_serve daemons instead of
// local execution: trials fan out across the fleet (least-loaded first),
// endpoints that die mid-trial are failed over, and the search degrades to
// in-process evaluation if the whole fleet is lost. With --shard-cache a
// daemon answers a trial from the trial lines already streamed to it under
// the same search fingerprint (by this or any earlier scheduler), without
// evaluating it. --journal-deterministic zeroes per-trial timing fields in the
// journal so a distributed run's journal is byte-identical to a local
// run's. The daemons themselves are runner_serve processes.
//
// While connected, the scheduler streams every journal record to the
// fleet (each daemon retains a replicated shard) and pings endpoints
// every --heartbeat-ms (default 1000, 0 disables) so a stalled endpoint
// is distinguished from a slow one; --reconnect-max-ms caps the jittered
// reconnect backoff (default 200). --adopt makes a fresh scheduler fetch
// the fleet-held journal, reconcile it into the local --journal file, and
// resume the interrupted search byte-identically -- the failover path
// after a scheduler host dies. --gossip-ms (default 1000, 0 disables)
// sets the anti-entropy period: the scheduler exchanges journal-shard
// digests with every live endpoint that often and re-streams whatever a
// digest shows missing, so a restarted daemon (see runner_serve
// --state-dir) converges back to a full replica without waiting for the
// next adoption.
//
// --engine picks the VM engine trials run on: "jit" (native x86-64 code
// compiled from the micro-op stream, the default), "microop" (predecoded
// micro-op interpreter) or "switch" (reference interpreter). All three
// are bit-identical, so journals and verdicts do not depend on the
// choice; a host that cannot run the jit falls back to microop with a
// warning (counted as jit_downgraded in --metrics-json).
//
// Exit codes: 0 search completed and the composition verified; 1 search
// completed but the final composition fails verification; 2 usage error;
// 3 internal failure (worker crash storm or internal-error trials) or an
// --out / --metrics-json file that cannot be written.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "config/textio.hpp"
#include "kernels/workload.hpp"
#include "net/socket.hpp"
#include "program/program.hpp"
#include "search/search.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "vm/machine.hpp"

using namespace fpmix;

namespace {

/// Writes `text` to `path`; false when the file cannot be opened or written.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.close();
  return !f.fail();
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark is positional; a flag-only invocation searches ep.
  std::string bench = "ep";
  int first_flag = 2;
  if (argc > 1 && argv[1][0] != '-') {
    bench = argv[1];
  } else {
    first_flag = 1;
  }
  char cls = 'W';
  bool trace = false;
  bool refine = false;
  bool quiet = false;
  bool have_fault_seed = false;
  std::uint64_t fault_seed = 0;
  std::string out_path;
  std::string metrics_path;
  search::SearchOptions opts;
  opts.keep_log = true;
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") trace = true;
    else if (arg == "--refine") refine = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--no-resume") opts.resume = false;
    else if (arg == "--isolate") opts.isolate_trials = true;
    else if (arg == "--no-image-cache") opts.image_cache = false;
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else if (arg == "--journal" && i + 1 < argc) opts.journal_path = argv[++i];
    else if (arg == "--metrics-json" && i + 1 < argc) metrics_path = argv[++i];
    else if (arg == "--threads" && i + 1 < argc) {
      std::uint64_t n = 1;
      if (!parse_u64(argv[++i], &n) || n == 0 || n > search::kMaxLanes) {
        std::fprintf(stderr, "bad --threads value '%s'\n", argv[i]);
        return 2;
      }
      opts.num_threads = static_cast<std::size_t>(n);
    }
    else if (arg == "--workers" && i + 1 < argc) {
      std::uint64_t n = 1;
      if (!parse_u64(argv[++i], &n) || n == 0 || n > search::kMaxLanes) {
        std::fprintf(stderr, "bad --workers value '%s'\n", argv[i]);
        return 2;
      }
      opts.num_workers = static_cast<std::size_t>(n);
    }
    else if (arg == "--max-crashes" && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_u64(argv[++i], &n) || n == 0 || n > 64) {
        std::fprintf(stderr, "bad --max-crashes value '%s'\n", argv[i]);
        return 2;
      }
      opts.max_trial_crashes = static_cast<std::uint32_t>(n);
    }
    else if (arg == "--worker-rlimit-as" && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_u64(argv[++i], &n) || n < 64 || n > 65536) {
        std::fprintf(stderr, "bad --worker-rlimit-as value '%s' (MiB)\n",
                     argv[i]);
        return 2;
      }
      opts.worker_rlimit_as_mb = n;
    }
    else if (arg == "--fault-seed" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &fault_seed)) {
        std::fprintf(stderr, "bad --fault-seed value '%s'\n", argv[i]);
        return 2;
      }
      have_fault_seed = true;
    }
    else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &opts.deadline_ms)) {
        std::fprintf(stderr, "bad --deadline-ms value '%s'\n", argv[i]);
        return 2;
      }
    }
    else if (arg == "--retries" && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_u64(argv[++i], &n) || n > 16) {
        std::fprintf(stderr, "bad --retries value '%s'\n", argv[i]);
        return 2;
      }
      opts.max_retries = static_cast<std::uint32_t>(n);
    }
    else if (arg == "--connect" && i + 1 < argc) {
      for (std::string_view part : split_fields(argv[++i], ",")) {
        net::Endpoint ep;
        if (!net::parse_endpoint(part, &ep)) {
          std::fprintf(stderr, "bad --connect endpoint '%.*s'\n",
                       static_cast<int>(part.size()), part.data());
          return 2;
        }
        opts.endpoints.emplace_back(part);
      }
    }
    else if (arg == "--engine" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "switch") opts.engine = vm::Engine::kSwitch;
      else if (name == "microop") opts.engine = vm::Engine::kMicroOp;
      else if (name == "jit") opts.engine = vm::Engine::kJit;
      else {
        std::fprintf(stderr, "bad --engine value '%s' "
                             "(expected switch, microop or jit)\n",
                     name.c_str());
        return 2;
      }
    }
    else if (arg == "--shard-cache") opts.shard_cache = true;
    else if (arg == "--journal-deterministic") opts.journal_timings = false;
    else if (arg == "--adopt") opts.adopt_fleet = true;
    else if (arg == "--heartbeat-ms" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &opts.heartbeat_ms) ||
          opts.heartbeat_ms > 60000) {
        std::fprintf(stderr, "bad --heartbeat-ms value '%s' (0 disables, "
                             "max 60000)\n", argv[i]);
        return 2;
      }
    }
    else if (arg == "--reconnect-max-ms" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &opts.reconnect_max_ms) ||
          opts.reconnect_max_ms == 0 || opts.reconnect_max_ms > 60000) {
        std::fprintf(stderr, "bad --reconnect-max-ms value '%s' "
                             "(1..60000)\n", argv[i]);
        return 2;
      }
    }
    else if (arg == "--gossip-ms" && i + 1 < argc) {
      if (!parse_u64(argv[++i], &opts.gossip_ms) ||
          opts.gossip_ms > 60000) {
        std::fprintf(stderr, "bad --gossip-ms value '%s' (0 disables, "
                             "max 60000)\n", argv[i]);
        return 2;
      }
    }
    else if (arg.size() == 1) cls = arg[0];
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  opts.refine_composition = refine;
  if (opts.adopt_fleet && (opts.endpoints.empty() ||
                           opts.journal_path.empty())) {
    std::fprintf(stderr, "--adopt rebuilds the local journal from the "
                         "fleet, which needs --connect and --journal\n");
    return 2;
  }

  // The stock hard-fault campaign: process-destroying faults only, so the
  // search's verdicts (and final configuration) stay identical to a clean
  // run -- every crash is absorbed as a retried fault event.
  std::unique_ptr<fault::Injector> injector;
  if (have_fault_seed) {
    fault::Injector::Rates rates;
    rates.segv = 0.03;
    rates.kill = 0.02;
    rates.oom = 0.02;
    rates.trunc_result = 0.01;
    rates.corrupt_result = 0.01;
    injector = std::make_unique<fault::Injector>(fault_seed, rates);
    opts.fault_injector = injector.get();
    if (!opts.isolate_trials && opts.endpoints.empty()) {
      std::fprintf(stderr, "--fault-seed arms hard faults, which need "
                           "--isolate or --connect\n");
      return 2;
    }
  }
  if (!quiet) {
    // Progress/metrics lines (trials/sec, cache hit rate, ETA) flow through
    // the support logger at info level.
    opts.progress_log = true;
    log::set_level(log::Level::kInfo);
  }

  const std::optional<kernels::Workload> workload =
      kernels::make_workload(bench, cls);
  if (!workload) {
    std::fprintf(stderr, "unknown benchmark '%s' or class '%c'\n",
                 bench.c_str(), cls);
    return 2;
  }
  const kernels::Workload& w = *workload;

  // The handshake re-announces the workload by name; the daemons build the
  // identical image and verifier on their side.
  opts.remote_bench = bench;
  opts.remote_class = cls;

  std::printf("searching %s ...\n", w.name.c_str());
  const program::Image img = kernels::build_image(w);
  auto index = config::StructureIndex::build(program::lift(img));
  const auto verifier = kernels::make_verifier(w, img);

  Timer t;
  const search::SearchResult res =
      search::run_search(img, &index, *verifier, opts);

  if (trace) {
    std::printf("\n-- search trace --\n");
    for (const auto& rec : res.trace) {
      std::printf("  %-40s %4zu cand  %s%s%s%s\n", rec.unit.c_str(),
                  rec.candidates, rec.passed ? "PASS" : "fail",
                  rec.cached    ? " (cached)"
                  : rec.derived ? " (derived)"
                                : "",
                  rec.failure.empty() ? "" : ": ",
                  rec.failure.c_str());
    }
  }

  std::printf("\n%s: %zu candidates, %zu configurations tested in %.1fs\n",
              w.name.c_str(), res.candidates, res.configs_tested,
              t.elapsed_seconds());
  const search::SearchMetrics& m = res.metrics;
  std::printf("trials: %zu live + %zu cached + %zu derived (%.1f%% cache "
              "hit), %.1f trials/s, %.2fs evaluating, %.3fs profiling\n",
              m.trials_live, m.trials_cached, m.trials_derived,
              m.cache_hit_rate, m.trials_per_sec, m.eval_seconds,
              m.profile_seconds);
  for (const auto& [level, secs] : m.eval_seconds_per_level) {
    std::printf("  level %-12s %.2fs\n", level.c_str(), secs);
  }
  std::printf("  stages: patch %.2fs, predecode %.2fs, setup %.2fs, "
              "jit %.2fs, run %.2fs, verify %.2fs\n",
              m.patch_seconds, m.predecode_seconds, m.setup_seconds,
              m.jit_seconds, m.run_seconds, m.verify_seconds);
  std::printf("  unattributed %.3fs of evaluation, driver %.3fs of wall\n",
              m.unattributed_seconds, m.driver_seconds);
  if (m.image_cache_hits + m.image_cache_misses > 0) {
    std::printf("incremental: %zu image hit(s) / %zu miss(es), %zu func "
                "segment(s) reused / %zu patched\n",
                m.image_cache_hits, m.image_cache_misses, m.funcs_reused,
                m.funcs_patched);
  }
  if (!m.failures_by_class.empty()) {
    std::printf("failed trials by class:\n");
    for (const auto& [cls_name, count] : m.failures_by_class) {
      std::printf("  %-16s %zu\n", cls_name.c_str(), count);
    }
  }
  if (m.retries > 0 || m.quarantined > 0) {
    std::printf("supervision: %zu retry attempt(s), %zu quarantined "
                "config(s)\n", m.retries, m.quarantined);
  }
  if (m.profile_degraded) {
    std::printf("note: profiling run failed; search used unweighted "
                "structure-order prioritisation\n");
  }
  if (opts.isolate_trials) {
    std::printf("isolation: %zu worker trial(s), %zu crash(es), "
                "%zu respawn(s), %zu timeout kill(s), %zu protocol "
                "error(s), %zu config(s) quarantined by the breaker\n",
                m.isolated_trials, m.worker_crashes, m.worker_respawns,
                m.worker_timeouts, m.protocol_errors, m.crash_quarantined);
    if (m.full_requests > 0) {
      std::printf("wire: %zu frame(s) (%zu B)\n", m.full_requests,
                  m.full_bytes);
    }
    for (std::size_t i = 0; i < m.worker_slots.size(); ++i) {
      const runner::SlotStats& s = m.worker_slots[i];
      std::printf("  worker %zu: %llu request(s), %llu respawn(s), "
                  "%llu crash(es), %llu timeout(s), %llu quarantine(s)\n",
                  i, static_cast<unsigned long long>(s.requests),
                  static_cast<unsigned long long>(s.respawns),
                  static_cast<unsigned long long>(s.crashes),
                  static_cast<unsigned long long>(s.timeouts),
                  static_cast<unsigned long long>(s.quarantines));
    }
    if (!m.crashes_by_signal.empty()) {
      std::printf("worker crash census:\n");
      for (const auto& [sig, count] : m.crashes_by_signal) {
        std::printf("  %-12s %zu\n", sig.c_str(), count);
      }
    }
    if (m.isolation_degraded) {
      std::printf("note: isolation unavailable; trials ran in-process\n");
    }
    if (m.crash_storm) {
      std::printf("ERROR: worker crash storm; search results incomplete\n");
    }
  }
  if (!opts.endpoints.empty()) {
    std::printf("distributed: %zu remote trial(s), %zu shard-cache hit(s), "
                "%zu failover(s), %zu reconnect(s), %zu endpoint(s) lost, "
                "%zu unserved\n",
                m.remote_trials, m.shard_cache_hits, m.endpoint_failovers,
                m.endpoint_reconnects, m.endpoints_lost, m.remote_unserved);
    if (m.adopted_records > 0) {
      std::printf("failover: adopted %llu journal record(s) from the "
                  "fleet\n",
                  static_cast<unsigned long long>(m.adopted_records));
    }
    if (m.missed_beats + m.lease_expiries + m.late_results +
            m.redispatched + m.breaker_trips > 0) {
      std::printf("liveness: %zu missed beat(s), %zu lease expiry(ies), "
                  "%zu late result(s) discarded, %zu trial(s) "
                  "re-dispatched, %zu breaker trip(s)\n",
                  m.missed_beats, m.lease_expiries, m.late_results,
                  m.redispatched, m.breaker_trips);
    }
    if (m.gossip_rounds + m.records_repaired + m.shards_reloaded +
            m.disk_faults + m.state_degraded > 0) {
      std::printf("durability: %zu gossip round(s), %zu record(s) "
                  "repaired, %zu shard(s) reloaded, %zu disk fault(s), "
                  "%zu endpoint(s) degraded to in-memory state\n",
                  m.gossip_rounds, m.records_repaired, m.shards_reloaded,
                  m.disk_faults, m.state_degraded);
    }
    for (const search::EndpointMetrics& em : m.endpoints_used) {
      std::printf("  endpoint %s: %u worker(s), %zu trial(s), %zu cache "
                  "hit(s), %zu failover(s), %.2fs busy%s%s\n",
                  em.address.c_str(), em.workers, em.trials, em.cache_hits,
                  em.failovers, 1e-9 * static_cast<double>(em.busy_ns),
                  em.lost ? " (lost)" : "",
                  em.state_degraded ? " (state degraded)" : "");
      if (em.pings > 0) {
        std::printf("    heartbeat: %zu ping(s) / %zu pong(s), rtt p50 "
                    "%llu us, p95 %llu us, max %llu us\n",
                    em.pings, em.pongs,
                    static_cast<unsigned long long>(em.rtt_p50_us),
                    static_cast<unsigned long long>(em.rtt_p95_us),
                    static_cast<unsigned long long>(em.rtt_max_us));
      }
      if (em.gossip_rounds > 0) {
        std::printf("    gossip: %zu round(s), %zu record(s) re-streamed\n",
                    em.gossip_rounds, em.records_repaired);
      }
    }
    if (m.remote_degraded) {
      std::printf("note: no endpoint usable; the search ran locally\n");
    }
  }
  if (m.jit_downgraded > 0) {
    std::printf("note: jit engine unavailable for %zu evaluator(s); those "
                "trials ran on the micro-op engine (results identical)\n",
                m.jit_downgraded);
  }
  std::printf("final configuration: %.1f%% static / %.1f%% dynamic "
              "replacement, composition %s\n",
              res.stats.static_pct, res.stats.dynamic_pct,
              res.final_passed ? "PASSES" : "FAILS");
  if (res.refined) {
    std::printf("refined composition: %.1f%% static / %.1f%% dynamic, "
                "verified passing\n",
                res.refined_stats.static_pct, res.refined_stats.dynamic_pct);
  }

  const config::PrecisionConfig& best =
      (res.refined && !res.final_passed) ? res.refined_config
                                         : res.final_config;
  const std::string text = config::to_text(index, best);
  if (!out_path.empty()) {
    if (!write_file(out_path, text)) {
      std::fprintf(stderr, "cannot write configuration to %s\n",
                   out_path.c_str());
      return 3;
    }
    std::printf("configuration written to %s\n", out_path.c_str());
  } else {
    std::printf("\n%s", text.c_str());
  }
  if (!metrics_path.empty()) {
    if (!write_file(metrics_path, search::metrics_json(res))) {
      std::fprintf(stderr, "cannot write metrics JSON to %s\n",
                   metrics_path.c_str());
      return 3;
    }
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }

  // Distinct exit codes so scripts and CI can tell "the program resists
  // mixed precision" (1, a clean scientific result) from "the harness
  // itself broke" (3).
  const auto internal_it = m.failures_by_class.find("internal-error");
  if (m.crash_storm ||
      (internal_it != m.failures_by_class.end() && internal_it->second > 0)) {
    return 3;
  }
  const bool composition_ok =
      res.final_passed || (res.refined && res.refined_stats.replaced_static >
                                             0);
  return composition_ok ? 0 : 1;
}
