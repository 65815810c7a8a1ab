// The automatic breadth-first configuration search (Section 2.2).
//
// Strategy: test whole modules first; descend into functions, then (via
// optional binary splitting) block partitions, blocks, instruction
// partitions and finally single instructions -- but only where the parent
// failed verification. A structure that passes is recorded and never
// subdivided, so the search finds "the coarsest granularity at which each
// part of the program can successfully be replaced by single precision."
//
// Both of the paper's optimizations are implemented and can be toggled for
// the ablation benchmarks:
//   1. binary splitting of large functions/blocks into two equally sized
//      partitions instead of enqueueing every child at once;
//   2. prioritisation by profiled execution weight, so heavy replacements
//      are ruled in or out early.
//
// Evaluations are independent (patch + run + verify on private state), so
// lanes -- in-process threads, sandboxed workers or a remote fleet, behind
// one TrialExecutor and one vote loop (trial_executor.hpp) -- evaluate
// queued units as they free up, and results commit in the order a 1-lane
// search would pop them: journals and traces do not depend on the lane
// count or the executor.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "program/image.hpp"
#include "runner/worker_pool.hpp"
#include "support/fault.hpp"
#include "verify/evaluate.hpp"
#include "verify/verifier.hpp"

namespace fpmix::search {

/// Coarsest granularity the search descends to (the paper: "the search can
/// also be configured to stop at basic blocks or functions, allowing for
/// faster convergence with coarser results").
enum class StopLevel : std::uint8_t {
  kModule = 0,
  kFunction = 1,
  kBlock = 2,
  kInstruction = 3,
};

/// Most lanes (num_threads, num_workers) a search runs; run_search throws
/// fpmix::Error for more, before it starts any thread or process.
inline constexpr std::size_t kMaxLanes = 256;

struct SearchOptions {
  StopLevel stop_level = StopLevel::kInstruction;
  bool binary_split = true;           // optimization 1 (Section 2.2)
  bool prioritize_by_profile = true;  // optimization 2 (Section 2.2)
  /// In-process lanes (1..kMaxLanes): trials evaluated at once. Results
  /// commit in 1-lane order whatever the count.
  std::size_t num_threads = 1;
  std::uint64_t max_instructions_per_run = 1ull << 32;
  bool keep_log = true;

  /// VM execution engine for every trial run (and the profiling run); the
  /// JIT by default. All engines are bit-identical -- journals, verdicts
  /// and profiles do not depend on this choice, and it is deliberately NOT
  /// part of the search fingerprint, so a journal written under one engine
  /// resumes under another. kJit degrades to kMicroOp (with a warning and
  /// SearchMetrics::jit_downgraded) on hosts that cannot run compiled
  /// code; remote endpoints may do the same per-endpoint.
  vm::Engine engine = vm::Engine::kJit;

  /// Second search phase (the paper's Section 3.1 suggestion: "a second
  /// search phase may be useful, to determine the largest subset of
  /// individually-passing instruction replacements that may be composed to
  /// create a passing final configuration"). When the union of passing
  /// units fails verification, units are re-added greedily in decreasing
  /// profile-weight order, dropping any unit whose addition breaks the
  /// composition.
  bool refine_composition = false;

  // ---- Crash safety / incrementality --------------------------------------
  /// Append-only JSONL trial journal. When non-empty, every completed trial
  /// is recorded here as it finishes, and (with `resume`) an existing
  /// journal is replayed before searching so already-evaluated
  /// configurations are served from cache instead of re-running the
  /// verifier. See trial_cache.hpp for the record format.
  std::string journal_path;
  /// Replay an existing journal at `journal_path` before searching. Off, an
  /// existing journal is only appended to, never consulted.
  bool resume = true;

  // ---- Trial supervision ---------------------------------------------------
  /// Wall-clock deadline per trial run, in milliseconds; 0 disables. A
  /// configuration that spins past it is classified FailureClass::kTimeout
  /// instead of hanging the search (the instruction budget still applies).
  /// Also applied to the initial profiling run.
  std::uint64_t deadline_ms = 0;
  /// Extra evaluation attempts per trial for flaky-verdict tolerance. With
  /// N > 0 a trial is evaluated until one verdict holds a strict majority
  /// of the N+1 allowed attempts (ties fail); trials whose attempts
  /// disagreed are reported in SearchResult::quarantine.
  std::uint32_t max_retries = 0;
  /// Deterministic fault campaign for robustness testing; nullptr runs
  /// clean. Folded into the search fingerprint so faulted journals never
  /// contaminate fault-free runs. See support/fault.hpp.
  const fault::Injector* fault_injector = nullptr;

  // ---- Process isolation ---------------------------------------------------
  /// Execute every trial in a forked, rlimit-capped worker process
  /// (src/runner): a trial that SIGSEGVs, OOMs or hard-hangs kills its
  /// worker, never the search. Worker deaths are fault events, not
  /// verdicts -- the trial is retried on a fresh worker, and a config that
  /// kills max_trial_crashes workers in a row is quarantined as failing.
  /// Degrades to the in-process path (with a warning and
  /// SearchMetrics::isolation_degraded) on platforms without fork. The
  /// driver stays single-threaded in this mode; the workers are the
  /// parallelism, so num_threads doubles as the worker count unless
  /// num_workers overrides it. The journal fsyncs every sealed line in
  /// this mode: a crashing fleet is exactly when it must survive.
  bool isolate_trials = false;
  /// Worker processes in isolate mode; 0 uses num_threads.
  std::size_t num_workers = 0;
  /// Per-config crash-loop circuit breaker threshold (see isolate_trials).
  std::uint32_t max_trial_crashes = 3;
  /// RLIMIT_AS each worker applies to itself, in MiB; 0 leaves the address
  /// space uncapped. Ignored in sanitizer builds.
  std::uint64_t worker_rlimit_as_mb = 512;

  // ---- Incremental trial pipeline ------------------------------------------
  /// Reuse patch + predecode work across trials through a shared
  /// verify::TrialBuilder: per-function micro-op variant caching, spliced
  /// segment predecode, and an LRU of whole built images, one per executor
  /// lane -- used by the in-process path and inherited by each long-lived
  /// sandboxed worker. Off, every evaluation builds through a one-shot
  /// TrialBuilder: the same pipeline with no reuse across trials.
  /// Never changes results (incremental builds are bit-identical to
  /// from-scratch builds); disable only for A/B benchmarking.
  bool image_cache = true;

  // ---- Distributed execution -----------------------------------------------
  /// runner_serve endpoints ("host:port"). Non-empty routes trial
  /// evaluation through the network scheduler instead of local execution
  /// (isolate_trials is then ignored; the endpoints sandbox trials in
  /// their own pools). Trials no endpoint can serve fall back to
  /// in-process evaluation, so the search always completes.
  std::vector<std::string> endpoints;
  /// Workload identity announced in the session handshake; the endpoints
  /// build it on their side, so it must denote the same image and
  /// verifier as the ones passed to run_search (the handshake
  /// cross-checks the verifier fingerprint and drops mismatched
  /// endpoints).
  std::string remote_bench;
  char remote_class = 'W';
  /// Have endpoints answer a trial that some search with this search
  /// fingerprint already committed (and streamed to their journal shards)
  /// without evaluating it, so schedulers sharing a fleet do not evaluate
  /// a committed configuration twice.
  bool shard_cache = false;
  std::uint64_t connect_timeout_ms = 2000;
  /// Consecutive failures before an endpoint is abandoned for the run.
  std::uint32_t max_endpoint_failures = 3;
  /// Heartbeat period: the scheduler pings every live endpoint this often
  /// and tracks RTT; an endpoint missing 3 consecutive beats is declared
  /// dead (its leases expire and its trials re-dispatch). 0 disables
  /// heartbeats (liveness then rests on send failures alone).
  std::uint64_t heartbeat_ms = 1000;
  /// Anti-entropy gossip period: the scheduler asks every live endpoint
  /// for a digest of its retained journal shard this often and re-streams
  /// whatever the digest shows missing, so a restarted or disk-damaged
  /// endpoint converges back to the full replica without waiting for an
  /// adoption. 0 disables gossip.
  std::uint64_t gossip_ms = 1000;
  /// Reconnect backoff cap, in milliseconds (the jittered exponential
  /// circuit breaker's longest open interval before a half-open probe).
  std::uint64_t reconnect_max_ms = 200;
  /// Adopt a running search from the fleet: before replaying the local
  /// journal, fetch every endpoint's replicated journal shard, reconcile
  /// the union by sequence number + CRC, and rewrite journal_path with it.
  /// A fresh scheduler started with this flag resumes a SIGKILLed
  /// predecessor's search byte-identically. Requires journal_path and
  /// endpoints.
  bool adopt_fleet = false;
  /// Record per-trial timing fields (eval_ns, the image-cache flag) in
  /// the journal. Off, they are zeroed so two runs of the same search --
  /// local or distributed, any fleet shape -- produce byte-identical
  /// journals.
  bool journal_timings = true;

  // ---- Observability -------------------------------------------------------
  /// Emit progress lines (trials/sec, cache hit rate, queue depth, ETA)
  /// through support/log at info level while the search runs.
  bool progress_log = false;
};

/// One tested configuration, for logs and the search trace.
struct TestRecord {
  std::string unit;        // e.g. "module solver", "func conj_grad[3..5]"
  std::string key;         // trial_key (journal/cache identity)
  std::size_t candidates;  // candidate instructions the unit covers
  bool passed;
  bool cached = false;       // served from the trial cache, not evaluated
  /// Committed from a verdict this search settled live for the same key
  /// (a failing unit's child with the parent's candidate set); not
  /// evaluated, not journaled.
  bool derived = false;
  std::uint64_t eval_ns = 0; // live evaluation wall time (0 unless live)
  std::string failure;       // trap/verification detail when failed
};

/// Per-endpoint accounting of a distributed run (SearchOptions::endpoints).
struct EndpointMetrics {
  std::string address;
  std::uint32_t workers = 0;     // pool width behind the endpoint
  std::size_t trials = 0;        // results delivered (cache hits included)
  std::size_t cache_hits = 0;    // served by the endpoint's shard cache
  std::size_t failovers = 0;     // in-flight trials rerouted off this shard
  std::size_t reconnects = 0;    // successful reconnects after a drop
  std::size_t disconnects = 0;   // sessions lost (EOF/error/corrupt)
  std::uint64_t busy_ns = 0;     // summed server-side trial wall time
  bool lost = false;             // consecutive-failure budget exhausted
  /// The endpoint could not run the requested jit engine and evaluated on
  /// the micro-op engine instead (results identical; timing differs).
  bool jit_downgraded = false;

  // ---- Failover / liveness (heartbeat-enabled runs) -----------------------
  std::size_t pings = 0;          // heartbeat probes sent
  std::size_t pongs = 0;          // echoes received
  std::size_t missed_beats = 0;   // a beat came due with the last unanswered
  std::size_t lease_expiries = 0; // in-flight leases voided by liveness death
  std::size_t late_results = 0;   // results discarded (expired/stale lease)
  std::size_t redispatched = 0;   // dispatches of a trial some shard died on
  std::size_t breaker_trips = 0;  // circuit breaker closed->open transitions
  std::uint64_t rtt_p50_us = 0;   // heartbeat round-trip percentiles
  std::uint64_t rtt_p95_us = 0;
  std::uint64_t rtt_max_us = 0;
  /// Journal records this endpoint already retained at handshake time.
  std::uint64_t journal_records = 0;

  // ---- Durability / anti-entropy (v4 endpoints) ---------------------------
  std::size_t gossip_rounds = 0;     // digest answers compared
  std::size_t records_repaired = 0;  // journal records re-streamed by gossip
  /// State files the endpoint restored at startup (from the HelloAck).
  std::uint64_t shards_reloaded = 0;
  /// Storage failures (injected or real) the endpoint has absorbed.
  std::uint64_t disk_faults = 0;
  /// The endpoint's shard store degraded to in-memory operation.
  bool state_degraded = false;
};

/// Throughput and cache statistics of one run_search call.
struct SearchMetrics {
  std::size_t trials_total = 0;   // == SearchResult::configs_tested
  std::size_t trials_live = 0;    // actually patched + run + verified
  std::size_t trials_cached = 0;  // served from the journal-backed cache
  /// Committed from a verdict this same search settled live under the same
  /// trial_key; live + cached + derived == total.
  std::size_t trials_derived = 0;
  double cache_hit_rate = 0.0;    // percent of trials served from cache
  double wall_seconds = 0.0;      // whole search, profiling included
  double eval_seconds = 0.0;      // summed live evaluation time
  double trials_per_sec = 0.0;    // trials_total / wall_seconds
  /// Live evaluation seconds attributed to each descent level
  /// ("module", "function", "func-part", "block", "block-part", "insn",
  /// "composition").
  std::map<std::string, double> eval_seconds_per_level;
  /// Stage breakdown summed over every live evaluation attempt's
  /// verify::TrialCost: where each trial's time went (patch = instrument
  /// and lay out, plus tearing down an evicted image; predecode = segments
  /// + the spliced ExecutableImage table; setup = Machine construction and
  /// teardown; jit = native compile, placement and link of a new image;
  /// run = guest execution; verify = output check).
  double patch_seconds = 0.0;
  double predecode_seconds = 0.0;
  double setup_seconds = 0.0;
  double jit_seconds = 0.0;
  double run_seconds = 0.0;
  double verify_seconds = 0.0;
  /// Search wall time outside the lanes' share of evaluation: wall_seconds
  /// - eval_seconds / lanes (profiling, commits, waiting on the commit
  /// order and on idle lanes).
  double driver_seconds = 0.0;
  /// Wall time of the profiling run of the original binary. It runs beside
  /// the first trials, so it is not all on the search's critical path.
  double profile_seconds = 0.0;
  /// Evaluation time no stage accounts for: eval_seconds minus the six
  /// stage sums above (dispatch, result hand-off, transport).
  double unattributed_seconds = 0.0;

  // ---- Incremental trial pipeline -----------------------------------------
  /// Whole-image cache hits/misses across live evaluation attempts, summed
  /// over both engines (sandboxed workers report theirs over the wire).
  std::size_t image_cache_hits = 0;
  std::size_t image_cache_misses = 0;
  /// Function-granularity reuse: segments spliced unchanged from the
  /// variant cache vs. re-lowered from scratch.
  std::size_t funcs_reused = 0;
  std::size_t funcs_patched = 0;

  // ---- Failure taxonomy and supervision -----------------------------------
  /// Failed trials by failure_class_name ("trap", "sentinel-escape",
  /// "divergence", "timeout", "budget", "internal-error"); cached and live
  /// trials both count -- this is the per-class census nas_search prints.
  std::map<std::string, std::size_t> failures_by_class;
  /// Evaluation attempts beyond the first, summed over all trials
  /// (max_retries policy).
  std::size_t retries = 0;
  /// Trials whose attempts returned mixed verdicts (non-deterministic
  /// under the active campaign); they resolve by majority vote.
  std::size_t quarantined = 0;
  /// The profiling run of the original binary failed, and the search fell
  /// back to unweighted structure-order prioritisation.
  bool profile_degraded = false;
  /// Execution contexts that downgraded a requested jit engine to the
  /// micro-op engine (1 for the local process, plus one per remote endpoint
  /// that answered the handshake with the downgrade). Results are
  /// unaffected; only the expected speedup is.
  std::size_t jit_downgraded = 0;

  // ---- Process isolation --------------------------------------------------
  /// Trial executions dispatched to sandboxed workers (retries included).
  std::size_t isolated_trials = 0;
  /// Worker deaths not initiated by the supervisor (SIGSEGV, OOM-kill, ...).
  std::size_t worker_crashes = 0;
  /// Workers respawned after a death.
  std::size_t worker_respawns = 0;
  /// Workers the supervisor killed for exceeding the trial deadline
  /// (TERM, then KILL after a grace period).
  std::size_t worker_timeouts = 0;
  /// Corrupt/truncated result frames the pipe CRC caught.
  std::size_t protocol_errors = 0;
  /// Configs quarantined by the crash-loop circuit breaker.
  std::size_t crash_quarantined = 0;
  /// Worker-death census by signal name ("SIGSEGV" -> 17; "exit:N" for
  /// nonzero exits).
  std::map<std::string, std::size_t> crashes_by_signal;
  /// The pool hit its consecutive-death threshold and aborted: the
  /// environment, not any one config, is broken.
  bool crash_storm = false;
  /// isolate_trials was requested but fork is unavailable (or no worker
  /// could be spawned); the search ran in-process instead.
  bool isolation_degraded = false;
  /// Trial requests sent to workers, each carrying a full canonical config
  /// key, and the key bytes. delta_requests/delta_bytes are always 0: no
  /// other encoding exists. They stay because the benchmark reads them.
  std::size_t delta_requests = 0;
  std::size_t full_requests = 0;
  std::size_t delta_bytes = 0;
  std::size_t full_bytes = 0;
  /// One entry per worker slot (isolate mode only).
  std::vector<runner::SlotStats> worker_slots;

  // ---- Distributed execution ----------------------------------------------
  /// Trial results served by remote endpoints (shard-cache hits included).
  std::size_t remote_trials = 0;
  /// Trials answered from an endpoint's journal shard without evaluation.
  std::size_t shard_cache_hits = 0;
  /// In-flight trials rerouted off a dying endpoint onto another shard.
  std::size_t endpoint_failovers = 0;
  std::size_t endpoint_reconnects = 0;
  std::size_t endpoint_disconnects = 0;
  /// Endpoints abandoned after exhausting their consecutive-failure budget.
  std::size_t endpoints_lost = 0;
  /// Trials no endpoint could serve; evaluated in-process instead.
  std::size_t remote_unserved = 0;
  /// Endpoints were configured but none was usable at startup; the whole
  /// search ran locally.
  bool remote_degraded = false;
  /// Heartbeat/failover totals across the fleet (per-endpoint detail in
  /// endpoints_used).
  std::size_t missed_beats = 0;
  std::size_t lease_expiries = 0;
  std::size_t late_results = 0;
  std::size_t redispatched = 0;
  std::size_t breaker_trips = 0;
  /// Journal records reconciled from the fleet on --adopt failover (0 on
  /// ordinary runs).
  std::size_t adopted_records = 0;
  /// Durability totals across the fleet (per-endpoint detail in
  /// endpoints_used): digest rounds compared, records gossip re-streamed,
  /// state files endpoints restored at startup, storage failures absorbed,
  /// and endpoints whose shard store degraded to in-memory operation.
  std::size_t gossip_rounds = 0;
  std::size_t records_repaired = 0;
  std::size_t shards_reloaded = 0;
  std::size_t disk_faults = 0;
  std::size_t state_degraded = 0;
  /// One entry per configured endpoint (distributed mode only).
  std::vector<EndpointMetrics> endpoints_used;
};

struct SearchResult {
  config::PrecisionConfig final_config;  // union of all passing units
  bool final_passed = false;             // verification of the composition
  std::size_t candidates = 0;            // |Pd|
  std::size_t configs_tested = 0;        // includes the final composition
  config::ReplacementStats stats;        // static/dynamic % of final config
  std::vector<TestRecord> trace;         // only when keep_log

  /// Results of the optional composition-refinement phase. Only meaningful
  /// when SearchOptions::refine_composition was set and the plain union
  /// failed: `refined_config` is a verified-passing subset composition.
  bool refined = false;
  config::PrecisionConfig refined_config;
  config::ReplacementStats refined_stats;

  /// Config digests whose evaluation attempts returned mixed verdicts
  /// (see SearchOptions::max_retries); their recorded outcome is the
  /// majority vote, but they should not be trusted as deterministic.
  std::vector<std::string> quarantine;

  SearchMetrics metrics;
};

/// A trial's identity: the digest of cfg.effective(index). Configs with
/// equal keys build bit-identical images and so get the same verdict; the
/// journal, the trial cache, fault draws and the fleet's shard cache all
/// key trials by it. A search unit's key is the digest of its candidate set.
std::string trial_key(const config::StructureIndex& index,
                      const config::PrecisionConfig& cfg);

/// Runs the full pipeline of Figure 2: profile the original binary, search
/// the configuration space breadth-first, compose and test the final
/// configuration. `index` must be built from `original` and is updated in
/// place with profile weights. The profiling run overlaps the module-level
/// trials, which are always tested; nothing commits before it is applied.
SearchResult run_search(const program::Image& original,
                        config::StructureIndex* index,
                        const verify::Verifier& verifier,
                        const SearchOptions& options = {});

/// The run's metrics as one JSON object: every SearchMetrics counter, the
/// per-endpoint and per-worker-slot tables, the process-wide JIT lowering
/// census (vm::jit::lowering_totals), and the verdict fields of `result`.
/// Keys keep a fixed order; times print with six decimals.
std::string metrics_json(const SearchResult& result);

}  // namespace fpmix::search
