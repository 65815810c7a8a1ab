#include "search/search.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>

#include "net/socket.hpp"
#include "runner/worker_pool.hpp"
#include "search/scheduler.hpp"
#include "search/trial_executor.hpp"
#include "search/trial_cache.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "verify/trial_builder.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"

namespace fpmix::search {

using config::Precision;
using config::PrecisionConfig;
using config::StructureIndex;

namespace {

/// A unit of the configuration space: one structure (or partition) whose
/// candidates are flipped to single precision while the rest of the program
/// stays double.
struct Unit {
  enum class Kind : std::uint8_t {
    kModule,
    kFunction,
    kFuncPart,   // contiguous range of a function's blocks
    kBlock,
    kBlockPart,  // contiguous range of a block's candidate instructions
    kInstr,
  };
  Kind kind;
  std::size_t id = 0;                 // module/function/block/instr index
  std::vector<std::size_t> blocks;    // kFuncPart
  std::vector<std::size_t> instrs;    // kBlockPart
  std::uint64_t weight = 0;           // profiled executions of candidates
  std::uint64_t seq = 0;              // tie-break for deterministic order
};

std::vector<std::size_t> unit_candidates(const StructureIndex& ix,
                                         const Unit& u) {
  switch (u.kind) {
    case Unit::Kind::kModule:
      return ix.modules()[u.id].candidates;
    case Unit::Kind::kFunction:
      return ix.funcs()[u.id].candidates;
    case Unit::Kind::kFuncPart: {
      std::vector<std::size_t> out;
      for (std::size_t b : u.blocks) {
        const auto& c = ix.blocks()[b].candidates;
        out.insert(out.end(), c.begin(), c.end());
      }
      return out;
    }
    case Unit::Kind::kBlock:
      return ix.blocks()[u.id].candidates;
    case Unit::Kind::kBlockPart:
      return u.instrs;
    case Unit::Kind::kInstr:
      return {u.id};
  }
  return {};
}

std::uint64_t weight_of(const StructureIndex& ix,
                        const std::vector<std::size_t>& candidates) {
  std::uint64_t w = 0;
  for (std::size_t i : candidates) w += ix.instrs()[i].exec_weight;
  return w;
}

PrecisionConfig config_for(const Unit& u) {
  PrecisionConfig cfg;
  switch (u.kind) {
    case Unit::Kind::kModule:
      cfg.set_module(u.id, Precision::kSingle);
      break;
    case Unit::Kind::kFunction:
      cfg.set_func(u.id, Precision::kSingle);
      break;
    case Unit::Kind::kFuncPart:
      for (std::size_t b : u.blocks) cfg.set_block(b, Precision::kSingle);
      break;
    case Unit::Kind::kBlock:
      cfg.set_block(u.id, Precision::kSingle);
      break;
    case Unit::Kind::kBlockPart:
    case Unit::Kind::kInstr:
      break;  // fallthrough below
  }
  if (u.kind == Unit::Kind::kBlockPart) {
    for (std::size_t i : u.instrs) cfg.set_instr(i, Precision::kSingle);
  } else if (u.kind == Unit::Kind::kInstr) {
    cfg.set_instr(u.id, Precision::kSingle);
  }
  return cfg;
}

const char* level_name(Unit::Kind k) {
  switch (k) {
    case Unit::Kind::kModule: return "module";
    case Unit::Kind::kFunction: return "function";
    case Unit::Kind::kFuncPart: return "func-part";
    case Unit::Kind::kBlock: return "block";
    case Unit::Kind::kBlockPart: return "block-part";
    case Unit::Kind::kInstr: return "insn";
  }
  return "?";
}

std::string unit_name(const StructureIndex& ix, const Unit& u) {
  switch (u.kind) {
    case Unit::Kind::kModule:
      return strformat("module %s", ix.modules()[u.id].name.c_str());
    case Unit::Kind::kFunction:
      return strformat("func %s", ix.funcs()[u.id].name.c_str());
    case Unit::Kind::kFuncPart: {
      const auto& f = ix.funcs()[ix.blocks()[u.blocks.front()].func];
      return strformat("func %s part[%zu blocks]", f.name.c_str(),
                       u.blocks.size());
    }
    case Unit::Kind::kBlock:
      return strformat("block 0x%llx",
                       static_cast<unsigned long long>(
                           ix.blocks()[u.id].head_addr));
    case Unit::Kind::kBlockPart: {
      return strformat("block 0x%llx part[%zu insns]",
                       static_cast<unsigned long long>(
                           ix.blocks()[ix.instrs()[u.instrs.front()].block]
                               .head_addr),
                       u.instrs.size());
    }
    case Unit::Kind::kInstr:
      return strformat("insn 0x%llx",
                       static_cast<unsigned long long>(
                           ix.instrs()[u.id].addr));
  }
  return "?";
}

/// Folds one attempt's stage costs and incremental-pipeline accounting into
/// the trial's accumulators (t->result holds that attempt).
void note_attempt(TrialEval* t) {
  const verify::EvalResult& r = t->result;
  t->patch_ns += r.patch_ns;
  t->predecode_ns += r.predecode_ns;
  t->run_ns += r.run_ns;
  t->verify_ns += r.verify_ns;
  t->patch_saved_ns += r.patch_saved_ns;
  t->predecode_saved_ns += r.predecode_saved_ns;
  // funcs_total == 0 means the attempt never reached a TrialBuilder
  // (legacy path, synthetic breaker/storm verdicts): no cache traffic.
  if (r.funcs_total > 0) {
    if (r.image_cache_hit) {
      ++t->image_hits;
    } else {
      ++t->image_misses;
    }
    t->funcs_reused += r.funcs_reused;
    t->funcs_patched += r.funcs_total - r.funcs_reused;
  }
}

/// Settles the vote: majority verdict, ties failing (a config that cannot
/// be trusted to pass must not enter the final composition).
void apply_majority_verdict(TrialEval* t, std::uint32_t passes,
                            std::uint32_t fails) {
  const bool verdict = passes > fails;
  if (verdict == t->result.passed) return;
  t->result.passed = verdict;
  if (verdict) {
    t->result.failure_class = verify::FailureClass::kNone;
    t->result.failure.clear();
  } else if (t->result.failure_class == verify::FailureClass::kNone) {
    t->result.failure_class = verify::FailureClass::kDivergence;
    t->result.failure = "verification failed (majority vote)";
  }
}

/// In-process backend: verify::evaluate_config with the injector's
/// per-(key, attempt) faults, fanned out on a ThreadPool.
class InProcessExecutor final : public TrialExecutor {
 public:
  InProcessExecutor(const runner::WorkerContext& ctx, std::size_t threads)
      : TrialExecutor(/*sandboxed=*/false, threads), ctx_(ctx) {}

  std::vector<runner::TrialOutcome> run_batch(
      const std::vector<runner::TrialJob>& jobs,
      std::uint32_t attempt) override {
    std::vector<runner::TrialOutcome> outs(jobs.size());
    // Private state per evaluation; each task writes only its own outcome.
    const auto run_one = [&](std::size_t i) {
      verify::EvalOptions eopts = ctx_.eval;
      fault::TrialFaults faults;
      if (ctx_.injector != nullptr) {
        faults = ctx_.injector->for_trial(jobs[i].key, attempt);
        eopts.faults = &faults;
      }
      Timer timer;
      outs[i].result = verify::evaluate_config(
          *ctx_.image, *ctx_.index, *jobs[i].config, *ctx_.verifier, eopts);
      outs[i].wall_ns = timer.elapsed_ns();
    };
    if (jobs.size() == 1 || lanes() == 1) {
      for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    } else {
      // Created on first use: no thread exists while isolate mode forks
      // its workers, and a fleet needs threads only once it is lost.
      if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(lanes());
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        pool_->submit([&run_one, i] { run_one(i); });
      }
      pool_->wait_idle();
    }
    return outs;
  }

 private:
  const runner::WorkerContext ctx_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Sandboxed-worker backend over a started runner::WorkerPool.
class PoolExecutor final : public TrialExecutor {
 public:
  PoolExecutor(std::unique_ptr<runner::WorkerPool> pool, std::size_t workers)
      : TrialExecutor(/*sandboxed=*/true, workers), pool_(std::move(pool)) {}

  std::vector<runner::TrialOutcome> run_batch(
      const std::vector<runner::TrialJob>& jobs,
      std::uint32_t /*attempt*/) override {
    return pool_->run_batch(jobs);
  }

  void fold_metrics(SearchMetrics* m) const override {
    const runner::PoolStats& ps = pool_->stats();
    m->isolated_trials = ps.isolated_trials;
    m->worker_crashes = ps.worker_crashes;
    m->worker_respawns = ps.workers_respawned;
    m->worker_timeouts = ps.timeouts_killed;
    m->protocol_errors = ps.protocol_errors;
    m->crash_quarantined = ps.quarantined_configs;
    m->crash_storm = ps.crash_storm;
    for (const auto& [sig, n] : ps.crashes_by_signal) {
      m->crashes_by_signal[sig] = n;
    }
    m->delta_requests = ps.delta_requests;
    m->full_requests = ps.full_requests;
    m->delta_bytes = ps.delta_bytes;
    m->full_bytes = ps.full_bytes;
    for (const runner::SlotStats& ss : ps.slots) {
      m->worker_slots.push_back(WorkerSlotMetrics{
          ss.requests, ss.respawns, ss.crashes, ss.timeouts, ss.quarantines});
    }
  }

 private:
  std::unique_ptr<runner::WorkerPool> pool_;
};

/// Remote-fleet backend over a borrowed Scheduler, as wide as the fleet at
/// connect time; trials it cannot serve fall back to in-process.
class FleetExecutor final : public TrialExecutor {
 public:
  FleetExecutor(Scheduler* sched, std::unique_ptr<TrialExecutor> local)
      : TrialExecutor(/*sandboxed=*/true, sched->capacity()), sched_(sched),
        local_(std::move(local)) {}

  std::vector<runner::TrialOutcome> run_batch(
      const std::vector<runner::TrialJob>& jobs,
      std::uint32_t /*attempt*/) override {
    std::vector<runner::TrialOutcome> outs = sched_->run_batch(jobs);
    for (const runner::TrialOutcome& o : outs) {
      if (!o.served) ++unserved_;
    }
    return outs;
  }

  TrialExecutor* fallback() override { return local_.get(); }

  void fold_metrics(SearchMetrics* m) const override {
    m->remote_unserved = unserved_;
    m->endpoints_used = sched_->endpoint_metrics();
    for (const EndpointMetrics& em : m->endpoints_used) {
      m->remote_trials += em.trials;
      m->shard_cache_hits += em.cache_hits;
      m->endpoint_failovers += em.failovers;
      m->endpoint_reconnects += em.reconnects;
      m->endpoint_disconnects += em.disconnects;
      m->missed_beats += em.missed_beats;
      m->lease_expiries += em.lease_expiries;
      m->late_results += em.late_results;
      m->redispatched += em.redispatched;
      m->breaker_trips += em.breaker_trips;
      m->gossip_rounds += em.gossip_rounds;
      m->records_repaired += em.records_repaired;
      m->shards_reloaded += em.shards_reloaded;
      m->disk_faults += em.disk_faults;
      if (em.state_degraded) ++m->state_degraded;
      if (em.lost) ++m->endpoints_lost;
      if (em.jit_downgraded) ++m->jit_downgraded;
    }
  }

 private:
  Scheduler* const sched_;
  std::unique_ptr<TrialExecutor> local_;
  std::size_t unserved_ = 0;
};

class Searcher {
 public:
  Searcher(const program::Image& original, StructureIndex* index,
           const verify::Verifier& verifier, const SearchOptions& options)
      : original_(original), ix_(*index), verifier_(verifier),
        options_(options) {}

  SearchResult run() {
    resolve_engine();
    compute_fingerprint();
    // The scheduler comes up before the journal so --adopt can rebuild the
    // local file from the fleet's replicated shards before replay.
    setup_remote();
    adopt_fleet_journal();
    setup_journal();
    profile_original();
    setup_builder();
    setup_executor();
    seed_queue();

    while (!queue_.empty()) {
      // Pop a batch (highest priority first), resolve cache hits, and
      // evaluate the misses concurrently. Trials are committed in pop
      // order, so trace/journal order is deterministic for any lane count.
      const std::size_t batch = std::min(queue_.size(), executor_->lanes());
      std::vector<Trial> trials;
      trials.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) {
        trials.push_back(make_trial(pop_unit()));
      }

      std::vector<TrialEval*> live;
      for (Trial& t : trials) {
        if (!t.cached) live.push_back(&t);
      }
      vote_batch(*executor_, live, options_.max_retries);

      for (Trial& t : trials) {
        commit_trial(&t, unit_name(ix_, t.unit),
                     unit_candidates(ix_, t.unit).size(),
                     level_name(t.unit.kind));
        process_result(t.unit, t.result);
      }
    }

    // Compose and test the final configuration (Section 2.2: "the union of
    // all previously-found successful individual configurations").
    SearchResult out;
    out.final_config = final_config_;
    out.candidates = ix_.candidates().size();
    out.final_passed =
        run_config_trial(final_config_, "final composition").passed;

    // Optional second phase: precision interactions can make the plain
    // union fail even though each unit passed alone; rebuild a passing
    // composition greedily, heaviest units first.
    if (!out.final_passed && options_.refine_composition) {
      std::stable_sort(passing_.begin(), passing_.end(),
                       [](const PassingUnit& a, const PassingUnit& b) {
                         return a.weight > b.weight;
                       });
      PrecisionConfig composed;
      for (const PassingUnit& u : passing_) {
        PrecisionConfig trial = composed;
        trial.merge_union(u.cfg);
        const verify::EvalResult r =
            run_config_trial(trial, "refine composition");
        if (r.passed) composed = std::move(trial);
      }
      out.refined = true;
      out.refined_config = composed;
      out.refined_stats = config::replacement_stats(ix_, composed);
    }

    out.configs_tested = tested_;
    out.stats = config::replacement_stats(ix_, final_config_);
    out.trace = std::move(trace_);
    out.quarantine = std::move(quarantine_);

    metrics_.trials_total = tested_;
    metrics_.wall_seconds = wall_timer_.elapsed_seconds();
    metrics_.cache_hit_rate =
        tested_ == 0 ? 0.0
                     : 100.0 * static_cast<double>(metrics_.trials_cached) /
                           static_cast<double>(tested_);
    metrics_.trials_per_sec =
        metrics_.wall_seconds > 0.0
            ? static_cast<double>(tested_) / metrics_.wall_seconds
            : 0.0;
    executor_->fold_metrics(&metrics_);
    out.metrics = metrics_;
    if (options_.progress_log) {
      log::infof("search done: %zu trials (%zu live, %zu cached, %.1f%% "
                 "hit) in %.2fs, %.1f trials/s",
                 metrics_.trials_total, metrics_.trials_live,
                 metrics_.trials_cached, metrics_.cache_hit_rate,
                 metrics_.wall_seconds, metrics_.trials_per_sec);
    }
    return out;
  }

 private:
  /// Resolves the requested engine against this host's capabilities; the
  /// result drives the profiling run, in-process trials and the local
  /// worker pool. Remote endpoints resolve independently in the handshake
  /// (the hello carries the *requested* engine: a jit-capable server
  /// should compile even when this host cannot). Deliberately not part of
  /// the search fingerprint -- every engine is bit-identical.
  void resolve_engine() {
    engine_ = options_.engine;
    if (engine_ == vm::Engine::kJit && !vm::jit::jit_supported()) {
      log::warnf("search: jit engine unavailable (%s); running trials on "
                 "the micro-op engine",
                 vm::jit::jit_unsupported_reason());
      ++metrics_.jit_downgraded;
      engine_ = vm::Engine::kMicroOp;
    }
  }

  void profile_original() {
    vm::Machine::Options mopts;
    mopts.max_instructions = options_.max_instructions_per_run;
    mopts.engine = engine_;
    mopts.deadline_ns = options_.deadline_ms * 1000000ull;
    vm::Machine machine(original_, mopts);
    const vm::RunResult r = machine.run();
    if (!r.ok()) {
      // The profile only steers trial *order* (optimization 2), never
      // correctness -- so a failing reference run degrades the search to
      // unweighted structure-order prioritisation instead of aborting it.
      log::warnf(
          "search: profiling run of the original binary failed (%s); "
          "falling back to unweighted structure-order prioritisation",
          r.trap_message.c_str());
      metrics_.profile_degraded = true;
      return;
    }
    ix_.apply_profile(machine.profile_by_address());
  }

  void seed_queue() {
    for (std::size_t m = 0; m < ix_.modules().size(); ++m) {
      Unit u;
      u.kind = Unit::Kind::kModule;
      u.id = m;
      push_unit(std::move(u));
    }
  }

  void push_unit(Unit u) {
    const auto cands = unit_candidates(ix_, u);
    if (cands.empty()) return;
    u.weight = weight_of(ix_, cands);
    u.seq = next_seq_++;
    queue_.push_back(std::move(u));
  }

  Unit pop_unit() {
    FPMIX_CHECK(!queue_.empty());
    std::size_t best = 0;
    if (options_.prioritize_by_profile) {
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        const Unit& a = queue_[i];
        const Unit& b = queue_[best];
        if (a.weight > b.weight ||
            (a.weight == b.weight && a.seq < b.seq)) {
          best = i;
        }
      }
    }
    Unit u = std::move(queue_[best]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
    return u;
  }

  /// One configuration on its way through the cache -> evaluate -> commit
  /// pipeline. `unit` is only meaningful for frontier trials; composition
  /// trials carry an empty default.
  struct Trial : TrialEval {
    Unit unit;
    bool cached = false;
  };

  void compute_fingerprint() {
    std::string fault_tag = options_.fault_injector != nullptr
                                ? options_.fault_injector->fingerprint_tag()
                                : "";
    // Isolated execution under an active fault campaign draws per-execution
    // (not per-vote-attempt) fault indices and can absorb hard faults the
    // in-process path never sees; mark the fingerprint so such journals
    // never feed an in-process run. Clean journals stay mode-compatible.
    // Remote endpoints run the same sandboxed-pool semantics, so a
    // distributed faulted journal is interchangeable with a local isolated
    // one (the distributed-soak tests rely on exactly that).
    if (!fault_tag.empty() &&
        (options_.isolate_trials || !options_.endpoints.empty())) {
      fault_tag += "+iso";
    }
    search_fp_ = search_fingerprint(verifier_.fingerprint(),
                                    options_.max_instructions_per_run,
                                    options_.deadline_ms, fault_tag);
  }

  /// Replicates one freshly committed sealed journal line to the fleet.
  void stream_line(const std::string& line) {
    if (sched_ != nullptr && !line.empty()) sched_->stream_journal(line);
  }

  /// Scheduler failover (--adopt): rebuild the local journal from the
  /// fleet's replicated shards before the ordinary resume replay runs.
  /// Reconciliation rules: only lines whose seal verifies participate (a
  /// torn replica tail or damaged local line is healed by any intact
  /// copy); lines are keyed by their sealed sequence number, first valid
  /// copy wins; the union must begin with this search's meta record. The
  /// reconciled file then replays through the normal path, and appending
  /// continues at max(seq)+1 with no new meta -- so a resumed search's
  /// journal is byte-identical to an undisturbed run's.
  void adopt_fleet_journal() {
    if (!options_.adopt_fleet) return;
    if (options_.journal_path.empty()) {
      log::warnf("search: --adopt requested without a journal; ignored");
      return;
    }
    std::vector<std::string> fleet_lines;
    std::size_t served = 0;
    if (sched_ != nullptr) served = sched_->fetch_fleet_journal(&fleet_lines);
    if (served == 0) {
      log::warnf("search: adopt: no fleet shard answered; resuming from "
                 "the local journal alone");
    }
    std::map<std::uint64_t, std::string> by_seq;
    const auto take = [&](const std::string& line) {
      if (check_seal(line) != SealCheck::kOk) return;
      JsonRecord rec;
      if (!parse_flat_json(line, &rec)) return;
      const auto seq_it = rec.find("seq");
      std::uint64_t seq = 0;
      if (seq_it == rec.end() || !parse_u64(seq_it->second, &seq)) return;
      by_seq.emplace(seq, line);
    };
    for (const std::string& l : fleet_lines) take(l);
    // Local lines participate too, but only the *last* section recorded
    // under this search fingerprint: every journal session restarts
    // sequence numbering at its meta record, so mixing sections would
    // collide seqs.
    std::vector<std::string> local_section;
    bool fp_matches = false;
    for (const std::string& line :
         Journal::read_lines(options_.journal_path)) {
      JsonRecord rec;
      if (!parse_flat_json(line, &rec)) continue;
      const auto type = rec.find("type");
      if (type != rec.end() && type->second == "meta") {
        const auto fp = rec.find("search_fp");
        fp_matches = fp != rec.end() && fp->second == search_fp_;
        local_section.clear();
        if (fp_matches) local_section.push_back(line);
        continue;
      }
      if (fp_matches) local_section.push_back(line);
    }
    for (const std::string& l : local_section) take(l);
    if (by_seq.empty()) return;  // nothing anywhere: a fresh search
    {
      // The replay classifies trials as foreign until it sees this
      // search's meta record, so the reconciled history must lead with it.
      JsonRecord rec;
      const bool ok = parse_flat_json(by_seq.begin()->second, &rec);
      const auto type = rec.find("type");
      const auto fp = rec.find("search_fp");
      if (!ok || by_seq.begin()->first != 1 || type == rec.end() ||
          type->second != "meta" || fp == rec.end() ||
          fp->second != search_fp_) {
        log::warnf("search: adopt: reconciled history does not begin with "
                   "this search's meta record; starting fresh");
        return;
      }
    }
    // Atomic rewrite (tmp + fsync + rename + directory fsync): a crash
    // mid-adopt leaves either the old journal or the fully reconciled one
    // on disk, never a hybrid -- and the reconciled one survives power
    // loss, which matters because adoption is exactly the
    // crashed-predecessor path.
    std::string contents;
    for (const auto& [seq, line] : by_seq) {
      contents += line;
      contents += '\n';
    }
    std::string aerr;
    if (!atomic_replace(options_.journal_path, contents, &aerr)) {
      log::warnf("search: adopt: cannot replace %s (%s); resuming from the "
                 "local journal alone", options_.journal_path.c_str(),
                 aerr.c_str());
      return;
    }
    adopted_ = true;
    adopted_next_seq_ = by_seq.rbegin()->first + 1;
    metrics_.adopted_records = by_seq.size();
    log::infof("search: adopted %zu journal record(s) from %zu fleet "
               "shard(s)", by_seq.size(), served);
    // Heal the fleet in return: stream the reconciled union back so every
    // shard converges to it (sequence-deduplicated server-side, so
    // restreaming what a shard already holds is a no-op).
    for (const auto& [seq, line] : by_seq) stream_line(line);
  }

  void setup_journal() {
    if (options_.journal_path.empty()) return;
    if (options_.resume || adopted_) {
      JournalReplayStats stats;
      const std::size_t n =
          load_journal(options_.journal_path, search_fp_, &cache_, &stats);
      if (n > 0) {
        log::infof("search: resuming with %zu journaled trial(s) from %s"
                   " (%zu damaged record(s) skipped)",
                   n, options_.journal_path.c_str(),
                   stats.malformed + stats.crc_mismatch + stats.duplicate_seq);
      }
    }
    if (!journal_.open(options_.journal_path)) {
      log::warnf("search: cannot open journal %s for append; trials will "
                 "not be persisted", options_.journal_path.c_str());
      return;
    }
    // When trials run in crash-prone sandboxed workers, every committed
    // record must survive a driver loss too: fsync each sealed line.
    journal_.set_fsync(options_.journal_fsync || options_.isolate_trials);
    if (adopted_) {
      // The adopted history already leads with this search's meta record;
      // appending another would restart sequence numbering and break the
      // byte-identity of failover resumes. Continue the adopted stream.
      journal_.set_next_seq(adopted_next_seq_);
    } else {
      stream_line(journal_.append_sealed(encode_meta_line(search_fp_)));
    }
  }

  void setup_builder() {
    if (!options_.image_cache) return;
    builder_ = std::make_unique<verify::TrialBuilder>(original_, ix_);
  }

  /// Brings the distributed scheduler up when endpoints are configured.
  /// Any startup problem (bad addresses, unreachable fleet, platform
  /// without sockets) degrades to local execution with a warning.
  void setup_remote() {
    if (options_.endpoints.empty()) return;
    if (!net::supported()) {
      log::warnf("search: endpoints configured but sockets are unsupported "
                 "on this platform; running locally");
      metrics_.remote_degraded = true;
      return;
    }
    if (options_.remote_bench.empty()) {
      log::warnf("search: endpoints configured but remote_bench is empty; "
                 "running locally");
      metrics_.remote_degraded = true;
      return;
    }
    SchedulerOptions sopts;
    for (const std::string& e : options_.endpoints) {
      net::Endpoint ep;
      if (!net::parse_endpoint(e, &ep)) {
        log::warnf("search: ignoring malformed endpoint '%s'", e.c_str());
        continue;
      }
      sopts.endpoints.push_back(ep);
    }
    if (sopts.endpoints.empty()) {
      metrics_.remote_degraded = true;
      return;
    }
    net::HelloMsg& h = sopts.hello;
    h.bench = options_.remote_bench;
    h.cls = static_cast<std::uint8_t>(options_.remote_class);
    h.engine = static_cast<std::uint8_t>(options_.engine);
    h.max_instructions = options_.max_instructions_per_run;
    h.deadline_ms = options_.deadline_ms;
    h.max_crashes = options_.max_trial_crashes;
    h.rlimit_mb = options_.worker_rlimit_as_mb;
    h.shard_cache = options_.shard_cache ? 1 : 0;
    h.search_fp = search_fp_;
    if (options_.fault_injector != nullptr) {
      h.has_fault = 1;
      h.fault_seed = options_.fault_injector->seed();
      h.fault_rates = options_.fault_injector->rates();
    }
    sopts.connect_timeout_ms = static_cast<int>(options_.connect_timeout_ms);
    sopts.hello_timeout_ms = static_cast<int>(options_.hello_timeout_ms);
    sopts.max_endpoint_failures = options_.max_endpoint_failures;
    sopts.max_trial_crashes = options_.max_trial_crashes;
    sopts.verifier_fp = verifier_.fingerprint();
    sopts.heartbeat_ms = options_.heartbeat_ms;
    sopts.gossip_ms = options_.gossip_ms;
    sopts.reconnect_backoff.cap_ms =
        std::max<std::uint64_t>(1, options_.reconnect_max_ms);
    auto sched = std::make_unique<Scheduler>(sopts);
    if (sched->connect() == 0) {
      log::warnf("search: no runner endpoint reachable; running locally");
      metrics_.remote_degraded = true;
      return;
    }
    sched_ = std::move(sched);
  }

  /// Trials run on the fleet when one is connected, in sandboxed workers
  /// under isolate_trials, else in-process; isolation problems degrade to
  /// in-process with a warning.
  void setup_executor() {
    runner::WorkerContext ctx;
    ctx.image = &original_;
    ctx.index = &ix_;
    ctx.verifier = &verifier_;
    ctx.eval.max_instructions = options_.max_instructions_per_run;
    // Pass/fail is all a trial reports; per-instruction counts come only
    // from profile_original(), so the VM can take its non-profiling loop.
    ctx.eval.profile = false;
    ctx.eval.engine = engine_;
    ctx.eval.deadline_ns = options_.deadline_ms * 1000000ull;
    // Forked workers inherit the builder's warm caches (copy-on-write) and
    // keep their private copies hot across requests for the worker's
    // lifetime; each respawn starts from the driver's state at fork time.
    ctx.eval.builder = builder_.get();
    ctx.injector = options_.fault_injector;
    executor_ = std::make_unique<InProcessExecutor>(ctx, options_.num_threads);
    if (sched_ != nullptr) {
      executor_ = std::make_unique<FleetExecutor>(sched_.get(),
                                                  std::move(executor_));
      return;
    }
    if (!options_.isolate_trials) return;
    if (!runner::isolation_supported()) {
      log::warnf("search: trial isolation requested but fork is unavailable "
                 "on this platform; running trials in-process");
      metrics_.isolation_degraded = true;
      return;
    }

    runner::PoolOptions popts;
    const std::size_t workers = options_.num_workers != 0
                                    ? options_.num_workers
                                    : options_.num_threads;
    popts.workers = static_cast<int>(workers);
    popts.max_crashes_per_config = options_.max_trial_crashes;
    popts.limits.address_space_mb = options_.worker_rlimit_as_mb;
    // Supervisor wall-clock backstop over the worker's own VM deadline: a
    // worker stuck before the VM loop even starts (or hard-hung by a fault)
    // still gets reaped.
    popts.trial_timeout_ms =
        options_.deadline_ms > 0 ? options_.deadline_ms * 3 + 1000 : 0;

    auto pool = std::make_unique<runner::WorkerPool>(ctx, popts);
    if (!pool->start()) {
      log::warnf("search: could not spawn any sandboxed worker; running "
                 "trials in-process");
      metrics_.isolation_degraded = true;
      return;
    }
    executor_ = std::make_unique<PoolExecutor>(std::move(pool), workers);
  }

  Trial make_trial(Unit u) {
    Trial t;
    t.unit = std::move(u);
    t.cfg = config_for(t.unit);
    fill_from_cache(&t);
    return t;
  }

  void fill_from_cache(Trial* t) {
    t->key = hex_digest(t->cfg.stable_hash());
    if (const CachedTrial* hit = cache_.lookup(t->key)) {
      t->cached = true;
      t->result.passed = hit->passed;
      t->result.failure_class = hit->failure_class;
      t->result.failure = hit->failure;
    }
  }

  /// Cache-aware evaluation of a composed configuration (final union and
  /// refinement steps), sharing journal/metrics with frontier trials.
  verify::EvalResult run_config_trial(const PrecisionConfig& cfg,
                                      const std::string& name) {
    Trial t;
    t.cfg = cfg;
    fill_from_cache(&t);
    if (!t.cached) vote_batch(*executor_, {&t}, options_.max_retries);
    commit_trial(&t, name, config::replacement_stats(ix_, cfg).replaced_static,
                 "composition");
    return std::move(t.result);
  }

  /// Counts, journals, caches and traces a finished trial. Serial-section
  /// only: journal appends and cache inserts are not synchronized.
  void commit_trial(Trial* t, const std::string& name, std::size_t candidates,
                    const char* level) {
    ++tested_;
    if (!t->result.passed) {
      ++metrics_.failures_by_class[verify::failure_class_name(
          t->result.failure_class)];
    }
    if (t->cached) {
      ++metrics_.trials_cached;
    } else {
      ++metrics_.trials_live;
      metrics_.retries += t->attempts - 1;
      if (t->mixed_votes) {
        ++metrics_.quarantined;
        quarantine_.push_back(t->key);
      }
      const double secs = 1e-9 * static_cast<double>(t->eval_ns);
      metrics_.eval_seconds += secs;
      metrics_.eval_seconds_per_level[level] += secs;
      metrics_.patch_seconds += 1e-9 * static_cast<double>(t->patch_ns);
      metrics_.predecode_seconds +=
          1e-9 * static_cast<double>(t->predecode_ns);
      metrics_.run_seconds += 1e-9 * static_cast<double>(t->run_ns);
      metrics_.verify_seconds += 1e-9 * static_cast<double>(t->verify_ns);
      metrics_.patch_saved_seconds +=
          1e-9 * static_cast<double>(t->patch_saved_ns);
      metrics_.predecode_saved_seconds +=
          1e-9 * static_cast<double>(t->predecode_saved_ns);
      metrics_.image_cache_hits += t->image_hits;
      metrics_.image_cache_misses += t->image_misses;
      metrics_.funcs_reused += t->funcs_reused;
      metrics_.funcs_patched += t->funcs_patched;
      // With journal_timings off, the nondeterministic per-trial timing
      // fields are zeroed so journal bytes depend only on the verdict
      // stream -- the property the distributed byte-identity checks diff.
      const bool times = options_.journal_timings;
      CachedTrial entry{t->result.passed, t->result.failure_class,
                        t->result.failure, times ? t->eval_ns : 0,
                        times ? t->patch_saved_ns + t->predecode_saved_ns : 0,
                        times && t->image_hits > 0};
      if (journal_.is_open()) {
        // Commit locally, then replicate the exact sealed bytes to every
        // live shard: any N-1 subset of the fleet can reconstruct the
        // journal a dead scheduler leaves behind (--adopt).
        stream_line(journal_.append_sealed(
            encode_trial_line(t->key, name, candidates, entry)));
      }
      cache_.insert(t->key, std::move(entry));
    }
    if (sched_ != nullptr) {
      // Make the verdict fleet knowledge (no-op unless shard_cache): the
      // endpoint that served it already cached it; the others -- and
      // verdicts from local fallback or journal replay -- learn it here.
      sched_->broadcast_insert(
          t->key, t->result.passed,
          static_cast<std::uint8_t>(t->result.failure_class),
          t->result.failure);
    }
    if (options_.keep_log) {
      TestRecord rec;
      rec.unit = name;
      rec.key = t->key;
      rec.candidates = candidates;
      rec.passed = t->result.passed;
      rec.cached = t->cached;
      rec.eval_ns = t->eval_ns;
      rec.failure = t->result.failure;
      trace_.push_back(std::move(rec));
    }
    maybe_log_progress();
  }

  void maybe_log_progress() {
    if (!options_.progress_log) return;
    const std::size_t every = std::max<std::size_t>(1,
                                                    options_.progress_every);
    if (tested_ % every != 0) return;
    const double wall = wall_timer_.elapsed_seconds();
    const double rate =
        wall > 0.0 ? static_cast<double>(tested_) / wall : 0.0;
    const double hit =
        100.0 * static_cast<double>(metrics_.trials_cached) /
        static_cast<double>(tested_);
    // ETA over the *currently enqueued* frontier at the live evaluation
    // rate the executor's lanes sustain -- a lower bound, since failing
    // units still enqueue children.
    double eta = 0.0;
    if (metrics_.trials_live > 0) {
      const double per_live =
          metrics_.eval_seconds / static_cast<double>(metrics_.trials_live);
      eta = static_cast<double>(queue_.size()) * per_live /
            static_cast<double>(executor_->lanes());
    }
    log::infof("search: %zu trials (%zu cached, %.1f%% hit), %.1f trials/s, "
               "%zu queued, eta >= %.1fs",
               tested_, metrics_.trials_cached, hit, rate, queue_.size(),
               eta);
  }

  void process_result(const Unit& u, const verify::EvalResult& r) {
    if (r.passed) {
      PrecisionConfig cfg = config_for(u);
      final_config_.merge_union(cfg);
      passing_.push_back(PassingUnit{std::move(cfg), u.weight});
      return;
    }
    for (Unit& child : children(u)) push_unit(std::move(child));
  }

  std::vector<Unit> children(const Unit& u) {
    std::vector<Unit> out;
    const auto level_allows = [&](StopLevel need) {
      return static_cast<int>(options_.stop_level) >= static_cast<int>(need);
    };

    switch (u.kind) {
      case Unit::Kind::kModule: {
        if (!level_allows(StopLevel::kFunction)) break;
        for (std::size_t f : ix_.modules()[u.id].funcs) {
          Unit c;
          c.kind = Unit::Kind::kFunction;
          c.id = f;
          out.push_back(std::move(c));
        }
        break;
      }
      case Unit::Kind::kFunction: {
        if (!level_allows(StopLevel::kBlock)) break;
        const auto& blocks = ix_.funcs()[u.id].blocks;
        descend_blocks(blocks, &out);
        break;
      }
      case Unit::Kind::kFuncPart: {
        descend_blocks(u.blocks, &out);
        break;
      }
      case Unit::Kind::kBlock: {
        if (!level_allows(StopLevel::kInstruction)) break;
        descend_instrs(ix_.blocks()[u.id].candidates, &out);
        break;
      }
      case Unit::Kind::kBlockPart: {
        descend_instrs(u.instrs, &out);
        break;
      }
      case Unit::Kind::kInstr:
        break;  // cannot be subdivided
    }
    return out;
  }

  /// Binary split of a block list, or one unit per block.
  void descend_blocks(const std::vector<std::size_t>& blocks,
                      std::vector<Unit>* out) {
    // Only blocks with candidates participate.
    std::vector<std::size_t> useful;
    for (std::size_t b : blocks) {
      if (!ix_.blocks()[b].candidates.empty()) useful.push_back(b);
    }
    if (useful.empty()) return;
    if (useful.size() == 1) {
      Unit c;
      c.kind = Unit::Kind::kBlock;
      c.id = useful[0];
      out->push_back(std::move(c));
      return;
    }
    if (options_.binary_split && useful.size() >= options_.min_split_size) {
      const std::size_t half = useful.size() / 2;
      Unit lo, hi;
      lo.kind = hi.kind = Unit::Kind::kFuncPart;
      lo.blocks.assign(useful.begin(), useful.begin() +
                                           static_cast<std::ptrdiff_t>(half));
      hi.blocks.assign(useful.begin() + static_cast<std::ptrdiff_t>(half),
                       useful.end());
      out->push_back(std::move(lo));
      out->push_back(std::move(hi));
      return;
    }
    for (std::size_t b : useful) {
      Unit c;
      c.kind = Unit::Kind::kBlock;
      c.id = b;
      out->push_back(std::move(c));
    }
  }

  /// Binary split of a candidate-instruction list, or one unit each.
  void descend_instrs(const std::vector<std::size_t>& instrs,
                      std::vector<Unit>* out) {
    if (instrs.empty()) return;
    if (instrs.size() == 1) {
      Unit c;
      c.kind = Unit::Kind::kInstr;
      c.id = instrs[0];
      out->push_back(std::move(c));
      return;
    }
    if (options_.binary_split && instrs.size() >= options_.min_split_size) {
      const std::size_t half = instrs.size() / 2;
      Unit lo, hi;
      lo.kind = hi.kind = Unit::Kind::kBlockPart;
      lo.instrs.assign(instrs.begin(), instrs.begin() +
                                           static_cast<std::ptrdiff_t>(half));
      hi.instrs.assign(instrs.begin() + static_cast<std::ptrdiff_t>(half),
                       instrs.end());
      out->push_back(std::move(lo));
      out->push_back(std::move(hi));
      return;
    }
    for (std::size_t i : instrs) {
      Unit c;
      c.kind = Unit::Kind::kInstr;
      c.id = i;
      out->push_back(std::move(c));
    }
  }

  const program::Image& original_;
  StructureIndex& ix_;
  const verify::Verifier& verifier_;
  const SearchOptions& options_;

  struct PassingUnit {
    PrecisionConfig cfg;
    std::uint64_t weight;
  };

  std::deque<Unit> queue_;
  std::uint64_t next_seq_ = 0;
  std::size_t tested_ = 0;
  PrecisionConfig final_config_;
  std::vector<PassingUnit> passing_;
  std::vector<TestRecord> trace_;
  std::vector<std::string> quarantine_;

  TrialCache cache_;
  Journal journal_;
  std::string search_fp_;
  /// --adopt state: the local journal was rebuilt from the fleet's shards;
  /// sealed appends continue the adopted sequence stream (no new meta).
  bool adopted_ = false;
  std::uint64_t adopted_next_seq_ = 1;
  /// Host-resolved execution engine (see resolve_engine()).
  vm::Engine engine_ = vm::Engine::kMicroOp;
  SearchMetrics metrics_;
  Timer wall_timer_;
  /// Shared patch+predecode front end (image_cache option). Declared
  /// before executor_ so the executor (whose backends hold a pointer to it)
  /// is destroyed first.
  std::unique_ptr<verify::TrialBuilder> builder_;
  std::unique_ptr<Scheduler> sched_;  // distributed mode only
  /// Where trials run (see setup_executor); declared after sched_, which
  /// the fleet backend borrows.
  std::unique_ptr<TrialExecutor> executor_;
};

}  // namespace

void vote_batch(TrialExecutor& executor, const std::vector<TrialEval*>& trials,
                std::uint32_t max_retries) {
  const std::uint32_t max_attempts = 1 + max_retries;
  struct Vote {
    TrialEval* t;
    std::uint32_t passes = 0;
    std::uint32_t fails = 0;
  };
  std::vector<Vote> open;
  for (TrialEval* t : trials) open.push_back(Vote{t});
  std::vector<TrialEval*> unserved;
  for (std::uint32_t attempt = 0; !open.empty(); ++attempt) {
    std::vector<runner::TrialJob> jobs;
    for (const Vote& v : open) jobs.push_back({v.t->key, &v.t->cfg});
    std::vector<runner::TrialOutcome> outs = executor.run_batch(jobs, attempt);
    std::vector<Vote> next;
    for (std::size_t j = 0; j < open.size(); ++j) {
      Vote v = open[j];
      TrialEval* t = v.t;
      if (!outs[j].served) {
        unserved.push_back(t);
        continue;
      }
      const bool settled = executor.settles(outs[j]);
      t->result = std::move(outs[j].result);
      t->eval_ns += outs[j].wall_ns;
      ++t->attempts;
      note_attempt(t);
      if (settled) continue;
      ++(t->result.passed ? v.passes : v.fails);
      if (attempt + 1 < max_attempts && v.passes <= max_attempts / 2 &&
          v.fails <= max_attempts / 2) {
        next.push_back(v);
      } else {
        t->mixed_votes = v.passes > 0 && v.fails > 0;
        apply_majority_verdict(t, v.passes, v.fails);
      }
    }
    open = std::move(next);
  }
  if (unserved.empty()) return;
  TrialExecutor* fallback = executor.fallback();
  FPMIX_CHECK(fallback != nullptr);
  vote_batch(*fallback, unserved, max_retries);
}

SearchResult run_search(const program::Image& original,
                        config::StructureIndex* index,
                        const verify::Verifier& verifier,
                        const SearchOptions& options) {
  FPMIX_CHECK(index != nullptr);
  Searcher s(original, index, verifier, options);
  return s.run();
}

}  // namespace fpmix::search
