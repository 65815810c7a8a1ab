#include "search/search.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

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
#include "support/timer.hpp"
#include "verify/trial_builder.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"

namespace fpmix::search {

using config::Precision;
using config::PrecisionConfig;
using config::StructureIndex;

namespace {

/// Structures with at least this many candidates are binary-split instead
/// of expanded child-by-child.
constexpr std::size_t kMinSplitSize = 4;
/// Trials between progress lines (SearchOptions::progress_log).
constexpr std::size_t kProgressEvery = 16;

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

/// Adds one live attempt's cost to the search totals. An attempt with
/// funcs_total == 0 finished no build (a breaker or storm verdict made
/// without one, or a build that threw), so it is neither an image hit nor
/// a miss.
void add_cost(const verify::TrialCost& c, SearchMetrics* m) {
  const auto secs = [](std::uint64_t ns) {
    return 1e-9 * static_cast<double>(ns);
  };
  m->patch_seconds += secs(c.patch_ns);
  m->predecode_seconds += secs(c.predecode_ns);
  m->setup_seconds += secs(c.setup_ns);
  m->jit_seconds += secs(c.jit_ns);
  m->run_seconds += secs(c.run_ns);
  m->verify_seconds += secs(c.verify_ns);
  if (c.funcs_total == 0) return;
  ++(c.image_cache_hit ? m->image_cache_hits : m->image_cache_misses);
  m->funcs_reused += c.funcs_reused;
  m->funcs_patched += c.funcs_total - c.funcs_reused;
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
/// per-(key, attempt) faults, on persistent lanes. The polling thread is
/// lane 0; lanes 1.. are threads the first poll() starts, so none exists
/// while isolate mode forks its workers, and a fleet starts them only once
/// it falls back. A lane that finishes an attempt calls `done` itself, and
/// the first attempt `done` submits is that lane's next one: a revote or
/// the next unit starts with no hand-off, and a revote finds the image the
/// lane just built. Other submissions wait in a shared queue. A lane with
/// nothing to run spins for kIdleSpinNs before it sleeps, so work that
/// turns up within that window never waits on a wake-up.
class InProcessExecutor final : public TrialExecutor {
 public:
  InProcessExecutor(const runner::WorkerContext& ctx, std::size_t lanes)
      : TrialExecutor(/*sandboxed=*/false, lanes), ctx_(ctx),
        lane_(this->lanes()) {
    for (std::size_t i = 0; i < lane_.size(); ++i) {
      lane_[i].owner = this;
      lane_[i].index = i;
    }
  }

  ~InProcessExecutor() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    idle_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void submit(std::uint64_t ticket, const runner::TrialJob& job,
              std::uint32_t attempt) override {
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    Lane* me = current_lane_;
    if (me != nullptr && me->owner == this && !me->next) {
      me->next = Job{ticket, job, attempt};
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    shared_.push_back(Job{ticket, job, attempt});
    queued_.store(shared_.size(), std::memory_order_release);
    if (sleeping_ > 0) work_cv_.notify_one();
  }

  void poll(const Done& done) override {
    if (outstanding_.load(std::memory_order_acquire) == 0) return;
    if (threads_.empty()) {
      for (std::size_t i = 1; i < lane_.size(); ++i) {
        threads_.emplace_back([this, i] { helper(&lane_[i]); });
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = &done;
      ++poll_epoch_;
    }
    idle_cv_.notify_all();
    run_lane(&lane_[0]);
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return active_ == 0; });
    done_ = nullptr;
    if (error_ != nullptr) {
      aborted_.store(false, std::memory_order_relaxed);
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
  }

 private:
  /// How long an idle lane spins before it sleeps.
  static constexpr std::uint64_t kIdleSpinNs = 1000000;

  struct Job {
    std::uint64_t ticket = 0;
    runner::TrialJob job;
    std::uint32_t attempt = 0;
  };
  struct Lane {
    InProcessExecutor* owner = nullptr;
    std::size_t index = 0;
    std::optional<Job> next;  // touched only by the lane's own thread
  };

  /// Lanes 1..: join every poll until the executor is destroyed.
  void helper(Lane* me) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      idle_cv_.wait(lock, [&] {
        return stop_ || (done_ != nullptr && poll_epoch_ != seen);
      });
      if (stop_) return;
      seen = poll_epoch_;
      ++active_;
      lock.unlock();
      run_lane(me);
      lock.lock();
      if (--active_ == 0) idle_cv_.notify_all();
    }
  }

  /// Runs attempts until none is outstanding. Once an attempt or its
  /// `done` threw, the remaining attempts are dropped unrun and poll()
  /// rethrows.
  void run_lane(Lane* me) {
    current_lane_ = me;
    for (;;) {
      std::optional<Job> j;
      j.swap(me->next);
      if (!j) j = take_shared();
      if (!j) break;
      if (!aborted_.load(std::memory_order_acquire)) {
        try {
          (*done_)(j->ticket, run_one(*j, me->index));
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (error_ == nullptr) error_ = std::current_exception();
          aborted_.store(true, std::memory_order_release);
        }
      }
      if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu_);
        work_cv_.notify_all();
      }
    }
    current_lane_ = nullptr;
  }

  /// The next shared attempt; nullopt once nothing is outstanding.
  std::optional<Job> take_shared() {
    const std::uint64_t spin_until = steady_ns() + kIdleSpinNs;
    while (queued_.load(std::memory_order_acquire) == 0 &&
           outstanding_.load(std::memory_order_acquire) != 0 &&
           steady_ns() < spin_until) {
      std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!shared_.empty()) {
        Job j = std::move(shared_.front());
        shared_.pop_front();
        queued_.store(shared_.size(), std::memory_order_release);
        return j;
      }
      if (outstanding_.load(std::memory_order_acquire) == 0) {
        return std::nullopt;
      }
      ++sleeping_;
      work_cv_.wait(lock);
      --sleeping_;
    }
  }

  runner::TrialOutcome run_one(const Job& j, std::size_t lane) const {
    verify::EvalOptions eopts = ctx_.eval;
    eopts.builder_lane = lane;
    fault::TrialFaults faults;
    if (ctx_.injector != nullptr) {
      faults = ctx_.injector->for_trial(j.job.key, j.attempt);
      eopts.faults = &faults;
    }
    runner::TrialOutcome o;
    Timer timer;
    o.result = verify::evaluate_config(*ctx_.image, *ctx_.index,
                                       *j.job.config, *ctx_.verifier, eopts);
    o.wall_ns = timer.elapsed_ns();
    return o;
  }

  static inline thread_local Lane* current_lane_ = nullptr;

  const runner::WorkerContext ctx_;
  std::vector<Lane> lane_;
  std::vector<std::thread> threads_;
  /// Submitted attempts whose `done` has not returned.
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<std::size_t> queued_{0};  // shared_.size(), for spinning lanes
  std::atomic<bool> aborted_{false};
  std::mutex mu_;
  std::condition_variable work_cv_;  // shared_ filled or nothing outstanding
  std::condition_variable idle_cv_;  // a poll started, or its lanes left
  std::deque<Job> shared_;
  std::size_t sleeping_ = 0;  // lanes waiting on work_cv_
  const Done* done_ = nullptr;  // non-null while a poll runs
  std::uint64_t poll_epoch_ = 0;
  std::size_t active_ = 0;  // helpers inside run_lane
  std::exception_ptr error_;
  bool stop_ = false;
};

/// Sandboxed-worker backend over a started runner::WorkerPool.
class PoolExecutor final : public TrialExecutor {
 public:
  PoolExecutor(std::unique_ptr<runner::WorkerPool> pool, std::size_t workers)
      : TrialExecutor(/*sandboxed=*/true, workers), pool_(std::move(pool)) {}

  void submit(std::uint64_t ticket, const runner::TrialJob& job,
              std::uint32_t /*attempt*/) override {
    pool_->submit(ticket, job.key, *job.config);
    ++outstanding_;
  }

  void dispatch() override {
    if (outstanding_ > 0) pool_->pump(/*max_wait_ms=*/0);
  }

  void poll(const Done& done) override {
    while (outstanding_ > 0) {
      pool_->pump(/*max_wait_ms=*/-1);
      for (runner::WorkerPool::Finished& f : pool_->take_finished()) {
        --outstanding_;
        done(f.ticket, std::move(f.outcome));
      }
    }
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
    m->full_requests = ps.requests;
    m->full_bytes = ps.config_bytes;
    m->worker_slots = ps.slots;
  }

 private:
  std::unique_ptr<runner::WorkerPool> pool_;
  std::size_t outstanding_ = 0;
};

/// Remote-fleet backend over a borrowed Scheduler, as wide as the fleet at
/// connect time; trials it cannot serve fall back to in-process. Each poll
/// round runs everything submitted so far as one Scheduler batch.
class FleetExecutor final : public TrialExecutor {
 public:
  FleetExecutor(Scheduler* sched, std::unique_ptr<TrialExecutor> local)
      : TrialExecutor(/*sandboxed=*/true, sched->capacity()), sched_(sched),
        local_(std::move(local)) {}

  void submit(std::uint64_t ticket, const runner::TrialJob& job,
              std::uint32_t /*attempt*/) override {
    pending_.emplace_back(ticket, job);
  }

  void poll(const Done& done) override {
    while (!pending_.empty()) {
      std::vector<std::pair<std::uint64_t, runner::TrialJob>> batch;
      batch.swap(pending_);
      std::vector<runner::TrialJob> jobs;
      for (const auto& [ticket, job] : batch) jobs.push_back(job);
      std::vector<runner::TrialOutcome> outs = sched_->run_batch(jobs);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!outs[i].served) ++unserved_;
        done(batch[i].first, std::move(outs[i]));
      }
    }
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
  std::vector<std::pair<std::uint64_t, runner::TrialJob>> pending_;
  std::size_t unserved_ = 0;
};

/// The sandbox rules `o` asks for, with the *requested* engine: remote
/// endpoints resolve it against their own host.
runner::SandboxSpec sandbox_spec(const SearchOptions& o) {
  runner::SandboxSpec s;
  s.engine = o.engine;
  s.max_instructions = o.max_instructions_per_run;
  s.deadline_ms = o.deadline_ms;
  s.max_crashes = o.max_trial_crashes;
  s.rlimit_mb = o.worker_rlimit_as_mb;
  if (o.fault_injector != nullptr) {
    s.has_fault = true;
    s.fault_seed = o.fault_injector->seed();
    s.fault_rates = o.fault_injector->rates();
  }
  return s;
}

class Searcher {
 public:
  Searcher(const program::Image& original, StructureIndex* index,
           const verify::Verifier& verifier, const SearchOptions& options,
           TrialExecutor* external)
      : original_(original), ix_(*index), verifier_(verifier),
        options_(options), spec_(sandbox_spec(options)),
        external_(external) {}

  ~Searcher() {
    if (profiler_.joinable()) profiler_.join();
  }

  SearchResult run() {
    resolve_engine();
    compute_fingerprint();
    // The scheduler comes up before the journal so --adopt can rebuild the
    // local file from the fleet's replicated shards before replay.
    setup_remote();
    adopt_fleet_journal();
    setup_journal();
    setup_executor();
    votes_.emplace(*exec_, options_.max_retries);

    // The lane loop. Lanes take queued units as they free up; results are
    // held and committed in the order a 1-lane search pops them (see
    // advance()), so the journal, the trace and the children each commit
    // pushes do not depend on the lane count, the executor or the order in
    // which attempts finish. The module roots go out before the original
    // is profiled: every root is tested whatever the profile says, and
    // nothing commits until the profile has re-weighted the queue.
    seed_queue();
    advance();
    start_profile();
    const VoteLoop::Settled settled = [this](TrialEval* t) {
      static_cast<Trial*>(t)->settled = true;
      advance();
    };
    votes_->run(settled);
    if (!profiled_) {
      // Every open vote settled before the profile was applied (or none
      // was open: every root was cached).
      finish_profile();
      advance();
      votes_->run(settled);
    }
    FPMIX_CHECK(queue_.empty() && evals_.empty());

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

    // The last records were streamed after the last batch's gossip: an
    // endpoint that was down or reconnecting then would keep a shard
    // without them. One bounded heal round redials it and re-streams them.
    if (sched_ != nullptr && options_.gossip_ms != 0) {
      sched_->gossip_now(static_cast<int>(options_.connect_timeout_ms));
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
    metrics_.driver_seconds =
        metrics_.wall_seconds -
        metrics_.eval_seconds / static_cast<double>(exec_->lanes());
    metrics_.unattributed_seconds =
        metrics_.eval_seconds -
        (metrics_.patch_seconds + metrics_.predecode_seconds +
         metrics_.setup_seconds + metrics_.jit_seconds +
         metrics_.run_seconds + metrics_.verify_seconds);
    exec_->fold_metrics(&metrics_);
    out.metrics = metrics_;
    if (options_.progress_log) {
      log::infof("search done: %zu trials (%zu live, %zu cached, %zu "
                 "derived, %.1f%% hit) in %.2fs, %.1f trials/s",
                 metrics_.trials_total, metrics_.trials_live,
                 metrics_.trials_cached, metrics_.trials_derived,
                 metrics_.cache_hit_rate,
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

  /// A profiling run of the original binary (optimization 2).
  struct Profile {
    bool ok = false;
    std::string trap_message;  // when !ok
    std::map<std::uint64_t, std::uint64_t> counts;
    double seconds = 0.0;
    std::exception_ptr error;  // thrown by the run; rethrown when applied
  };

  Profile profile_original() const {
    Profile p;
    Timer timer;
    try {
      vm::Machine::Options mopts;
      mopts.max_instructions = options_.max_instructions_per_run;
      mopts.engine = engine_;
      mopts.deadline_ns = options_.deadline_ms * 1000000ull;
      vm::Machine machine(original_, mopts);
      const vm::RunResult r = machine.run();
      p.ok = r.ok();
      if (p.ok) {
        p.counts = machine.profile_by_address();
      } else {
        p.trap_message = r.trap_message;
      }
    } catch (...) {
      p.error = std::current_exception();
    }
    p.seconds = timer.elapsed_seconds();
    return p;
  }

  /// Profiles the original beside the root trials; advance() applies the
  /// profile once it is ready. In-process lanes get a thread of their own
  /// for it. A sandboxed or fleet executor profiles here, on the driver,
  /// after starting what it can: a worker pool forks without exec, and a
  /// child forked while a profiling thread held a JIT-cache lock could
  /// deadlock.
  void start_profile() {
    if (!exec_->sandboxed()) {
      profiler_ = std::thread([this] {
        profile_ = profile_original();
        profile_ready_.store(true, std::memory_order_release);
      });
      return;
    }
    exec_->dispatch();
    profile_ = profile_original();
    profile_ready_.store(true, std::memory_order_release);
  }

  /// Applies the profile and re-weights the queued units. Each keeps its
  /// seq, so the pop order is exactly the one a search that profiled before
  /// pushing anything would have.
  void finish_profile() {
    if (profiler_.joinable()) profiler_.join();
    profiled_ = true;
    metrics_.profile_seconds = profile_.seconds;
    if (profile_.error != nullptr) std::rethrow_exception(profile_.error);
    if (!profile_.ok) {
      // The profile only steers trial *order* (optimization 2), never
      // correctness -- so a failing reference run degrades the search to
      // unweighted structure-order prioritisation instead of aborting it.
      log::warnf(
          "search: profiling run of the original binary failed (%s); "
          "falling back to unweighted structure-order prioritisation",
          profile_.trap_message.c_str());
      metrics_.profile_degraded = true;
      return;
    }
    ix_.apply_profile(profile_.counts);
    std::map<Order, Queued> queue;
    for (auto& [order, q] : queue_) {
      q.unit.weight = weight_of(ix_, unit_candidates(ix_, q.unit));
      queue.emplace(order_of(q.unit), std::move(q));
    }
    queue_.swap(queue);
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
    Queued q;
    q.cfg = config_for(u);
    q.key = trial_key(ix_, q.cfg);
    q.unit = std::move(u);
    const Order order = order_of(q.unit);
    queue_.emplace(order, std::move(q));
  }

  /// Commits, in 1-lane pop order, every queued unit whose result is known
  /// (the trial cache has its key, or its live evaluation settled), pushing
  /// each one's children; then opens votes on the highest-priority queued
  /// units until every lane is busy. A unit whose key is cached, in flight
  /// or held never runs: it waits for that result, and the first unit with
  /// the key in pop order commits it live, later ones as derived -- exactly
  /// what a 1-lane search does. Nothing commits before the profile has been
  /// applied, which is the first thing done once it is ready. Runs under
  /// the vote loop's lock.
  void advance() {
    if (!profiled_ && profile_ready_.load(std::memory_order_acquire)) {
      finish_profile();
    }
    while (profiled_ && !queue_.empty()) {
      const auto head = queue_.begin();
      Queued& q = head->second;
      std::unique_ptr<Trial> t = cached_trial(q.key);
      if (t == nullptr) {
        const auto it = evals_.find(q.key);
        if (it == evals_.end() || !it->second->settled) break;
        t = std::move(it->second);
        evals_.erase(it);
      }
      const Unit u = std::move(q.unit);
      queue_.erase(head);
      commit_trial(t.get(), unit_name(ix_, u), unit_candidates(ix_, u).size(),
                   level_name(u.kind));
      process_result(u, t->result);
    }
    for (const auto& [order, q] : queue_) {
      if (votes_->open() >= exec_->lanes()) break;
      if (evals_.count(q.key) != 0 || cache_.lookup(q.key) != nullptr) {
        continue;
      }
      auto t = std::make_unique<Trial>();
      t->cfg = q.cfg;
      t->key = q.key;
      votes_->start(t.get());
      evals_.emplace(q.key, std::move(t));
    }
  }

  /// A queued unit, with the config and key it is tested under.
  struct Queued {
    Unit unit;
    PrecisionConfig cfg;
    std::string key;
  };
  /// (priority, seq): ascending order is the 1-lane pop order.
  using Order = std::pair<std::uint64_t, std::uint64_t>;

  /// The 1-lane pop order: heaviest first, then oldest (only oldest when
  /// profile prioritisation is off).
  Order order_of(const Unit& u) const {
    return {options_.prioritize_by_profile ? ~u.weight : 0, u.seq};
  }

  /// One configuration on its way through the cache -> evaluate -> commit
  /// pipeline.
  struct Trial : TrialEval {
    bool cached = false;
    bool derived = false;
    bool settled = false;  // live vote done, waiting for its commit turn
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

  /// Records are sealed when a local journal is open or a fleet is
  /// connected: with no file, the fleet still needs the lines, because its
  /// journal shards answer --shard-cache repeats.
  bool journaling() const { return journal_.is_open() || sched_ != nullptr; }

  /// Replays the local journal when resuming, then opens it for append.
  void open_journal() {
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
    journal_.set_fsync(options_.isolate_trials);
  }

  void setup_journal() {
    if (!options_.journal_path.empty()) open_journal();
    if (adopted_) {
      // The adopted history already leads with this search's meta record;
      // appending another would restart sequence numbering and break the
      // byte-identity of failover resumes. Continue the adopted stream.
      journal_.set_next_seq(adopted_next_seq_);
    } else if (journaling()) {
      stream_line(journal_.append_sealed(encode_meta_line(search_fp_)));
    }
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
    h.shard_cache = options_.shard_cache ? 1 : 0;
    h.search_fp = search_fp_;
    h.spec = spec_;
    sopts.connect_timeout_ms = static_cast<int>(options_.connect_timeout_ms);
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
    runner::SandboxSpec local = spec_;
    local.engine = engine_;
    runner::PoolPlan plan = runner::plan_pool(local);
    runner::WorkerContext ctx;
    ctx.image = &original_;
    ctx.index = &ix_;
    ctx.verifier = &verifier_;
    ctx.eval = plan.eval;
    ctx.injector = options_.fault_injector;
    if (external_ != nullptr) {
      exec_ = external_;
      return;
    }
    if (sched_ != nullptr) {
      // The builder serves the in-process fallback's lanes.
      setup_builder(options_.num_threads, &ctx);
      executor_ = std::make_unique<FleetExecutor>(
          sched_.get(),
          std::make_unique<InProcessExecutor>(ctx, options_.num_threads));
      exec_ = executor_.get();
      return;
    }
    if (options_.isolate_trials && !runner::isolation_supported()) {
      log::warnf("search: trial isolation requested but fork is unavailable "
                 "on this platform; running trials in-process");
      metrics_.isolation_degraded = true;
    } else if (options_.isolate_trials) {
      const std::size_t workers = options_.num_workers != 0
                                      ? options_.num_workers
                                      : options_.num_threads;
      // Forked workers inherit the builder's warm caches (copy-on-write)
      // and keep their private copies hot across requests for the worker's
      // lifetime; each respawn starts from the driver's state at fork time.
      setup_builder(workers, &ctx);
      plan.pool.workers = static_cast<int>(workers);
      auto pool = std::make_unique<runner::WorkerPool>(ctx, plan.pool);
      if (pool->start()) {
        executor_ = std::make_unique<PoolExecutor>(std::move(pool), workers);
        exec_ = executor_.get();
        return;
      }
      log::warnf("search: could not spawn any sandboxed worker; running "
                 "trials in-process");
      metrics_.isolation_degraded = true;
    }
    setup_builder(options_.num_threads, &ctx);
    executor_ = std::make_unique<InProcessExecutor>(ctx, options_.num_threads);
    exec_ = executor_.get();
  }

  /// The shared patch+predecode front end (image_cache option), sized to
  /// the lanes of the executor that will use it.
  void setup_builder(std::size_t lanes, runner::WorkerContext* ctx) {
    if (!options_.image_cache) return;
    builder_ = std::make_unique<verify::TrialBuilder>(original_, ix_, lanes);
    ctx->eval.builder = builder_.get();
  }

  /// Cache-aware evaluation of a composed configuration (final union and
  /// refinement steps), sharing journal/metrics with frontier trials.
  verify::EvalResult run_config_trial(const PrecisionConfig& cfg,
                                      const std::string& name) {
    const std::string key = trial_key(ix_, cfg);
    std::unique_ptr<Trial> t = cached_trial(key);
    if (t == nullptr) {
      t = std::make_unique<Trial>();
      t->cfg = cfg;
      t->key = key;
      votes_->start(t.get());
      votes_->run([](TrialEval*) {});
    }
    commit_trial(t.get(), name,
                 config::replacement_stats(ix_, cfg).replaced_static,
                 "composition");
    return std::move(t->result);
  }

  /// The trial cache's verdict for `key`, or nullptr when it has none:
  /// derived when this search settled the key live, else cached.
  std::unique_ptr<Trial> cached_trial(const std::string& key) const {
    const CachedTrial* hit = cache_.lookup(key);
    if (hit == nullptr) return nullptr;
    auto t = std::make_unique<Trial>();
    t->key = key;
    t->derived = live_keys_.count(key) != 0;
    t->cached = !t->derived;
    t->result.passed = hit->passed;
    t->result.failure_class = hit->failure_class;
    t->result.failure = hit->failure;
    return t;
  }

  /// Counts, journals, caches and traces a finished trial. Only a live
  /// trial writes a journal line. Callers hold the vote loop's lock (or run
  /// before or after it): journal appends and cache inserts are not
  /// synchronized otherwise.
  void commit_trial(Trial* t, const std::string& name, std::size_t candidates,
                    const char* level) {
    ++tested_;
    if (!t->result.passed) {
      ++metrics_.failures_by_class[verify::failure_class_name(
          t->result.failure_class)];
    }
    if (t->derived) {
      ++metrics_.trials_derived;
    } else if (t->cached) {
      ++metrics_.trials_cached;
    } else {
      ++metrics_.trials_live;
      live_keys_.insert(t->key);
      metrics_.retries += t->attempts.size() - 1;
      if (t->mixed_votes) {
        ++metrics_.quarantined;
        quarantine_.push_back(t->key);
      }
      const double secs = 1e-9 * static_cast<double>(t->eval_ns);
      metrics_.eval_seconds += secs;
      metrics_.eval_seconds_per_level[level] += secs;
      bool any_image_hit = false;
      for (const verify::TrialCost& c : t->attempts) {
        add_cost(c, &metrics_);
        any_image_hit =
            any_image_hit || (c.funcs_total > 0 && c.image_cache_hit);
      }
      // With journal_timings off, the nondeterministic per-trial timing
      // fields are zeroed so journal bytes depend only on the verdict
      // stream -- the property the distributed byte-identity checks diff.
      const bool times = options_.journal_timings;
      CachedTrial entry{t->result.passed, t->result.failure_class,
                        t->result.failure, times ? t->eval_ns : 0,
                        times && any_image_hit};
      if (journaling()) {
        // Commit locally, then replicate the exact sealed bytes to every
        // live shard: any N-1 subset of the fleet can reconstruct the
        // journal a dead scheduler leaves behind (--adopt), and the line
        // is the verdict that shard-cache sessions are answered from.
        stream_line(journal_.append_sealed(
            encode_trial_line(t->key, name, candidates, entry)));
      }
      cache_.insert(t->key, std::move(entry));
    }
    if (options_.keep_log) {
      TestRecord rec;
      rec.unit = name;
      rec.key = t->key;
      rec.candidates = candidates;
      rec.passed = t->result.passed;
      rec.cached = t->cached;
      rec.derived = t->derived;
      rec.eval_ns = t->eval_ns;
      rec.failure = t->result.failure;
      trace_.push_back(std::move(rec));
    }
    maybe_log_progress();
  }

  void maybe_log_progress() {
    if (!options_.progress_log) return;
    if (tested_ % kProgressEvery != 0) return;
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
            static_cast<double>(exec_->lanes());
    }
    log::infof("search: %zu trials (%zu cached, %zu derived, %.1f%% hit), "
               "%.1f trials/s, %zu queued, eta >= %.1fs",
               tested_, metrics_.trials_cached, metrics_.trials_derived, hit,
               rate, queue_.size(), eta);
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
    if (options_.binary_split && useful.size() >= kMinSplitSize) {
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
    if (options_.binary_split && instrs.size() >= kMinSplitSize) {
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
  /// Built once from options_; the hello ships it, the local pool runs it
  /// with the resolved engine_.
  const runner::SandboxSpec spec_;

  struct PassingUnit {
    PrecisionConfig cfg;
    std::uint64_t weight;
  };

  /// Units pushed and not yet committed, in 1-lane pop order.
  std::map<Order, Queued> queue_;
  /// Live evaluations by config key: voting, or settled and held until
  /// their first unit reaches the head of queue_.
  std::map<std::string, std::unique_ptr<Trial>> evals_;
  std::uint64_t next_seq_ = 0;
  std::size_t tested_ = 0;
  PrecisionConfig final_config_;
  std::vector<PassingUnit> passing_;
  std::vector<TestRecord> trace_;
  std::vector<std::string> quarantine_;

  TrialCache cache_;
  /// Keys this search committed live: a later unit with one is derived.
  std::unordered_set<std::string> live_keys_;
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
  /// The profiling run (start_profile): the thread in-process lanes run it
  /// on, its result, set before profile_ready_, and whether advance() may
  /// commit (the profile has been applied).
  std::thread profiler_;
  Profile profile_;
  std::atomic<bool> profile_ready_{false};
  bool profiled_ = false;
  /// Shared patch+predecode front end (image_cache option). Declared
  /// before executor_ so the executor (whose backends hold a pointer to it)
  /// is destroyed first.
  std::unique_ptr<verify::TrialBuilder> builder_;
  std::unique_ptr<Scheduler> sched_;  // distributed mode only
  /// Where trials run (see setup_executor); declared after sched_, which
  /// the fleet backend borrows.
  std::unique_ptr<TrialExecutor> executor_;
  /// A caller-supplied executor (the run_search overload for tests).
  TrialExecutor* const external_;
  /// The executor in use: executor_ or external_.
  TrialExecutor* exec_ = nullptr;
  /// The one vote loop over exec_; declared last, as it borrows exec_.
  std::optional<VoteLoop> votes_;
};

}  // namespace

void VoteLoop::start(TrialEval* t) {
  Vote v;
  v.t = t;
  v.executor = &executor_;
  submit(v);
}

void VoteLoop::submit(const Vote& v) {
  const std::uint64_t ticket = next_ticket_++;
  votes_.emplace(ticket, v);
  v.executor->submit(ticket, runner::TrialJob{v.t->key, &v.t->cfg},
                     v.attempt);
}

TrialEval* VoteLoop::record(std::uint64_t ticket, runner::TrialOutcome o) {
  const auto it = votes_.find(ticket);
  FPMIX_CHECK(it != votes_.end());
  Vote v = it->second;
  votes_.erase(it);
  TrialEval* t = v.t;
  if (!o.served) {
    // Revote from attempt 0 on the fallback; the attempts already spent
    // stay in the accounting.
    FPMIX_CHECK(v.executor->fallback() != nullptr);
    submit(Vote{t, v.executor->fallback()});
    return nullptr;
  }
  const bool settled = v.executor->settles(o);
  t->result = std::move(o.result);
  t->eval_ns += o.wall_ns;
  t->attempts.push_back(t->result.cost);
  if (settled) return t;
  ++(t->result.passed ? v.passes : v.fails);
  if (v.attempt + 1 < max_attempts_ && v.passes <= max_attempts_ / 2 &&
      v.fails <= max_attempts_ / 2) {
    ++v.attempt;
    submit(v);
    return nullptr;
  }
  t->mixed_votes = v.passes > 0 && v.fails > 0;
  apply_majority_verdict(t, v.passes, v.fails);
  return t;
}

void VoteLoop::run(const Settled& settled) {
  const TrialExecutor::Done done = [&](std::uint64_t ticket,
                                       runner::TrialOutcome o) {
    std::lock_guard<std::mutex> lock(mu_);
    if (TrialEval* t = record(ticket, std::move(o))) settled(t);
  };
  // Between polls no lane runs, so votes_ is read without the lock.
  while (!votes_.empty()) {
    executor_.poll(done);
    if (TrialExecutor* fallback = executor_.fallback()) fallback->poll(done);
  }
}

std::string trial_key(const StructureIndex& index,
                      const PrecisionConfig& cfg) {
  return hex_digest(cfg.effective(index).stable_hash());
}

namespace {

/// Lane counts past kMaxLanes are refused before any thread or process
/// starts.
void check_lane_counts(const SearchOptions& o) {
  if (o.num_threads > kMaxLanes || o.num_workers > kMaxLanes) {
    throw Error(strformat("search: %zu threads / %zu workers requested; at "
                          "most %zu lanes are supported",
                          o.num_threads, o.num_workers, kMaxLanes));
  }
}

}  // namespace

SearchResult run_search(const program::Image& original,
                        config::StructureIndex* index,
                        const verify::Verifier& verifier,
                        const SearchOptions& options) {
  FPMIX_CHECK(index != nullptr);
  check_lane_counts(options);
  Searcher s(original, index, verifier, options, nullptr);
  return s.run();
}

SearchResult run_search(const program::Image& original,
                        config::StructureIndex* index,
                        const verify::Verifier& verifier,
                        const SearchOptions& options,
                        TrialExecutor& executor) {
  FPMIX_CHECK(index != nullptr);
  check_lane_counts(options);
  Searcher s(original, index, verifier, options, &executor);
  return s.run();
}

}  // namespace fpmix::search
