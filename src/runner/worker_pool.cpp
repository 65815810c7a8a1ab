#include "runner/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/strings.hpp"
#include "support/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FPMIX_POOL_POSIX 1
#include <poll.h>
#else
#define FPMIX_POOL_POSIX 0
#endif

namespace fpmix::runner {

/// One worker plus its in-flight bookkeeping.
struct WorkerPool::Slot {
  Worker worker;
  bool busy = false;
  std::uint64_t ticket = 0;       // in-flight work ticket when busy
  std::uint64_t deadline_at = 0;  // steady ns; 0 = no supervisor timeout
  bool term_sent = false;
  std::uint64_t kill_at = 0;  // TERM grace expiry once term_sent
  std::size_t stats_index = 0;  // index into PoolStats::slots
};

PoolPlan plan_pool(const SandboxSpec& spec) {
  PoolPlan plan;
  plan.eval.max_instructions = spec.max_instructions;
  // Pass/fail is all a trial reports, so the VM takes its non-profiling
  // loop.
  plan.eval.profile = false;
  plan.eval.engine = spec.engine;
  plan.eval.deadline_ns = spec.deadline_ms * 1000000ull;
  plan.pool.max_crashes_per_config = spec.max_crashes;
  plan.pool.limits.address_space_mb = spec.rlimit_mb;
  // Supervisor wall-clock backstop over the worker's own VM deadline: a
  // worker stuck before the VM loop even starts (or hard-hung by a fault)
  // still gets reaped.
  plan.pool.trial_timeout_ms =
      spec.deadline_ms > 0 ? spec.deadline_ms * 3 + 1000 : 0;
  return plan;
}

WorkerPool::WorkerPool(const WorkerContext& ctx, const PoolOptions& opts)
    : ctx_(ctx), opts_(opts) {}

WorkerPool::~WorkerPool() = default;

SlotStats* WorkerPool::slot_stats(const Slot& s) {
  return s.stats_index < stats_.slots.size() ? &stats_.slots[s.stats_index]
                                             : nullptr;
}

bool WorkerPool::spawn_slot(Slot* slot, bool respawn) {
  if (!slot->worker.spawn(ctx_, opts_.limits)) return false;
  ++stats_.workers_spawned;
  if (respawn) {
    ++stats_.workers_respawned;
    if (SlotStats* ss = slot_stats(*slot)) ++ss->respawns;
  }
  return true;
}

bool WorkerPool::record_fault_event(const std::string& key) {
  const std::uint32_t streak = ++fault_streak_[key];
  if (streak < opts_.max_crashes_per_config) return false;
  quarantined_.insert(key);
  ++stats_.quarantined_configs;
  return true;
}

bool WorkerPool::start() {
  if (!isolation_supported()) return false;
  const int want = std::max(1, opts_.workers);
  for (int i = 0; i < want; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->stats_index = slots_.size();
    if (spawn_slot(slot.get(), /*respawn=*/false)) {
      slots_.push_back(std::move(slot));
    }
  }
  stats_.slots.resize(slots_.size());
  started_ = !slots_.empty();
  return started_;
}

void WorkerPool::submit(std::uint64_t ticket, const std::string& key,
                        const config::PrecisionConfig& config) {
  Work w;
  w.key = key;
  w.cfg = config;
  work_.emplace(ticket, std::move(w));
  queue_.push_back(ticket);
}

void WorkerPool::finish(std::uint64_t ticket, verify::EvalResult result,
                        bool quarantined) {
  auto it = work_.find(ticket);
  if (it == work_.end()) return;  // stale (post-storm) delivery
  Finished f;
  f.ticket = ticket;
  f.outcome.result = std::move(result);
  f.outcome.worker_deaths = it->second.deaths;
  f.outcome.quarantined = quarantined;
  const std::uint64_t start = it->second.first_ns;
  f.outcome.wall_ns = start != 0 && steady_ns() > start ? steady_ns() - start : 0;
  work_.erase(it);
  finished_.push_back(std::move(f));
}

// A verdict (pass/fail/timeout) landed for this config: its fault streak
// resets and the pool-wide storm detector sees a healthy environment.
void WorkerPool::deliver_verdict(std::uint64_t ticket,
                                 verify::EvalResult result) {
  auto it = work_.find(ticket);
  if (it != work_.end()) fault_streak_[it->second.key] = 0;
  consecutive_deaths_ = 0;
  finish(ticket, std::move(result), /*quarantined=*/false);
}

// A fault event (death / resource verdict / protocol error): retry the
// trial with a fresh injector draw, or trip the per-config breaker.
void WorkerPool::fault_event(std::uint64_t ticket, Slot* slot,
                             const std::string& detail) {
  auto it = work_.find(ticket);
  if (it == work_.end()) return;
  ++it->second.deaths;
  const std::string& key = it->second.key;
  if (record_fault_event(key)) {
    if (SlotStats* ss = slot_stats(*slot)) ++ss->quarantines;
    verify::EvalResult er;
    er.passed = false;
    er.failure_class = verify::FailureClass::kCrash;
    er.failure = strformat(
        "quarantined after %u consecutive worker faults (last: %s)",
        static_cast<unsigned>(fault_streak_[key]), detail.c_str());
    finish(ticket, std::move(er), /*quarantined=*/true);
  } else {
    queue_.push_back(ticket);
  }
}

void WorkerPool::note_death() {
  ++consecutive_deaths_;
  if (consecutive_deaths_ >= opts_.crash_storm_threshold) {
    stats_.crash_storm = true;
  }
}

// Force-kills and reaps a worker whose stream turned bad (corrupt frame,
// failed send). Harmless when the child is already gone.
Worker::Death WorkerPool::kill_and_reap(Slot* slot) {
  slot->worker.send_sigkill();
  Worker::Death death;
  slot->worker.reap(&death, /*block=*/true);
  return death;
}

void WorkerPool::process_ready(Slot* sp) {
#if FPMIX_POOL_POSIX
  Slot& s = *sp;
  std::string payload;
  bool eof = false;
  const FrameStatus st = s.worker.read_result(&payload, &eof);
  const std::uint64_t ticket = s.ticket;
  if (st == FrameStatus::kOk) {
    verify::EvalResult er;
    if (!decode_result(payload, &er)) {
      ++stats_.protocol_errors;
      kill_and_reap(&s);
      note_death();
      s.busy = false;
      if (SlotStats* ss = slot_stats(s)) ++ss->crashes;
      fault_event(ticket, &s, "malformed result payload from worker");
      return;
    }
    s.busy = false;
    if (er.failure_class == verify::FailureClass::kResource) {
      // Resource verdicts are fault events, not votes: the config gets a
      // fresh attempt, then the breaker.
      ++stats_.resource_retries;
      consecutive_deaths_ = 0;  // the worker survived and spoke
      fault_event(ticket, &s, er.failure);
      return;
    }
    deliver_verdict(ticket, std::move(er));
    return;
  }
  if (st == FrameStatus::kCorrupt) {
    ++stats_.protocol_errors;
    kill_and_reap(&s);
    note_death();
    s.busy = false;
    if (SlotStats* ss = slot_stats(s)) ++ss->crashes;
    fault_event(ticket, &s, "corrupt or truncated result frame");
    return;
  }
  // kNeedMore: either nothing complete yet, or EOF with no frame.
  if (!eof) return;
  Worker::Death death;
  s.worker.reap(&death, /*block=*/true);
  s.busy = false;
  if (s.term_sent) {
    // The supervisor killed it for exceeding the trial deadline: a
    // voting kTimeout verdict, same as the in-process deadline path.
    ++stats_.timeouts_killed;
    if (SlotStats* ss = slot_stats(s)) ++ss->timeouts;
    verify::EvalResult er;
    er.passed = false;
    er.failure_class = verify::FailureClass::kTimeout;
    er.run_status = vm::RunResult::Status::kDeadline;
    er.failure = strformat(
        "trial exceeded the supervisor deadline (%llu ms); worker killed",
        static_cast<unsigned long long>(opts_.trial_timeout_ms));
    deliver_verdict(ticket, std::move(er));
    return;
  }
  std::string detail;
  const verify::FailureClass cls = classify_death(death, &detail);
  ++stats_.worker_crashes;
  if (death.signaled) {
    ++stats_.crashes_by_signal[signal_name(death.signal)];
  } else {
    ++stats_.crashes_by_signal[strformat("exit:%d", death.exit_code)];
  }
  if (cls == verify::FailureClass::kResource) ++stats_.resource_retries;
  if (SlotStats* ss = slot_stats(s)) ++ss->crashes;
  note_death();
  fault_event(ticket, &s, detail);
#else
  (void)sp;
#endif
}

void WorkerPool::dispatch() {
#if FPMIX_POOL_POSIX
  for (auto& sp : slots_) {
    Slot& s = *sp;
    if (s.busy) continue;
    // Configs quarantined earlier never run again.
    while (!queue_.empty()) {
      const std::uint64_t t = queue_.front();
      auto it = work_.find(t);
      if (it == work_.end()) {  // stale ticket (post-storm drain)
        queue_.pop_front();
        continue;
      }
      if (quarantined_.count(it->second.key) == 0) break;
      queue_.pop_front();
      verify::EvalResult er;
      er.passed = false;
      er.failure_class = verify::FailureClass::kCrash;
      er.failure = "config quarantined by the crash-loop breaker";
      finish(t, std::move(er), /*quarantined=*/true);
    }
    if (queue_.empty()) break;
    if (!s.worker.running()) {
      if (consecutive_deaths_ > 0) {
        // Jittered exponential backoff (2ms doubling to a 200ms cap by
        // default): keeps a crash-looping config from respawn-thrashing
        // the machine, and keeps slots from respawning in lockstep.
        const std::uint64_t ms = backoff_delay_ms(
            opts_.respawn_backoff, consecutive_deaths_,
            backoff_rng_.next_u64());
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      }
      if (!spawn_slot(&s, /*respawn=*/true)) {
        note_death();  // repeated fork failure is an environment problem
        if (stats_.crash_storm) break;
        continue;
      }
    }
    const std::uint64_t t = queue_.front();
    queue_.pop_front();
    Work& w = work_.find(t)->second;
    TrialRequest req;
    req.key = w.key;
    req.exec_index = exec_counter_[w.key]++;
    req.config_key = w.cfg.canonical_key();
    if (w.first_ns == 0) w.first_ns = steady_ns();
    ++stats_.isolated_trials;
    if (!s.worker.send_request(req)) {
      const Worker::Death death = kill_and_reap(&s);
      std::string detail;
      classify_death(death, &detail);
      ++stats_.worker_crashes;
      if (SlotStats* ss = slot_stats(s)) ++ss->crashes;
      note_death();
      fault_event(t, &s,
                  strformat("request pipe broken (%s)", detail.c_str()));
      if (stats_.crash_storm) break;
      continue;
    }
    ++stats_.requests;
    stats_.config_bytes += req.config_key.size();
    if (SlotStats* ss = slot_stats(s)) ++ss->requests;
    s.busy = true;
    s.ticket = t;
    s.term_sent = false;
    s.kill_at = 0;
    s.deadline_at = opts_.trial_timeout_ms > 0
                        ? steady_ns() + opts_.trial_timeout_ms * 1000000ull
                        : 0;
  }
#endif
}

void WorkerPool::fail_all_outstanding(const std::string& reason) {
  // Collect first: finish() mutates work_.
  std::vector<std::uint64_t> tickets;
  tickets.reserve(work_.size());
  for (const auto& [t, w] : work_) tickets.push_back(t);
  for (std::uint64_t t : tickets) {
    verify::EvalResult er;
    er.passed = false;
    er.failure_class = verify::FailureClass::kInternalError;
    er.failure = reason;
    finish(t, std::move(er), /*quarantined=*/false);
  }
  queue_.clear();
}

void WorkerPool::pump(int max_wait_ms) {
#if !FPMIX_POOL_POSIX
  (void)max_wait_ms;
  fail_all_outstanding("process isolation is unsupported on this platform");
  return;
#else
  if (!started_) {
    fail_all_outstanding("worker pool has no running workers");
    return;
  }
  if (stats_.crash_storm) {
    fail_all_outstanding(strformat(
        "worker crash storm: %u consecutive deaths, batch aborted",
        static_cast<unsigned>(consecutive_deaths_)));
    return;
  }

  dispatch();
  if (stats_.crash_storm) {
    fail_all_outstanding(strformat(
        "worker crash storm: %u consecutive deaths, batch aborted",
        static_cast<unsigned>(consecutive_deaths_)));
    return;
  }

  // Gather in-flight response fds.
  std::vector<pollfd> fds;
  std::vector<Slot*> fd_slots;
  std::uint64_t next_event = 0;
  for (auto& sp : slots_) {
    Slot& s = *sp;
    if (!s.busy) continue;
    fds.push_back(pollfd{s.worker.response_fd(), POLLIN, 0});
    fd_slots.push_back(&s);
    const std::uint64_t ev = s.term_sent ? s.kill_at : s.deadline_at;
    if (ev != 0 && (next_event == 0 || ev < next_event)) next_event = ev;
  }
  if (fds.empty()) return;  // nothing in flight

  int timeout_ms = max_wait_ms;
  if (next_event != 0) {
    const std::uint64_t now = steady_ns();
    const int until =
        next_event > now
            ? static_cast<int>((next_event - now) / 1000000ull) + 1
            : 0;
    if (timeout_ms < 0 || until < timeout_ms) timeout_ms = until;
  }
  ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents != 0) process_ready(fd_slots[i]);
  }

  // Deadline enforcement: TERM first, KILL after the grace period.
  const std::uint64_t now = steady_ns();
  for (auto& sp : slots_) {
    Slot& s = *sp;
    if (!s.busy) continue;
    if (!s.term_sent && s.deadline_at != 0 && now >= s.deadline_at) {
      s.worker.send_sigterm();
      s.term_sent = true;
      s.kill_at = now + opts_.term_grace_ms * 1000000ull;
    } else if (s.term_sent && now >= s.kill_at) {
      s.worker.send_sigkill();
    }
  }
#endif
}

std::vector<WorkerPool::Finished> WorkerPool::take_finished() {
  std::vector<Finished> out;
  out.swap(finished_);
  return out;
}

void WorkerPool::poll_fds(std::vector<int>* out) const {
  for (const auto& sp : slots_) {
    if (sp->busy) out->push_back(sp->worker.response_fd());
  }
}

std::uint64_t WorkerPool::next_deadline_ns() const {
  std::uint64_t next_event = 0;
  for (const auto& sp : slots_) {
    const Slot& s = *sp;
    if (!s.busy) continue;
    const std::uint64_t ev = s.term_sent ? s.kill_at : s.deadline_at;
    if (ev != 0 && (next_event == 0 || ev < next_event)) next_event = ev;
  }
  return next_event;
}

}  // namespace fpmix::runner
