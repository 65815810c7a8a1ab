// The one seam between the search and the places a trial can run. Every
// configuration is tested independently, so the search keeps up to lanes()
// attempts outstanding on a TrialExecutor (in-process lanes,
// runner::WorkerPool, the remote Scheduler; all in search.cpp) and hands
// each finished attempt to the one vote loop, VoteLoop, which submits the
// trial's next attempt or settles it. Backends never vote.
//
// Executors finish attempts in any order; the search commits them in the
// order a 1-lane search would (search.cpp), so nothing a backend does to
// the completion order reaches a journal byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runner/worker_pool.hpp"
#include "search/search.hpp"

namespace fpmix::search {

class TrialExecutor {
 public:
  /// Receives one finished attempt under the ticket it was submitted with.
  using Done =
      std::function<void(std::uint64_t ticket, runner::TrialOutcome outcome)>;

  virtual ~TrialExecutor() = default;
  TrialExecutor(const TrialExecutor&) = delete;
  TrialExecutor& operator=(const TrialExecutor&) = delete;

  /// Attempts the executor runs at once; the search keeps at most this many
  /// trials open on it. Fixed at construction.
  std::size_t lanes() const { return lanes_; }

  /// Queues one attempt of `job`. `ticket` is the caller's correlation id,
  /// unique among outstanding attempts; `job.config` must outlive the
  /// attempt. `attempt` is the vote round (0-based): the in-process backend
  /// draws its fault injection from it, sandboxed backends draw per
  /// execution instead. The caller serialises its submit() calls. Called
  /// from inside `done` on an in-process lane, the first attempt submitted
  /// becomes that lane's next one.
  virtual void submit(std::uint64_t ticket, const runner::TrialJob& job,
                      std::uint32_t attempt) = 0;

  /// Runs what has been submitted and hands every finished attempt to
  /// `done`, until no submitted attempt is outstanding -- including those
  /// `done` submits. In-process lanes call `done` on the lane that ran the
  /// attempt, several lanes at once; every other backend calls it on the
  /// polling thread. Returns at once when nothing is outstanding.
  virtual void poll(const Done& done) = 0;

  /// Starts attempts submitted so far without waiting for any to finish,
  /// where the backend can (sandboxed workers); the others start them in
  /// poll(). The search calls it before work it does on its own thread.
  virtual void dispatch() {}

  /// Where trials go that this executor could not serve (served == false);
  /// nullptr when every job is always served.
  virtual TrialExecutor* fallback() { return nullptr; }

  /// Folds the backend's own counters into the search metrics (end of run).
  virtual void fold_metrics(SearchMetrics* /*m*/) const {}

  /// Trials run in other processes (a worker pool, which may fork while
  /// the search runs, or a fleet).
  bool sandboxed() const { return sandboxed_; }

  /// The per-backend voting rule. Every in-process attempt votes,
  /// kInternalError included. A sandboxed executor (pool or fleet) has
  /// already absorbed worker and endpoint deaths into its own retries, so a
  /// quarantine verdict or a kInternalError (crash storm, dead pool) it
  /// delivers is final and settles the trial outside the vote.
  bool settles(const runner::TrialOutcome& o) const {
    return sandboxed_ &&
           (o.quarantined ||
            o.result.failure_class == verify::FailureClass::kInternalError);
  }

 protected:
  TrialExecutor(bool sandboxed, std::size_t lanes)
      : sandboxed_(sandboxed), lanes_(std::max<std::size_t>(1, lanes)) {}

 private:
  const bool sandboxed_;
  const std::size_t lanes_;
};

/// One configuration's evaluation: the job the vote loop submits, and the
/// accounting of *every* attempt spent on it.
struct TrialEval {
  config::PrecisionConfig cfg;
  std::string key;  // search::trial_key (cache/journal identity)
  verify::EvalResult result;  // last attempt, then the settled verdict
  std::uint64_t eval_ns = 0;  // summed wall time of the attempts
  /// The cost of each attempt, in order; size() is the attempt count.
  std::vector<verify::TrialCost> attempts;
  bool mixed_votes = false;  // attempts disagreed -> quarantine
};

/// The majority vote, per trial: attempt k + 1 is submitted as soon as
/// attempt k finishes, until one verdict holds a strict majority of the
/// 1 + max_retries allowed attempts (ties fail; disagreement sets
/// mixed_votes). An outcome the executor settles() stands as-is. A trial
/// the executor could not serve revotes from attempt 0 on its fallback,
/// keeping the attempts and time already spent.
class VoteLoop {
 public:
  using Settled = std::function<void(TrialEval*)>;

  VoteLoop(TrialExecutor& executor, std::uint32_t max_retries)
      : executor_(executor), max_attempts_(1 + max_retries) {}

  /// Opens `t`'s vote by submitting attempt 0; `t` must stay put until it
  /// settles. Call it before run() or from run()'s `settled`.
  void start(TrialEval* t);

  /// Votes still open.
  std::size_t open() const { return votes_.size(); }

  /// Polls the executor and its fallback until no vote is open, calling
  /// `settled` once for each trial as its vote settles. Calls to `settled`
  /// never overlap: they hold the loop's lock, as does all vote
  /// bookkeeping, so `settled` may start() further trials.
  void run(const Settled& settled);

 private:
  struct Vote {
    TrialEval* t = nullptr;
    TrialExecutor* executor = nullptr;
    std::uint32_t attempt = 0;
    std::uint32_t passes = 0;
    std::uint32_t fails = 0;
  };

  void submit(const Vote& v);
  /// Counts one finished attempt; returns the trial if that settled it.
  TrialEval* record(std::uint64_t ticket, runner::TrialOutcome o);

  TrialExecutor& executor_;
  const std::uint32_t max_attempts_;
  std::mutex mu_;
  std::map<std::uint64_t, Vote> votes_;  // ticket of the attempt in flight
  std::uint64_t next_ticket_ = 1;
};

/// run_search on a caller-supplied executor instead of the one `options`
/// selects: tests drive the lane loop with scripted completion orders.
SearchResult run_search(const program::Image& original,
                        config::StructureIndex* index,
                        const verify::Verifier& verifier,
                        const SearchOptions& options,
                        TrialExecutor& executor);

}  // namespace fpmix::search
