// The one seam between the search and the places a trial can run. Every
// configuration is tested independently, so the search hands whole batches
// to a TrialExecutor (in-process threads, runner::WorkerPool, the remote
// Scheduler; all in search.cpp). Backends never vote: the majority-vote
// policy lives once, in vote_batch().
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/worker_pool.hpp"
#include "search/search.hpp"

namespace fpmix::search {

class TrialExecutor {
 public:
  virtual ~TrialExecutor() = default;
  TrialExecutor(const TrialExecutor&) = delete;
  TrialExecutor& operator=(const TrialExecutor&) = delete;

  /// Trials the executor runs at once; the search sizes its batches to it.
  /// Fixed at construction, so batch boundaries -- and with them the
  /// journal order -- never depend on mid-search events.
  std::size_t lanes() const { return lanes_; }

  /// Runs every job once and returns the outcomes in job order. `attempt`
  /// is the vote round (0-based); the in-process backend draws its fault
  /// injection from it, sandboxed backends draw per execution instead.
  virtual std::vector<runner::TrialOutcome> run_batch(
      const std::vector<runner::TrialJob>& jobs, std::uint32_t attempt) = 0;

  /// Where trials go that this executor could not serve (served == false);
  /// nullptr when every job is always served.
  virtual TrialExecutor* fallback() { return nullptr; }

  /// Folds the backend's own counters into the search metrics (end of run).
  virtual void fold_metrics(SearchMetrics* /*m*/) const {}

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
/// accounting summed over *every* attempt spent on it.
struct TrialEval {
  config::PrecisionConfig cfg;
  std::string key;  // stable config digest (cache/journal identity)
  verify::EvalResult result;  // last attempt, then the settled verdict
  std::uint64_t eval_ns = 0;
  std::uint32_t attempts = 0;
  bool mixed_votes = false;  // attempts disagreed -> quarantine

  std::uint64_t patch_ns = 0;
  std::uint64_t predecode_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t verify_ns = 0;
  std::uint64_t patch_saved_ns = 0;
  std::uint64_t predecode_saved_ns = 0;
  std::size_t funcs_reused = 0;
  std::size_t funcs_patched = 0;
  std::size_t image_hits = 0;
  std::size_t image_misses = 0;
};

/// The majority vote over whole-batch rounds: round k runs every open trial
/// with attempt index k until one verdict holds a strict majority of the
/// 1 + max_retries allowed attempts (ties fail; disagreement sets
/// mixed_votes). An outcome the executor settles() stands as-is. A trial
/// the executor could not serve revotes from attempt 0 on its fallback,
/// keeping the attempts and time already spent.
void vote_batch(TrialExecutor& executor, const std::vector<TrialEval*>& trials,
                std::uint32_t max_retries);

}  // namespace fpmix::search
