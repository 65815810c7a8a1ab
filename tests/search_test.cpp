// Tests for the breadth-first configuration search: descent semantics,
// optimizations, stop levels, final-composition behaviour, and the paper's
// key claims (coarsest-granularity results, pruning effectiveness).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "config/textio.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "runner/trial_runner.hpp"
#include "search/search.hpp"
#include "search/trial_executor.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "verify/evaluate.hpp"
#include "vm/jit/jit.hpp"

namespace fpmix::search {
namespace {

using config::Precision;
using lang::Builder;
using lang::Expr;

struct Prepared {
  program::Image image;
  config::StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

/// A program with engineered sensitivity: module `soft` tolerates single
/// precision (its contribution is rounded to 1e-2), module `hard` does not
/// (its exact value feeds the tightly-checked output).
lang::ProgramModel two_module_program() {
  Builder b;
  auto soft_out = b.var_f64("soft_out");
  auto hard_out = b.var_f64("hard_out");

  b.begin_func("soft_work", "soft");
  {
    auto i = b.var_i64("s_i");
    auto acc = b.var_f64("s_acc");
    b.set(acc, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(50), [&] {
      b.set(acc, Expr(acc) + sqrt_(to_f64(Expr(i) + b.ci(1))));
    });
    // Quantize so float rounding cannot show (acc ~ 238; float error ~1e-5).
    b.set(soft_out, floor_(Expr(acc) * b.cf(100.0)));
  }
  b.end_func();

  b.begin_func("hard_work", "hard");
  {
    auto i = b.var_i64("h_i");
    auto acc = b.var_f64("h_acc");
    b.set(acc, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(50), [&] {
      b.set(acc, Expr(acc) + b.cf(1.0) / to_f64(Expr(i) + b.ci(3)));
    });
    b.set(hard_out, acc);
  }
  b.end_func();

  b.begin_func("main", "main_mod");
  b.call("soft_work");
  b.call("hard_work");
  b.output(soft_out);
  b.output(hard_out);
  b.end_func();
  return b.take_model();
}

Prepared prepare(const lang::ProgramModel& model, double rel_tol) {
  Prepared p{program::relayout(lang::compile(model, lang::Mode::kDouble)),
             {}, nullptr};
  p.index = config::StructureIndex::build(program::lift(p.image));
  std::vector<double> ref = verify::reference_outputs(p.image);
  p.verifier =
      std::make_unique<verify::RelativeErrorVerifier>(std::move(ref),
                                                      rel_tol);
  return p;
}

TEST(Search, FindsModuleLevelReplacement) {
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  SearchResult res = run_search(p.image, &p.index, *p.verifier, opts);

  // Module `soft` passes whole; module `hard` must be refused at every
  // granularity that matters dynamically.
  const std::size_t soft_mod = p.index.module_named("soft");
  EXPECT_EQ(res.final_config.module_flag(soft_mod), Precision::kSingle);
  EXPECT_TRUE(res.final_passed);
  EXPECT_GT(res.stats.replaced_static, 0u);

  // The hard module's accumulation instructions stay double.
  const std::size_t hard_fn = p.index.func_named("hard_work");
  std::size_t hard_replaced = 0;
  for (std::size_t i : p.index.funcs()[hard_fn].candidates) {
    if (res.final_config.resolve(p.index, i) == Precision::kSingle) {
      ++hard_replaced;
    }
  }
  EXPECT_LT(hard_replaced, p.index.funcs()[hard_fn].candidates.size());
}

TEST(Search, CoarsestGranularityIsPreferred) {
  // When a whole module passes, no finer structure of it is ever tested.
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  SearchResult res = run_search(p.image, &p.index, *p.verifier, opts);
  for (const TestRecord& rec : res.trace) {
    if (rec.unit.find("module soft") != std::string::npos) {
      EXPECT_TRUE(rec.passed);
    }
    // No sub-structure of soft was tested: soft_work never appears.
    EXPECT_EQ(rec.unit.find("func soft_work"), std::string::npos)
        << rec.unit;
  }
}

TEST(Search, StopLevelLimitsDescent) {
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  opts.stop_level = StopLevel::kFunction;
  SearchResult res = run_search(p.image, &p.index, *p.verifier, opts);
  for (const TestRecord& rec : res.trace) {
    EXPECT_EQ(rec.unit.find("block"), std::string::npos) << rec.unit;
    EXPECT_EQ(rec.unit.find("insn"), std::string::npos) << rec.unit;
  }

  Prepared p2 = prepare(two_module_program(), 1e-12);
  opts.stop_level = StopLevel::kModule;
  SearchResult res2 = run_search(p2.image, &p2.index, *p.verifier, opts);
  // Modules only: one test per module that has candidates (main_mod has
  // none) plus the final composition.
  std::size_t modules_with_candidates = 0;
  for (const auto& m : p2.index.modules()) {
    if (!m.candidates.empty()) ++modules_with_candidates;
  }
  EXPECT_EQ(res2.configs_tested, modules_with_candidates + 1);
}

TEST(Search, BinarySplitHelpsOnSprinkledFailures) {
  // The paper's stated case for binary splitting: "a large number of
  // replaceable sections sprinkled with a few non-replaceable sections."
  // One big straight-line block of 24 independent narrowable adds plus a
  // single sensitive chain: splitting isolates the bad region in O(log n)
  // tests instead of testing every instruction.
  Builder b;
  b.begin_func("main", "m");
  auto good = b.var_f64("good");
  auto bad = b.var_f64("bad");
  b.set(good, b.cf(0.0));
  // 24 independently harmless candidates (results quantized via floor).
  for (int k = 0; k < 24; ++k) {
    b.set(good, floor_(Expr(good) + b.cf(1.0 + k)));
  }
  // A precision-critical tail in the same block.
  b.set(bad, b.cf(1.0) / b.cf(3.0) + b.cf(1.0) / b.cf(7.0));
  b.output(good);
  b.output(bad);
  b.end_func();
  const lang::ProgramModel model = b.take_model();

  Prepared p1 = prepare(model, 1e-12);
  SearchOptions with_split;
  with_split.binary_split = true;
  const SearchResult r1 =
      run_search(p1.image, &p1.index, *p1.verifier, with_split);

  Prepared p2 = prepare(model, 1e-12);
  SearchOptions no_split;
  no_split.binary_split = false;
  const SearchResult r2 =
      run_search(p2.image, &p2.index, *p2.verifier, no_split);

  // Identical replacement outcome, fewer configurations with splitting.
  EXPECT_EQ(r1.stats.replaced_static, r2.stats.replaced_static);
  EXPECT_LT(r1.configs_tested, r2.configs_tested);
}

TEST(Search, PrioritizationTestsHotUnitsFirst) {
  Prepared p = prepare(two_module_program(), 1e-12);
  SearchOptions opts;
  opts.prioritize_by_profile = true;
  SearchResult res = run_search(p.image, &p.index, *p.verifier, opts);
  ASSERT_GE(res.trace.size(), 2u);
  // First tested unit must be the heaviest module by candidate executions.
  std::uint64_t best = 0;
  std::size_t best_m = 0;
  for (std::size_t m = 0; m < p.index.modules().size(); ++m) {
    const std::uint64_t wgt = p.index.candidate_weight_of_module(m);
    if (wgt > best) {
      best = wgt;
      best_m = m;
    }
  }
  EXPECT_NE(res.trace[0].unit.find(p.index.modules()[best_m].name),
            std::string::npos)
      << res.trace[0].unit;
}

TEST(Search, ParallelEvaluationMatchesSerial) {
  kernels::Workload w = kernels::make_ep('S');
  const program::Image img = kernels::build_image(w);
  auto verifier = kernels::make_verifier(w, img);

  SearchOptions serial;
  serial.num_threads = 1;
  auto ix1 = config::StructureIndex::build(program::lift(img));
  const SearchResult r1 = run_search(img, &ix1, *verifier, serial);

  SearchOptions parallel;
  parallel.num_threads = 4;
  auto ix2 = config::StructureIndex::build(program::lift(img));
  const SearchResult r2 = run_search(img, &ix2, *verifier, parallel);

  EXPECT_EQ(r1.stats.replaced_static, r2.stats.replaced_static);
  EXPECT_EQ(r1.final_passed, r2.final_passed);

  // At equal lane counts, in-process threads and sandboxed workers run the
  // same vote rounds: byte-identical deterministic journals and the same
  // retry/quarantine counts, with max_retries spending extra attempts.
  if (!runner::isolation_supported()) return;
  std::string journals[2];
  SearchMetrics metrics[2];
  for (int isolated = 0; isolated < 2; ++isolated) {
    SearchOptions opts;
    opts.num_threads = 2;
    opts.max_retries = 2;
    opts.isolate_trials = isolated == 1;
    opts.num_workers = 2;
    opts.journal_timings = false;
    opts.journal_path = testing::TempDir() +
                        (isolated ? "parallel_iso.jsonl" : "parallel_thr.jsonl");
    std::remove(opts.journal_path.c_str());
    auto ix = config::StructureIndex::build(program::lift(img));
    const SearchResult r = run_search(img, &ix, *verifier, opts);
    EXPECT_EQ(r.stats.replaced_static, r1.stats.replaced_static);
    EXPECT_EQ(r.final_passed, r1.final_passed);
    std::ifstream f(opts.journal_path, std::ios::binary);
    std::ostringstream bytes;
    bytes << f.rdbuf();
    journals[isolated] = bytes.str();
    metrics[isolated] = r.metrics;
  }
  ASSERT_FALSE(journals[0].empty());
  EXPECT_EQ(journals[1], journals[0]);
  EXPECT_GT(metrics[0].retries, 0u);
  EXPECT_EQ(metrics[1].retries, metrics[0].retries);
  EXPECT_EQ(metrics[1].quarantined, metrics[0].quarantined);
}

TEST(Search, AllReplaceableWorkloadNeedsFewTests) {
  // The paper's AMG result: the whole kernel passes at module level, so the
  // search needs only #modules + 1 runs.
  kernels::Workload w = kernels::make_amg();
  const program::Image img = kernels::build_image(w);
  auto verifier = kernels::make_verifier(w, img);
  auto ix = config::StructureIndex::build(program::lift(img));
  const SearchResult res = run_search(img, &ix, *verifier, {});
  EXPECT_TRUE(res.final_passed);
  EXPECT_NEAR(res.stats.static_pct, 100.0, 1e-9);
  EXPECT_NEAR(res.stats.dynamic_pct, 100.0, 1e-9);
  EXPECT_EQ(res.configs_tested, ix.modules().size() + 1);
}

TEST(Search, FinalConfigSerializesToFigure3Format) {
  Prepared p = prepare(two_module_program(), 1e-12);
  const SearchResult res = run_search(p.image, &p.index, *p.verifier, {});
  const std::string text = config::to_text(p.index, res.final_config);
  const config::PrecisionConfig parsed = config::from_text(p.index, text);
  EXPECT_EQ(parsed, res.final_config);
}

// ---------------------------------------------------------------------------
// The vote loop, driven through a scripted executor.

runner::TrialOutcome outcome(bool passed, verify::FailureClass cls) {
  runner::TrialOutcome o;
  o.result.passed = passed;
  o.result.failure_class = cls;
  if (!passed) o.result.failure = verify::failure_class_name(cls);
  o.result.cost.run_ns = 3;
  o.wall_ns = 10;
  return o;
}
runner::TrialOutcome pass() { return outcome(true, verify::FailureClass::kNone); }
/// Run time summed over every attempt a trial spent.
std::uint64_t run_ns(const TrialEval& t) {
  std::uint64_t ns = 0;
  for (const verify::TrialCost& c : t.attempts) ns += c.run_ns;
  return ns;
}
runner::TrialOutcome fail() {
  return outcome(false, verify::FailureClass::kDivergence);
}
runner::TrialOutcome internal_error() {
  return outcome(false, verify::FailureClass::kInternalError);
}
runner::TrialOutcome quarantined() {
  runner::TrialOutcome o = outcome(false, verify::FailureClass::kCrash);
  o.quarantined = true;
  return o;
}
runner::TrialOutcome unserved() {
  runner::TrialOutcome o;
  o.served = false;
  return o;
}

/// Plays back a fixed outcome sequence per trial key, one per execution,
/// and records every (key, attempt) it is asked to run. Each poll finishes
/// the queued attempts oldest first, or newest first when `lifo`.
class ScriptedExecutor final : public TrialExecutor {
 public:
  ScriptedExecutor(bool sandboxed,
                   std::map<std::string, std::vector<runner::TrialOutcome>> s,
                   TrialExecutor* fallback = nullptr, bool lifo = false)
      : TrialExecutor(sandboxed, /*lanes=*/4), script_(std::move(s)),
        fallback_(fallback), lifo_(lifo) {}

  void submit(std::uint64_t ticket, const runner::TrialJob& job,
              std::uint32_t attempt) override {
    queued_.push_back({ticket, job.key, attempt});
  }

  void poll(const Done& done) override {
    while (!queued_.empty()) {
      Queued q;
      if (lifo_) {
        q = queued_.back();
        queued_.pop_back();
      } else {
        q = queued_.front();
        queued_.erase(queued_.begin());
      }
      calls.emplace_back(q.key, q.attempt);
      const std::vector<runner::TrialOutcome>& seq = script_.at(q.key);
      std::size_t& next = next_[q.key];
      if (next >= seq.size()) {
        ADD_FAILURE() << q.key << " ran past its script";
        done(q.ticket, fail());
        continue;
      }
      done(q.ticket, seq[next++]);
    }
  }

  TrialExecutor* fallback() override { return fallback_; }

  std::vector<std::pair<std::string, std::uint32_t>> calls;

 private:
  struct Queued {
    std::uint64_t ticket = 0;
    std::string key;
    std::uint32_t attempt = 0;
  };
  std::map<std::string, std::vector<runner::TrialOutcome>> script_;
  std::map<std::string, std::size_t> next_;
  TrialExecutor* fallback_;
  const bool lifo_;
  std::vector<Queued> queued_;
};

TrialEval vote_one(TrialExecutor& ex, std::uint32_t max_retries) {
  TrialEval t;
  t.key = "k";
  VoteLoop loop(ex, max_retries);
  loop.start(&t);
  loop.run([](TrialEval*) {});
  return t;
}

TEST(VoteLoop, StrictMajorityOfTheAllowedAttemptsAndTiesFail) {
  struct Case {
    std::uint32_t retries;
    std::vector<runner::TrialOutcome> script;
    bool passed;
    std::uint32_t attempts;
    bool mixed;
  };
  const std::vector<Case> cases = {
      {0, {pass()}, true, 1, false},
      {0, {fail()}, false, 1, false},
      {1, {pass(), pass()}, true, 2, false},
      {1, {pass(), fail()}, false, 2, true},  // tie fails
      {1, {fail(), pass()}, false, 2, true},
      {1, {fail(), fail()}, false, 2, false},
      {2, {pass(), pass()}, true, 2, false},  // early stop at a majority
      {2, {fail(), fail()}, false, 2, false},
      {2, {pass(), fail(), pass()}, true, 3, true},
      {2, {fail(), pass(), fail()}, false, 3, true},
      {2, {fail(), pass(), pass()}, true, 3, true},
      {2, {pass(), fail(), fail()}, false, 3, true},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(c);
    const Case& k = cases[c];
    for (const bool sandboxed : {false, true}) {
      ScriptedExecutor ex(sandboxed, {{"k", k.script}});
      const TrialEval t = vote_one(ex, k.retries);
      EXPECT_EQ(t.result.passed, k.passed);
      EXPECT_EQ(t.attempts.size(), k.attempts);
      EXPECT_EQ(t.mixed_votes, k.mixed);
      EXPECT_EQ(t.eval_ns, 10u * k.attempts);
      EXPECT_EQ(run_ns(t), 3u * k.attempts);
      // The attempt index is the vote round.
      ASSERT_EQ(ex.calls.size(), k.attempts);
      for (std::uint32_t a = 0; a < k.attempts; ++a) {
        EXPECT_EQ(ex.calls[a].second, a);
      }
      if (k.passed) {
        EXPECT_EQ(t.result.failure_class, verify::FailureClass::kNone);
        EXPECT_TRUE(t.result.failure.empty());
      } else {
        EXPECT_NE(t.result.failure_class, verify::FailureClass::kNone);
      }
    }
  }
}

TEST(VoteLoop, SubmitsEachTrialsNextAttemptAsSoonAsItFinishes) {
  // Newest-first completion: c's attempts finish before a's first one runs,
  // which no whole-batch round could do.
  ScriptedExecutor ex(/*sandboxed=*/false,
                      {{"a", {pass(), pass()}},
                       {"b", {pass(), fail(), fail()}},
                       {"c", {fail(), fail()}}},
                      /*fallback=*/nullptr, /*lifo=*/true);
  TrialEval a, b, c;
  a.key = "a";
  b.key = "b";
  c.key = "c";
  VoteLoop loop(ex, /*max_retries=*/2);
  for (TrialEval* t : {&a, &b, &c}) loop.start(t);
  EXPECT_EQ(loop.open(), 3u);
  std::vector<std::string> settled;
  loop.run([&](TrialEval* t) { settled.push_back(t->key); });
  EXPECT_EQ(loop.open(), 0u);
  using Call = std::pair<std::string, std::uint32_t>;
  EXPECT_EQ(ex.calls, (std::vector<Call>{{"c", 0}, {"c", 1}, {"b", 0},
                                         {"b", 1}, {"b", 2}, {"a", 0},
                                         {"a", 1}}));
  EXPECT_EQ(settled, (std::vector<std::string>{"c", "b", "a"}));
  EXPECT_TRUE(a.result.passed);
  EXPECT_FALSE(a.mixed_votes);
  // Mixed votes settle by majority and flag the trial for quarantine.
  EXPECT_FALSE(b.result.passed);
  EXPECT_TRUE(b.mixed_votes);
  EXPECT_EQ(b.attempts.size(), 3u);
  EXPECT_FALSE(c.result.passed);
  EXPECT_FALSE(c.mixed_votes);
}

TEST(VoteLoop, SandboxedQuarantineAndInternalErrorSettleOutsideTheVote) {
  // A quarantine verdict after one passing vote: final, attempts counts the
  // votes plus the settling outcome.
  {
    ScriptedExecutor ex(/*sandboxed=*/true, {{"k", {pass(), quarantined()}}});
    const TrialEval t = vote_one(ex, 2);
    EXPECT_FALSE(t.result.passed);
    EXPECT_EQ(t.result.failure_class, verify::FailureClass::kCrash);
    EXPECT_EQ(t.attempts.size(), 2u);
    EXPECT_FALSE(t.mixed_votes);
    EXPECT_EQ(ex.calls.size(), 2u);
  }
  {
    ScriptedExecutor ex(/*sandboxed=*/true, {{"k", {internal_error()}}});
    const TrialEval t = vote_one(ex, 2);
    EXPECT_FALSE(t.result.passed);
    EXPECT_EQ(t.result.failure_class, verify::FailureClass::kInternalError);
    EXPECT_EQ(t.attempts.size(), 1u);
    EXPECT_EQ(ex.calls.size(), 1u);
  }
}

TEST(VoteLoop, InProcessInternalErrorVotesLikeAnyFailure) {
  ScriptedExecutor ex(/*sandboxed=*/false,
                      {{"k", {internal_error(), pass(), pass()}}});
  const TrialEval t = vote_one(ex, 2);
  EXPECT_TRUE(t.result.passed);
  EXPECT_EQ(t.attempts.size(), 3u);
  EXPECT_TRUE(t.mixed_votes);
}

TEST(VoteLoop, UnservedTrialRevotesOnTheFallbackKeepingItsAccounting) {
  ScriptedExecutor local(/*sandboxed=*/false, {{"k", {fail(), fail()}}});
  ScriptedExecutor fleet(/*sandboxed=*/true, {{"k", {pass(), unserved()}}},
                         &local);
  const TrialEval t = vote_one(fleet, 2);
  // The fallback vote starts over at attempt 0; only its votes decide.
  ASSERT_EQ(local.calls.size(), 2u);
  EXPECT_EQ(local.calls[0].second, 0u);
  EXPECT_EQ(local.calls[1].second, 1u);
  EXPECT_FALSE(t.result.passed);
  EXPECT_FALSE(t.mixed_votes);
  // One remote attempt plus two local ones, all accounted.
  EXPECT_EQ(t.attempts.size(), 3u);
  EXPECT_EQ(t.eval_ns, 30u);
  EXPECT_EQ(run_ns(t), 9u);
}

// ---------------------------------------------------------------------------
// The lane loop: whatever order attempts finish in, results commit in the
// order a 1-lane search pops them.

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << f.rdbuf();
  return bytes.str();
}

/// Evaluates every attempt for real, but finishes each poll round (all
/// attempts submitted so far) newest first, or in a seeded shuffle.
class ReorderingExecutor final : public TrialExecutor {
 public:
  ReorderingExecutor(const program::Image& image,
                     const config::StructureIndex& index,
                     const verify::Verifier& verifier, std::size_t lanes,
                     std::uint64_t shuffle_seed)
      : TrialExecutor(/*sandboxed=*/false, lanes), image_(image),
        index_(index), verifier_(verifier), rng_(shuffle_seed),
        shuffle_(shuffle_seed != 0) {}

  void submit(std::uint64_t ticket, const runner::TrialJob& job,
              std::uint32_t /*attempt*/) override {
    queued_.push_back({ticket, job.config});
    peak_open = std::max(peak_open, queued_.size());
  }

  void poll(const Done& done) override {
    while (!queued_.empty()) {
      std::vector<Queued> round;
      round.swap(queued_);
      if (shuffle_) {
        for (std::size_t i = round.size(); i > 1; --i) {
          std::swap(round[i - 1], round[rng_.next_u64() % i]);
        }
      } else {
        std::reverse(round.begin(), round.end());
      }
      for (const Queued& q : round) {
        runner::TrialOutcome o;
        o.result = verify::evaluate_config(image_, index_, *q.config,
                                           verifier_, {});
        done(q.ticket, std::move(o));
      }
    }
  }

  std::size_t peak_open = 0;

 private:
  struct Queued {
    std::uint64_t ticket;
    const config::PrecisionConfig* config;
  };
  const program::Image& image_;
  const config::StructureIndex& index_;
  const verify::Verifier& verifier_;
  SplitMix64 rng_;
  const bool shuffle_;
  std::vector<Queued> queued_;
};

TEST(LaneLoop, CommitsInOneLaneOrderWhateverOrderAttemptsFinish) {
  const kernels::Workload w = kernels::make_mg('S');
  const program::Image img = kernels::build_image(w);
  const auto verifier = kernels::make_verifier(w, img);
  const auto run = [&](const std::string& name, std::uint32_t retries,
                       ReorderingExecutor* ex, SearchResult* out) {
    SearchOptions opts;
    opts.max_retries = retries;
    opts.journal_timings = false;
    opts.journal_path = testing::TempDir() + "lane_loop_" + name + ".jsonl";
    std::remove(opts.journal_path.c_str());
    auto ix = config::StructureIndex::build(program::lift(img));
    *out = ex == nullptr ? run_search(img, &ix, *verifier, opts)
                         : run_search(img, &ix, *verifier, opts, *ex);
    return read_file(opts.journal_path);
  };
  for (const std::uint32_t retries : {0u, 1u}) {
    SCOPED_TRACE(retries);
    SearchResult serial;
    const std::string oracle = run("serial", retries, nullptr, &serial);
    ASSERT_FALSE(oracle.empty());
    for (const std::uint64_t seed : {0ull, 7ull, 1234ull}) {
      SCOPED_TRACE(seed);
      auto ix = config::StructureIndex::build(program::lift(img));
      ReorderingExecutor ex(img, ix, *verifier, /*lanes=*/6, seed);
      SearchResult r;
      EXPECT_EQ(run("reordered", retries, &ex, &r), oracle);
      // More than one attempt was outstanding, or nothing was reordered.
      EXPECT_GT(ex.peak_open, 2u);
      EXPECT_EQ(config::to_text(ix, r.final_config),
                config::to_text(ix, serial.final_config));
      ASSERT_EQ(r.trace.size(), serial.trace.size());
      for (std::size_t i = 0; i < r.trace.size(); ++i) {
        EXPECT_EQ(r.trace[i].unit, serial.trace[i].unit) << i;
        EXPECT_EQ(r.trace[i].key, serial.trace[i].key) << i;
        EXPECT_EQ(r.trace[i].passed, serial.trace[i].passed) << i;
        EXPECT_EQ(r.trace[i].cached, serial.trace[i].cached) << i;
      }
    }
  }
}

/// Three modules whose candidates run 4, 40 and 400 times, in that index
/// order: the profile pops them in the reverse of their seq order. Every
/// module fails at a tight tolerance, so the search descends in each.
lang::ProgramModel reversed_profile_program() {
  Builder b;
  const char* names[] = {"light", "medium", "heavy"};
  std::vector<lang::Var> outs;
  for (int m = 0; m < 3; ++m) {
    const std::string n = names[m];
    outs.push_back(b.var_f64(n + "_out"));
    b.begin_func(n, n + "_mod");
    auto i = b.var_i64(n + "_i");
    auto acc = b.var_f64(n + "_acc");
    b.set(acc, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(4 * (m == 0 ? 1 : m == 1 ? 10 : 100)), [&] {
      b.set(acc, Expr(acc) + b.cf(1.0) / to_f64(Expr(i) + b.ci(3)));
    });
    b.set(outs.back(), Expr(acc) * b.cf(3.0));
    b.end_func();
  }
  b.begin_func("main", "main_mod");
  for (const char* n : names) b.call(n);
  for (const lang::Var& v : outs) b.output(v);
  b.end_func();
  return b.take_model();
}

/// Evaluates each attempt for real inside submit(), so every module root
/// has its verdict before the search starts profiling the original, and
/// hands all verdicts it holds over at once, newest first, on each poll.
/// A profiling run (a JIT compile plus a run of the original) takes far
/// longer than that hand-over, so every root settles before the profile is
/// applied.
class EagerExecutor final : public TrialExecutor {
 public:
  EagerExecutor(const program::Image& image,
                const config::StructureIndex& index,
                const verify::Verifier& verifier, bool sandboxed)
      : TrialExecutor(sandboxed, /*lanes=*/4), image_(image), index_(index),
        verifier_(verifier) {}

  void submit(std::uint64_t ticket, const runner::TrialJob& job,
              std::uint32_t /*attempt*/) override {
    runner::TrialOutcome o;
    o.result = verify::evaluate_config(image_, index_, *job.config,
                                       verifier_, {});
    held_.emplace_back(ticket, std::move(o));
  }

  void poll(const Done& done) override {
    while (!held_.empty()) {
      std::vector<std::pair<std::uint64_t, runner::TrialOutcome>> round;
      round.swap(held_);
      for (auto it = round.rbegin(); it != round.rend(); ++it) {
        done(it->first, std::move(it->second));
      }
    }
  }

 private:
  const program::Image& image_;
  const config::StructureIndex& index_;
  const verify::Verifier& verifier_;
  std::vector<std::pair<std::uint64_t, runner::TrialOutcome>> held_;
};

TEST(ProfileOverlap, RootsBeforeTheProfileKeepTheOneLaneOrder) {
  Prepared p = prepare(reversed_profile_program(), 1e-12);
  ASSERT_EQ(p.index.modules().size(), 4u);  // light, medium, heavy, main
  const auto run = [&](const std::string& name, SearchOptions opts,
                       TrialExecutor* ex, SearchResult* out) {
    opts.journal_timings = false;
    opts.journal_path = testing::TempDir() + "profile_overlap_" + name +
                        ".jsonl";
    std::remove(opts.journal_path.c_str());
    auto ix = config::StructureIndex::build(program::lift(p.image));
    *out = ex == nullptr ? run_search(p.image, &ix, *p.verifier, opts)
                         : run_search(p.image, &ix, *p.verifier, opts, *ex);
    return read_file(opts.journal_path);
  };
  SearchResult serial;
  const std::string oracle = run("threads1", {}, nullptr, &serial);
  ASSERT_FALSE(oracle.empty());
  EXPECT_FALSE(serial.metrics.profile_degraded);
  EXPECT_GT(serial.metrics.profile_seconds, 0.0);
  // The profile reversed the seq order of the three module roots.
  const auto at = [&](const std::string& unit) {
    std::size_t i = 0;
    while (i < serial.trace.size() && serial.trace[i].unit != unit) ++i;
    return i;
  };
  EXPECT_EQ(at("module heavy_mod"), 0u);
  EXPECT_LT(at("module heavy_mod"), at("module medium_mod"));
  EXPECT_LT(at("module medium_mod"), at("module light_mod"));
  EXPECT_LT(at("module light_mod"), serial.trace.size());

  std::vector<std::pair<std::string, SearchResult>> runs;
  for (const std::size_t lanes : {2u, 4u}) {
    SearchOptions opts;
    opts.num_threads = lanes;
    SearchResult r;
    EXPECT_EQ(run("threads" + std::to_string(lanes), opts, nullptr, &r),
              oracle)
        << lanes << " lanes";
    runs.emplace_back("threads", std::move(r));
  }
  if (runner::isolation_supported()) {
    SearchOptions opts;
    opts.isolate_trials = true;
    opts.num_workers = 2;
    SearchResult r;
    EXPECT_EQ(run("isolate", opts, nullptr, &r), oracle);
    runs.emplace_back("isolate", std::move(r));
  }
  for (const bool sandboxed : {false, true}) {
    auto ix = config::StructureIndex::build(program::lift(p.image));
    EagerExecutor ex(p.image, ix, *p.verifier, sandboxed);
    SearchResult r;
    EXPECT_EQ(run(sandboxed ? "eager_sandboxed" : "eager", {}, &ex, &r),
              oracle)
        << (sandboxed ? "sandboxed" : "in-process") << " eager executor";
    runs.emplace_back("eager", std::move(r));
  }
  for (const auto& [what, r] : runs) {
    EXPECT_EQ(r.final_config, serial.final_config) << what;
    EXPECT_EQ(r.metrics.trials_live, serial.metrics.trials_live) << what;
    EXPECT_EQ(r.metrics.trials_derived, serial.metrics.trials_derived)
        << what;
    EXPECT_FALSE(r.metrics.profile_degraded) << what;
  }
}

TEST(ProfileOverlap, FailedProfileFallsBackToStructureOrder) {
  // The original cannot finish inside the per-run budget, so the profiling
  // run fails (and so does every trial): the search must still descend,
  // in structure order, exactly as with prioritisation off.
  Prepared p = prepare(reversed_profile_program(), 1e-12);
  const auto run = [&](bool prioritize, std::size_t lanes) {
    SearchOptions opts;
    opts.max_instructions_per_run = 200;
    opts.prioritize_by_profile = prioritize;
    opts.num_threads = lanes;
    auto ix = config::StructureIndex::build(program::lift(p.image));
    return run_search(p.image, &ix, *p.verifier, opts);
  };
  const SearchResult unweighted = run(false, 1);
  EXPECT_TRUE(unweighted.metrics.profile_degraded);
  ASSERT_GT(unweighted.trace.size(), 3u);
  EXPECT_EQ(unweighted.trace[0].unit, "module light_mod");
  EXPECT_EQ(unweighted.trace[1].unit, "module medium_mod");
  EXPECT_EQ(unweighted.trace[2].unit, "module heavy_mod");
  for (const std::size_t lanes : {1u, 3u}) {
    const SearchResult r = run(true, lanes);
    EXPECT_TRUE(r.metrics.profile_degraded) << lanes;
    EXPECT_GT(r.metrics.profile_seconds, 0.0) << lanes;
    EXPECT_FALSE(r.final_passed) << lanes;
    ASSERT_EQ(r.trace.size(), unweighted.trace.size()) << lanes;
    for (std::size_t i = 0; i < r.trace.size(); ++i) {
      EXPECT_EQ(r.trace[i].unit, unweighted.trace[i].unit) << lanes << " " << i;
      EXPECT_EQ(r.trace[i].key, unweighted.trace[i].key) << lanes << " " << i;
      EXPECT_FALSE(r.trace[i].passed) << lanes << " " << i;
    }
  }
}

TEST(SearchOptions, LaneCountsPastTheCapThrowBeforeAnythingStarts) {
  Prepared p = prepare(two_module_program(), 1e-12);
  const std::string journal = testing::TempDir() + "lane_cap.jsonl";
  for (const bool isolate : {false, true}) {
    SearchOptions opts;
    opts.journal_path = journal;
    opts.isolate_trials = isolate;
    (isolate ? opts.num_workers : opts.num_threads) = kMaxLanes + 1;
    std::remove(journal.c_str());
    EXPECT_THROW(run_search(p.image, &p.index, *p.verifier, opts), Error);
    // Refused before the journal (or any lane) came up.
    EXPECT_FALSE(std::ifstream(journal).good());
  }
  SearchOptions opts;
  opts.isolate_trials = true;
  opts.num_threads = kMaxLanes + 1;  // --isolate without --workers
  EXPECT_THROW(run_search(p.image, &p.index, *p.verifier, opts), Error);
}

// ---------------------------------------------------------------------------
// Engine defaults: every trial runs on the JIT unless the host cannot run
// compiled code, in which case the search says so.

TEST(Engines, DefaultIsJitWhereSupported) {
  EXPECT_EQ(SearchOptions{}.engine, vm::Engine::kJit);
  EXPECT_EQ(vm::Machine::Options{}.engine, vm::Engine::kJit);
  EXPECT_EQ(verify::EvalOptions{}.engine, vm::Engine::kJit);

  Prepared p = prepare(two_module_program(), 1e-12);
  const SearchResult res = run_search(p.image, &p.index, *p.verifier, {});
  const SearchMetrics& m = res.metrics;
  ASSERT_GT(m.trials_live, 0u);
  if (vm::jit::jit_supported()) {
    EXPECT_EQ(m.jit_downgraded, 0u);
    EXPECT_GT(m.jit_seconds, 0.0);
  } else {
    EXPECT_EQ(m.jit_downgraded, 1u);
    EXPECT_EQ(m.jit_seconds, 0.0);
  }
}

// ---------------------------------------------------------------------------
// The --metrics-json serializer.

/// A SearchResult in which every serialized field holds a distinct,
/// non-default value.
SearchResult full_result() {
  SearchResult res;
  SearchMetrics& m = res.metrics;
  m.trials_total = 101;
  m.trials_live = 102;
  m.trials_cached = 103;
  m.trials_derived = 144;
  m.cache_hit_rate = 1.25;
  m.wall_seconds = 2.5;
  m.eval_seconds = 3.75;
  m.trials_per_sec = 4.125;
  m.eval_seconds_per_level["module"] = 0.5;
  m.patch_seconds = 5.0625;
  m.predecode_seconds = 6.5;
  m.setup_seconds = 6.75;
  m.jit_seconds = 6.875;
  m.run_seconds = 7.25;
  m.verify_seconds = 8.75;
  m.driver_seconds = 8.875;
  m.profile_seconds = 8.90625;
  m.unattributed_seconds = 8.9375;
  m.image_cache_hits = 104;
  m.image_cache_misses = 105;
  m.funcs_reused = 106;
  m.funcs_patched = 107;
  m.failures_by_class["divergence"] = 108;
  m.failures_by_class["trap"] = 109;
  m.retries = 110;
  m.quarantined = 111;
  m.profile_degraded = true;
  m.jit_downgraded = 112;
  m.isolated_trials = 113;
  m.worker_crashes = 114;
  m.worker_respawns = 115;
  m.worker_timeouts = 116;
  m.protocol_errors = 117;
  m.crash_quarantined = 118;
  m.crashes_by_signal["SIGSEGV"] = 119;
  m.crashes_by_signal["exit:\"q\\1\""] = 120;
  m.crash_storm = true;
  m.isolation_degraded = true;
  m.delta_requests = 121;
  m.full_requests = 122;
  m.delta_bytes = 123;
  m.full_bytes = 124;
  m.remote_trials = 125;
  m.shard_cache_hits = 126;
  m.endpoint_failovers = 127;
  m.endpoint_reconnects = 128;
  m.endpoint_disconnects = 129;
  m.endpoints_lost = 130;
  m.remote_unserved = 131;
  m.remote_degraded = true;
  m.missed_beats = 132;
  m.lease_expiries = 133;
  m.late_results = 134;
  m.redispatched = 135;
  m.breaker_trips = 136;
  m.adopted_records = 137;
  m.gossip_rounds = 138;
  m.records_repaired = 139;
  m.shards_reloaded = 140;
  m.disk_faults = 141;
  m.state_degraded = 142;
  for (std::uint64_t i = 0; i < 2; ++i) {
    EndpointMetrics e;
    e.address = i == 0 ? "127.0.0.1:7001" : "host\\\"b\":7002";
    e.workers = static_cast<std::uint32_t>(200 + 30 * i);
    e.trials = 201 + 30 * i;
    e.cache_hits = 202 + 30 * i;
    e.failovers = 203 + 30 * i;
    e.reconnects = 204 + 30 * i;
    e.disconnects = 205 + 30 * i;
    e.busy_ns = 1500000000ull + 250000000ull * i;
    e.lost = i == 0;
    e.jit_downgraded = i == 1;
    e.pings = 206 + 30 * i;
    e.pongs = 207 + 30 * i;
    e.missed_beats = 208 + 30 * i;
    e.lease_expiries = 209 + 30 * i;
    e.late_results = 210 + 30 * i;
    e.redispatched = 211 + 30 * i;
    e.breaker_trips = 212 + 30 * i;
    e.rtt_p50_us = 213 + 30 * i;
    e.rtt_p95_us = 214 + 30 * i;
    e.rtt_max_us = 215 + 30 * i;
    e.journal_records = 216 + 30 * i;
    e.gossip_rounds = 217 + 30 * i;
    e.records_repaired = 218 + 30 * i;
    e.shards_reloaded = 219 + 30 * i;
    e.disk_faults = 220 + 30 * i;
    e.state_degraded = i == 1;
    m.endpoints_used.push_back(e);
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    m.worker_slots.push_back({300 + 10 * i, 301 + 10 * i, 302 + 10 * i,
                              303 + 10 * i, 304 + 10 * i});
  }
  res.configs_tested = 143;
  res.refined = true;
  res.final_passed = true;
  return res;
}

TEST(MetricsJson, MatchesParentWriterByteForByte) {
  // The JIT lowering census is process-wide; this process compiles nothing
  // after the reset, so every count in it is zero.
  vm::jit::reset_lowering_totals();
  // Captured from the serializer's previous home in examples/nas_search.cpp
  // on the same struct: keys, key order and number formats must not drift.
  // Since captured, one key joined: jit_lowering's "region_branches", right
  // after "fused_pairs"; the two estimated-savings keys left; and
  // "driver_seconds" and "unattributed_seconds" joined after
  // "verify_seconds"; "trials_derived" joined after "trials_cached" and
  // "profile_seconds" after "driver_seconds".
  const std::string expected = R"json({
  "trials_total": 101,
  "trials_live": 102,
  "trials_cached": 103,
  "trials_derived": 144,
  "cache_hit_rate": 1.250000,
  "wall_seconds": 2.500000,
  "eval_seconds": 3.750000,
  "trials_per_sec": 4.125000,
  "patch_seconds": 5.062500,
  "predecode_seconds": 6.500000,
  "setup_seconds": 6.750000,
  "jit_seconds": 6.875000,
  "run_seconds": 7.250000,
  "verify_seconds": 8.750000,
  "driver_seconds": 8.875000,
  "profile_seconds": 8.906250,
  "unattributed_seconds": 8.937500,
  "image_cache_hits": 104,
  "image_cache_misses": 105,
  "funcs_reused": 106,
  "funcs_patched": 107,
  "failures_by_class": {"divergence": 108, "trap": 109},
  "retries": 110,
  "quarantined": 111,
  "profile_degraded": true,
  "jit_downgraded": 112,
  "isolated_trials": 113,
  "worker_crashes": 114,
  "worker_respawns": 115,
  "worker_timeouts": 116,
  "protocol_errors": 117,
  "crash_quarantined": 118,
  "crashes_by_signal": {"SIGSEGV": 119, "exit:\"q\\1\"": 120},
  "crash_storm": true,
  "isolation_degraded": true,
  "delta_requests": 121,
  "full_requests": 122,
  "delta_bytes": 123,
  "full_bytes": 124,
  "remote_trials": 125,
  "shard_cache_hits": 126,
  "endpoint_failovers": 127,
  "endpoint_reconnects": 128,
  "endpoint_disconnects": 129,
  "endpoints_lost": 130,
  "remote_unserved": 131,
  "remote_degraded": true,
  "missed_beats": 132,
  "lease_expiries": 133,
  "late_results": 134,
  "redispatched": 135,
  "breaker_trips": 136,
  "adopted_records": 137,
  "gossip_rounds": 138,
  "records_repaired": 139,
  "shards_reloaded": 140,
  "disk_faults": 141,
  "state_degraded": 142,
  "endpoints": [{"address": "127.0.0.1:7001", "workers": 200, "trials": 201, "cache_hits": 202, "failovers": 203, "reconnects": 204, "disconnects": 205, "busy_seconds": 1.500000, "lost": true, "jit_downgraded": false, "pings": 206, "pongs": 207, "missed_beats": 208, "lease_expiries": 209, "late_results": 210, "redispatched": 211, "breaker_trips": 212, "rtt_p50_us": 213, "rtt_p95_us": 214, "rtt_max_us": 215, "journal_records": 216, "gossip_rounds": 217, "records_repaired": 218, "shards_reloaded": 219, "disk_faults": 220, "state_degraded": false}, {"address": "host\\\"b\":7002", "workers": 230, "trials": 231, "cache_hits": 232, "failovers": 233, "reconnects": 234, "disconnects": 235, "busy_seconds": 1.750000, "lost": false, "jit_downgraded": true, "pings": 236, "pongs": 237, "missed_beats": 238, "lease_expiries": 239, "late_results": 240, "redispatched": 241, "breaker_trips": 242, "rtt_p50_us": 243, "rtt_p95_us": 244, "rtt_max_us": 245, "journal_records": 246, "gossip_rounds": 247, "records_repaired": 248, "shards_reloaded": 249, "disk_faults": 250, "state_degraded": true}],
  "workers": [{"slot": 0, "requests": 300, "respawns": 301, "crashes": 302, "timeouts": 303, "quarantines": 304}, {"slot": 1, "requests": 310, "respawns": 311, "crashes": 312, "timeouts": 313, "quarantines": 314}],
  "jit_lowering": {"int": {"native": 0, "helper": 0}, "mem": {"native": 0, "helper": 0}, "branch": {"native": 0, "helper": 0}, "call/ret": {"native": 0, "helper": 0}, "f64": {"native": 0, "helper": 0}, "f32": {"native": 0, "helper": 0}, "packed": {"native": 0, "helper": 0}, "bitwise": {"native": 0, "helper": 0}, "convert": {"native": 0, "helper": 0}, "divrem": {"native": 0, "helper": 0}, "intrin": {"native": 0, "helper": 0}, "other": {"native": 0, "helper": 0}, "fused_pairs": 0, "region_branches": 0, "reg_alloc_blocks": 0, "reg_alloc_slots": 0},
  "configs_tested": 143,
  "refined": true,
  "final_passed": true
}
)json";
  EXPECT_EQ(metrics_json(full_result()), expected);
}

}  // namespace
}  // namespace fpmix::search
