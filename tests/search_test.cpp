// Tests for the breadth-first configuration search: descent semantics,
// optimizations, stop levels, final-composition behaviour, and the paper's
// key claims (coarsest-granularity results, pruning effectiveness).
#include <gtest/gtest.h>

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
#include "verify/evaluate.hpp"

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
  o.result.run_ns = 3;
  o.wall_ns = 10;
  return o;
}
runner::TrialOutcome pass() { return outcome(true, verify::FailureClass::kNone); }
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
/// and records every (key, attempt) it is asked to run.
class ScriptedExecutor final : public TrialExecutor {
 public:
  ScriptedExecutor(bool sandboxed,
                   std::map<std::string, std::vector<runner::TrialOutcome>> s,
                   TrialExecutor* fallback = nullptr)
      : TrialExecutor(sandboxed, /*lanes=*/4), script_(std::move(s)),
        fallback_(fallback) {}

  std::vector<runner::TrialOutcome> run_batch(
      const std::vector<runner::TrialJob>& jobs,
      std::uint32_t attempt) override {
    batch_sizes.push_back(jobs.size());
    std::vector<runner::TrialOutcome> outs;
    for (const runner::TrialJob& job : jobs) {
      calls.emplace_back(job.key, attempt);
      const std::vector<runner::TrialOutcome>& seq = script_.at(job.key);
      std::size_t& next = next_[job.key];
      if (next >= seq.size()) {
        ADD_FAILURE() << job.key << " ran past its script";
        outs.push_back(fail());
        continue;
      }
      outs.push_back(seq[next++]);
    }
    return outs;
  }

  TrialExecutor* fallback() override { return fallback_; }

  std::vector<std::pair<std::string, std::uint32_t>> calls;
  std::vector<std::size_t> batch_sizes;

 private:
  std::map<std::string, std::vector<runner::TrialOutcome>> script_;
  std::map<std::string, std::size_t> next_;
  TrialExecutor* fallback_;
};

TrialEval vote_one(TrialExecutor& ex, std::uint32_t max_retries) {
  TrialEval t;
  t.key = "k";
  vote_batch(ex, {&t}, max_retries);
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
      EXPECT_EQ(t.attempts, k.attempts);
      EXPECT_EQ(t.mixed_votes, k.mixed);
      EXPECT_EQ(t.eval_ns, 10u * k.attempts);
      EXPECT_EQ(t.run_ns, 3u * k.attempts);
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

TEST(VoteLoop, RunsWholeBatchRoundsOverTheTrialsStillOpen) {
  ScriptedExecutor ex(/*sandboxed=*/false,
                      {{"a", {pass(), pass()}},
                       {"b", {pass(), fail(), fail()}},
                       {"c", {fail(), fail()}}});
  TrialEval a, b, c;
  a.key = "a";
  b.key = "b";
  c.key = "c";
  vote_batch(ex, {&a, &b, &c}, /*max_retries=*/2);
  EXPECT_EQ(ex.batch_sizes, (std::vector<std::size_t>{3, 3, 1}));
  EXPECT_TRUE(a.result.passed);
  EXPECT_FALSE(a.mixed_votes);
  // Mixed votes settle by majority and flag the trial for quarantine.
  EXPECT_FALSE(b.result.passed);
  EXPECT_TRUE(b.mixed_votes);
  EXPECT_EQ(b.attempts, 3u);
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
    EXPECT_EQ(t.attempts, 2u);
    EXPECT_FALSE(t.mixed_votes);
    EXPECT_EQ(ex.calls.size(), 2u);
  }
  {
    ScriptedExecutor ex(/*sandboxed=*/true, {{"k", {internal_error()}}});
    const TrialEval t = vote_one(ex, 2);
    EXPECT_FALSE(t.result.passed);
    EXPECT_EQ(t.result.failure_class, verify::FailureClass::kInternalError);
    EXPECT_EQ(t.attempts, 1u);
    EXPECT_EQ(ex.calls.size(), 1u);
  }
}

TEST(VoteLoop, InProcessInternalErrorVotesLikeAnyFailure) {
  ScriptedExecutor ex(/*sandboxed=*/false,
                      {{"k", {internal_error(), pass(), pass()}}});
  const TrialEval t = vote_one(ex, 2);
  EXPECT_TRUE(t.result.passed);
  EXPECT_EQ(t.attempts, 3u);
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
  EXPECT_EQ(t.attempts, 3u);
  EXPECT_EQ(t.eval_ns, 30u);
  EXPECT_EQ(t.run_ns, 9u);
}

}  // namespace
}  // namespace fpmix::search
