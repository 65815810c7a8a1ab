// Out-of-process sandboxed trial runners: the pipe protocol, the forked
// worker, the self-healing pool, and the search running on top of it.
//
// Four layers:
//  1. wire framing -- round-trips, incremental decode, and the guarantee
//     that no single-byte corruption ever yields a wrong payload;
//  2. worker supervision -- crash classification, the per-config
//     crash-loop circuit breaker, TERM->KILL escalation for hung workers,
//     OOM absorption, and the pool-wide crash-storm brake;
//  3. equivalence -- an isolated search must produce byte-identical results
//     to the in-process path on a clean run;
//  4. the acceptance soak -- seeded campaigns of process-destroying faults
//     (SIGSEGV, SIGKILL, allocation storms, corrupted result frames)
//     driven through full searches, asserting every campaign converges to
//     the same final configuration as a fault-free run.
//
// The soak's campaign count scales via FPMIX_SOAK_CAMPAIGNS (CI sets 200).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "config/textio.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "runner/trial_runner.hpp"
#include "runner/wire.hpp"
#include "runner/worker_pool.hpp"
#include "search/search.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "verify/evaluate.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#endif

namespace fpmix {
namespace {

using config::Precision;
using lang::Builder;
using lang::Expr;

// ---------------------------------------------------------------------------
// Wire framing.

TEST(Wire, FrameRoundTripAndIncrementalDecode) {
  const std::string payload = "hello trial runner \x01\x02\xff";
  const std::string frame = runner::encode_frame(payload);

  // Feeding the stream byte by byte: kNeedMore until the last byte.
  std::string got;
  std::size_t consumed = 0;
  for (std::size_t n = 0; n + 1 < frame.size(); ++n) {
    EXPECT_EQ(runner::decode_frame(frame.substr(0, n), &got, &consumed),
              runner::FrameStatus::kNeedMore)
        << "prefix " << n;
  }
  ASSERT_EQ(runner::decode_frame(frame, &got, &consumed),
            runner::FrameStatus::kOk);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(consumed, frame.size());

  // Two frames back to back decode sequentially.
  const std::string frame2 = runner::encode_frame("second");
  std::string stream = frame + frame2;
  ASSERT_EQ(runner::decode_frame(stream, &got, &consumed),
            runner::FrameStatus::kOk);
  EXPECT_EQ(got, payload);
  stream.erase(0, consumed);
  ASSERT_EQ(runner::decode_frame(stream, &got, &consumed),
            runner::FrameStatus::kOk);
  EXPECT_EQ(got, "second");
}

TEST(Wire, SingleByteCorruptionNeverYieldsWrongPayload) {
  const std::string payload = "trial result payload 1234567890";
  const std::string frame = runner::encode_frame(payload);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string dam = frame;
    dam[i] = static_cast<char>(dam[i] ^ 0x20);
    std::string got;
    std::size_t consumed = 0;
    const runner::FrameStatus st =
        runner::decode_frame(dam, &got, &consumed);
    // Corrupting the length field can turn the frame into a longer-frame
    // prefix (kNeedMore); everything else must be caught by magic or CRC.
    // No corruption may ever decode as a valid frame.
    EXPECT_NE(st, runner::FrameStatus::kOk) << "byte " << i;
  }
}

TEST(Wire, RequestAndResultRoundTrip) {
  runner::TrialRequest req;
  req.key = "cfg-digest-abc";
  req.exec_index = 7;
  req.config_key = "m0=s;f3=d;i12=i;";
  runner::TrialRequest back;
  ASSERT_TRUE(runner::decode_request(runner::encode_request(req), &back));
  EXPECT_EQ(back.key, req.key);
  EXPECT_EQ(back.exec_index, req.exec_index);
  EXPECT_EQ(back.config_key, req.config_key);

  verify::EvalResult er;
  er.passed = false;
  er.failure_class = verify::FailureClass::kSentinelEscape;
  er.run_status = vm::RunResult::Status::kTrapped;
  er.failure = "sentinel escaped at 0x40";
  er.instructions_retired = 12345;
  er.cost.patch_ns = 1;
  er.cost.predecode_ns = 2;
  er.cost.run_ns = 3;
  er.cost.verify_ns = 4;
  er.cost.image_cache_hit = true;
  er.cost.patch_saved_ns = 111;
  er.cost.predecode_saved_ns = 222;
  er.cost.funcs_reused = 5;
  er.cost.funcs_total = 9;
  // Fields the wire does not carry must not leak into the payload.
  er.outputs = {1.5, 2.5};
  er.stats.wrapped = 77;
  // The result payload layout is shared with workers and runner_serve
  // daemons of the same protocol version: field order and widths are
  // pinned byte for byte.
  const std::string payload = runner::encode_result(er);
  std::string hex;
  for (const unsigned char c : payload) {
    hex += strformat("%02x", c);
  }
  EXPECT_EQ(hex,
            "00" "02" "01"  // passed, failure_class, run_status
            "18000000"      // failure: length, then bytes
            "73656e74696e656c20657363617065642061742030783430"
            "3930000000000000"  // instructions_retired
            "0100000000000000"  // patch_ns
            "0200000000000000"  // predecode_ns
            "0300000000000000"  // run_ns
            "0400000000000000"  // verify_ns
            "01"                // image_cache_hit
            "6f00000000000000"  // patch_saved_ns
            "de00000000000000"  // predecode_saved_ns
            "05000000"          // funcs_reused
            "09000000");        // funcs_total
  verify::EvalResult er2;
  ASSERT_TRUE(runner::decode_result(payload, &er2));
  EXPECT_TRUE(er2.outputs.empty());
  EXPECT_EQ(er2.stats.wrapped, 0u);
  EXPECT_EQ(er2.passed, er.passed);
  EXPECT_EQ(er2.failure_class, er.failure_class);
  EXPECT_EQ(er2.run_status, er.run_status);
  EXPECT_EQ(er2.failure, er.failure);
  EXPECT_EQ(er2.instructions_retired, er.instructions_retired);
  EXPECT_EQ(er2.cost.run_ns, er.cost.run_ns);
  EXPECT_EQ(er2.cost.image_cache_hit, er.cost.image_cache_hit);
  EXPECT_EQ(er2.cost.patch_saved_ns, er.cost.patch_saved_ns);
  EXPECT_EQ(er2.cost.predecode_saved_ns, er.cost.predecode_saved_ns);
  EXPECT_EQ(er2.cost.funcs_reused, er.cost.funcs_reused);
  EXPECT_EQ(er2.cost.funcs_total, er.cost.funcs_total);
}

TEST(Wire, RejectsOutOfRangeEnums) {
  const std::string good = runner::encode_result(verify::EvalResult{});
  verify::EvalResult er;
  ASSERT_TRUE(runner::decode_result(good, &er));
  // Byte 1 is the failure class, byte 2 the run status.
  std::string bad = good;
  bad[1] = static_cast<char>(250);  // far outside verify::FailureClass
  EXPECT_FALSE(runner::decode_result(bad, &er));
  bad = good;
  bad[1] = static_cast<char>(verify::FailureClass::kResource);
  EXPECT_TRUE(runner::decode_result(bad, &er));
  bad[2] = static_cast<char>(250);  // far outside vm::RunResult::Status
  EXPECT_FALSE(runner::decode_result(bad, &er));
}

TEST(Wire, TruncatedPayloadPoisonsReader) {
  runner::TrialRequest req;
  req.key = "k";
  req.config_key = "m0=s;";
  const std::string payload = runner::encode_request(req);
  for (std::size_t n = 0; n < payload.size(); ++n) {
    runner::TrialRequest back;
    EXPECT_FALSE(runner::decode_request(payload.substr(0, n), &back))
        << "prefix " << n;
  }
}

// ---------------------------------------------------------------------------
// Death classification.

TEST(ClassifyDeath, Taxonomy) {
#if defined(__unix__) || defined(__APPLE__)
  std::string detail;
  runner::Worker::Death segv{true, SIGSEGV, 0};
  EXPECT_EQ(runner::classify_death(segv, &detail),
            verify::FailureClass::kCrash);
  EXPECT_NE(detail.find("SIGSEGV"), std::string::npos);

  runner::Worker::Death xcpu{true, SIGXCPU, 0};
  EXPECT_EQ(runner::classify_death(xcpu, &detail),
            verify::FailureClass::kResource);

  runner::Worker::Death exited{false, 0, 3};
  EXPECT_EQ(runner::classify_death(exited, &detail),
            verify::FailureClass::kCrash);
  EXPECT_NE(detail.find("3"), std::string::npos);
#else
  GTEST_SKIP() << "POSIX-only taxonomy";
#endif
}

// ---------------------------------------------------------------------------
// Worker pool supervision. Everything below forks real processes.

struct IsoWorkload {
  program::Image image;
  config::StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

/// Same mixed-sensitivity shape as the fault-soak workload: a narrowable
/// floor() chain plus a precision-critical tail, so searches descend
/// through several levels.
IsoWorkload make_workload() {
  Builder b;
  b.begin_func("main", "m");
  auto good = b.var_f64("good");
  auto bad = b.var_f64("bad");
  b.set(good, b.cf(0.0));
  for (int k = 0; k < 10; ++k) {
    b.set(good, floor_(Expr(good) + b.cf(1.0 + k)));
  }
  b.set(bad, b.cf(1.0) / b.cf(3.0) + b.cf(1.0) / b.cf(7.0));
  b.output(good);
  b.output(bad);
  b.end_func();

  IsoWorkload w{program::relayout(lang::compile(b.take_model(),
                                                lang::Mode::kDouble)),
                {}, nullptr};
  w.index = config::StructureIndex::build(program::lift(w.image));
  std::vector<double> ref = verify::reference_outputs(w.image);
  w.verifier = std::make_unique<verify::RelativeErrorVerifier>(std::move(ref),
                                                               1e-12);
  return w;
}

runner::WorkerContext make_ctx(const IsoWorkload& w,
                               const fault::Injector* injector = nullptr) {
  runner::WorkerContext ctx;
  ctx.image = &w.image;
  ctx.index = &w.index;
  ctx.verifier = w.verifier.get();
  ctx.eval.max_instructions = 1ull << 24;
  ctx.injector = injector;
  return ctx;
}

#define SKIP_WITHOUT_FORK()                              \
  if (!runner::isolation_supported()) {                  \
    GTEST_SKIP() << "no fork on this platform";          \
  }

TEST(WorkerPool, CleanBatchMatchesInProcessVerdicts) {
  SKIP_WITHOUT_FORK();
  IsoWorkload w = make_workload();
  runner::PoolOptions popts;
  popts.workers = 2;
  runner::WorkerPool pool(make_ctx(w), popts);
  ASSERT_TRUE(pool.start());

  // all-double (passes trivially), whole-module single (fails: the
  // sensitive tail), and first-function single.
  config::PrecisionConfig all_double;
  config::PrecisionConfig module_single;
  module_single.set_module(0, Precision::kSingle);

  std::vector<runner::TrialJob> jobs;
  jobs.push_back(runner::TrialJob{"all-double", &all_double});
  jobs.push_back(runner::TrialJob{"module-single", &module_single});
  const std::vector<runner::TrialOutcome> outs = pool.run_batch(jobs);
  ASSERT_EQ(outs.size(), 2u);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const verify::EvalResult ref = verify::evaluate_config(
        w.image, w.index, *jobs[i].config, *w.verifier, make_ctx(w).eval);
    EXPECT_EQ(outs[i].result.passed, ref.passed) << jobs[i].key;
    EXPECT_EQ(outs[i].result.failure_class, ref.failure_class)
        << jobs[i].key;
    EXPECT_EQ(outs[i].result.failure, ref.failure) << jobs[i].key;
    EXPECT_EQ(outs[i].worker_deaths, 0u);
    EXPECT_FALSE(outs[i].quarantined);
  }
  EXPECT_EQ(pool.stats().worker_crashes, 0u);
  EXPECT_EQ(pool.stats().isolated_trials, 2u);
}

TEST(WorkerPool, CrashLoopTripsBreakerAndQuarantines) {
  SKIP_WITHOUT_FORK();
  IsoWorkload w = make_workload();
  fault::Injector::Rates rates;
  rates.segv = 1.0;  // every execution dies
  const fault::Injector injector(0xDEAD, rates);
  runner::PoolOptions popts;
  popts.workers = 1;
  popts.max_crashes_per_config = 3;
  popts.crash_storm_threshold = 100;  // isolate the per-config breaker
  runner::WorkerPool pool(make_ctx(w, &injector), popts);
  ASSERT_TRUE(pool.start());

  config::PrecisionConfig all_double;
  const std::vector<runner::TrialOutcome> outs =
      pool.run_batch({runner::TrialJob{"always-crash", &all_double}});
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_TRUE(outs[0].quarantined);
  EXPECT_FALSE(outs[0].result.passed);
  EXPECT_EQ(outs[0].result.failure_class, verify::FailureClass::kCrash);
  EXPECT_EQ(outs[0].worker_deaths, 3u);
  EXPECT_TRUE(pool.is_quarantined("always-crash"));

  const runner::PoolStats& st = pool.stats();
  EXPECT_EQ(st.worker_crashes, 3u);
  EXPECT_EQ(st.quarantined_configs, 1u);
  EXPECT_FALSE(st.crash_storm);
  auto it = st.crashes_by_signal.find("SIGSEGV");
  ASSERT_NE(it, st.crashes_by_signal.end());
  EXPECT_EQ(it->second, 3u);

  // Quarantine is sticky: the config never executes again.
  const std::uint64_t dispatched = st.isolated_trials;
  const std::vector<runner::TrialOutcome> again =
      pool.run_batch({runner::TrialJob{"always-crash", &all_double}});
  ASSERT_EQ(again.size(), 1u);
  EXPECT_TRUE(again[0].quarantined);
  EXPECT_EQ(pool.stats().isolated_trials, dispatched);

  // The pool healed: a clean config still evaluates fine afterwards.
  const std::vector<runner::TrialOutcome> clean =
      pool.run_batch({runner::TrialJob{"clean", &all_double}});
  // "clean" hashes to a different injector stream; it may also draw segv
  // at rate 1.0 -- with segv=1.0 every key crashes, so instead check the
  // pool survived to report *something* rather than wedging.
  ASSERT_EQ(clean.size(), 1u);
  EXPECT_FALSE(clean[0].result.passed);
}

TEST(WorkerPool, TermThenKillEscalationYieldsTimeoutVerdict) {
  SKIP_WITHOUT_FORK();
  IsoWorkload w = make_workload();
  fault::Injector::Rates rates;
  rates.hang_ignore_term = 1.0;  // hang AND ignore SIGTERM: forces SIGKILL
  const fault::Injector injector(0x4A46, rates);
  runner::PoolOptions popts;
  popts.workers = 1;
  popts.trial_timeout_ms = 200;
  popts.term_grace_ms = 100;
  runner::WorkerPool pool(make_ctx(w, &injector), popts);
  ASSERT_TRUE(pool.start());

  config::PrecisionConfig all_double;
  const std::vector<runner::TrialOutcome> outs =
      pool.run_batch({runner::TrialJob{"hung", &all_double}});
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_FALSE(outs[0].quarantined);
  EXPECT_FALSE(outs[0].result.passed);
  EXPECT_EQ(outs[0].result.failure_class, verify::FailureClass::kTimeout);
  EXPECT_EQ(pool.stats().timeouts_killed, 1u);
}

TEST(WorkerPool, OomStormIsAbsorbedAndQuarantined) {
  SKIP_WITHOUT_FORK();
  IsoWorkload w = make_workload();
  fault::Injector::Rates rates;
  rates.oom = 1.0;
  const fault::Injector injector(0x004D, rates);
  runner::PoolOptions popts;
  popts.workers = 1;
  popts.max_crashes_per_config = 2;
  popts.crash_storm_threshold = 100;
  popts.limits.address_space_mb = 384;
  runner::WorkerPool pool(make_ctx(w, &injector), popts);
  ASSERT_TRUE(pool.start());

  config::PrecisionConfig all_double;
  const std::vector<runner::TrialOutcome> outs =
      pool.run_batch({runner::TrialJob{"oom", &all_double}});
  ASSERT_EQ(outs.size(), 1u);
  // Either path -- rlimit-refused storm (kResource result) or
  // OOM-kill-analogue SIGKILL -- is a fault event; at rate 1.0 the breaker
  // must trip.
  EXPECT_TRUE(outs[0].quarantined);
  EXPECT_FALSE(outs[0].result.passed);
  const runner::PoolStats& st = pool.stats();
  EXPECT_GE(st.resource_retries + st.worker_crashes, 2u);
}

TEST(WorkerPool, CorruptResultFramesAreDetectedAndRetried) {
  SKIP_WITHOUT_FORK();
  IsoWorkload w = make_workload();
  for (const bool truncate : {false, true}) {
    fault::Injector::Rates rates;
    if (truncate) {
      rates.trunc_result = 1.0;
    } else {
      rates.corrupt_result = 1.0;
    }
    const fault::Injector injector(0xF4A3, rates);
    runner::PoolOptions popts;
    popts.workers = 1;
    popts.max_crashes_per_config = 2;
    popts.crash_storm_threshold = 100;
    runner::WorkerPool pool(make_ctx(w, &injector), popts);
    ASSERT_TRUE(pool.start());

    config::PrecisionConfig all_double;
    const std::vector<runner::TrialOutcome> outs =
        pool.run_batch({runner::TrialJob{"damaged", &all_double}});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].quarantined) << "truncate=" << truncate;
    // The CRC (or the mid-frame EOF) caught every damaged delivery; none
    // leaked into a verdict.
    EXPECT_GE(pool.stats().protocol_errors, 2u) << "truncate=" << truncate;
  }
}

TEST(WorkerPool, CrashStormAbortsTheBatch) {
  SKIP_WITHOUT_FORK();
  IsoWorkload w = make_workload();
  fault::Injector::Rates rates;
  rates.segv = 1.0;
  const fault::Injector injector(0x5702, rates);
  runner::PoolOptions popts;
  popts.workers = 1;
  popts.max_crashes_per_config = 100;  // breaker out of the way
  popts.crash_storm_threshold = 4;
  runner::WorkerPool pool(make_ctx(w, &injector), popts);
  ASSERT_TRUE(pool.start());

  config::PrecisionConfig all_double;
  const std::vector<runner::TrialOutcome> outs =
      pool.run_batch({runner::TrialJob{"storm-a", &all_double},
                      runner::TrialJob{"storm-b", &all_double}});
  ASSERT_EQ(outs.size(), 2u);
  EXPECT_TRUE(pool.crash_storm());
  bool any_internal = false;
  for (const runner::TrialOutcome& o : outs) {
    EXPECT_FALSE(o.result.passed);
    if (o.result.failure_class == verify::FailureClass::kInternalError) {
      any_internal = true;
    }
  }
  EXPECT_TRUE(any_internal);
}

// ---------------------------------------------------------------------------
// Search equivalence and the acceptance soak.

std::size_t soak_campaigns() {
  if (const char* env = std::getenv("FPMIX_SOAK_CAMPAIGNS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 25;  // local default; CI exports FPMIX_SOAK_CAMPAIGNS=200
}

TEST(IsolatedSearch, CleanRunMatchesInProcessByteForByte) {
  SKIP_WITHOUT_FORK();
  IsoWorkload a = make_workload();
  const search::SearchResult in_process =
      search::run_search(a.image, &a.index, *a.verifier, {});

  search::SearchOptions iso;
  iso.isolate_trials = true;
  iso.num_workers = 3;
  IsoWorkload b = make_workload();
  const search::SearchResult isolated =
      search::run_search(b.image, &b.index, *b.verifier, iso);

  EXPECT_FALSE(isolated.metrics.isolation_degraded);
  EXPECT_GT(isolated.metrics.isolated_trials, 0u);
  EXPECT_EQ(isolated.configs_tested, in_process.configs_tested);
  EXPECT_EQ(isolated.final_passed, in_process.final_passed);
  EXPECT_EQ(config::to_text(b.index, isolated.final_config),
            config::to_text(a.index, in_process.final_config));
  // Trace verdicts agree trial by trial.
  ASSERT_EQ(isolated.trace.size(), in_process.trace.size());
  for (std::size_t i = 0; i < isolated.trace.size(); ++i) {
    EXPECT_EQ(isolated.trace[i].key, in_process.trace[i].key) << i;
    EXPECT_EQ(isolated.trace[i].passed, in_process.trace[i].passed) << i;
  }
}

TEST(IsolatedSearch, HardFaultSoakConvergesToCleanResult) {
  SKIP_WITHOUT_FORK();
  // Fault-free reference.
  IsoWorkload r = make_workload();
  const search::SearchResult ref =
      search::run_search(r.image, &r.index, *r.verifier, {});
  const std::string clean_text = config::to_text(r.index, ref.final_config);

  // Process-destroying faults only: worker deaths are retried, never
  // voted, so every campaign must land on the clean result.
  fault::Injector::Rates rates;
  rates.segv = 0.05;
  rates.kill = 0.03;
  rates.oom = 0.03;
  rates.trunc_result = 0.02;
  rates.corrupt_result = 0.02;

  const std::size_t campaigns = soak_campaigns();
  std::uint64_t total_faults = 0;
  for (std::size_t c = 0; c < campaigns; ++c) {
    SCOPED_TRACE("campaign " + std::to_string(c));
    const fault::Injector injector(0x150C0000 + c, rates);
    search::SearchOptions opts;
    opts.isolate_trials = true;
    opts.num_workers = 3;
    // Generous breaker: at these rates a config re-drawing a hard fault
    // six times in a row has probability < 1e-6; the campaign must absorb
    // faults, not quarantine real configs.
    opts.max_trial_crashes = 6;
    opts.fault_injector = &injector;

    IsoWorkload w = make_workload();
    const search::SearchResult res =
        search::run_search(w.image, &w.index, *w.verifier, opts);

    const search::SearchMetrics& m = res.metrics;
    EXPECT_FALSE(m.crash_storm);
    EXPECT_EQ(m.crash_quarantined, 0u);
    EXPECT_EQ(res.final_passed, ref.final_passed);
    EXPECT_EQ(config::to_text(w.index, res.final_config), clean_text);
    total_faults +=
        m.worker_crashes + m.protocol_errors + m.worker_timeouts;
  }
  // The campaigns actually destroyed workers (otherwise the soak silently
  // stopped injecting).
  EXPECT_GT(total_faults, 0u);
}

}  // namespace
}  // namespace fpmix
