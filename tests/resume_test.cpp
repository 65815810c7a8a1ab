// Crash-safe resumable search: the journal-backed trial cache must make a
// resumed search behave exactly like an uninterrupted one -- byte-identical
// final configuration, identical trial count -- while performing zero live
// verifier evaluations for already-journaled configurations.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "config/textio.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "runner/trial_runner.hpp"
#include "search/search.hpp"
#include "search/trial_cache.hpp"
#include "support/fault.hpp"
#include "support/journal.hpp"
#include "support/strings.hpp"
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

/// A mixed-sensitivity program that forces a deep search: a straight-line
/// run of independently narrowable adds (found via binary splitting) plus a
/// precision-critical tail that must be refused down to the instruction
/// level, so the journal records trials at several descent levels.
lang::ProgramModel deep_search_program() {
  Builder b;
  b.begin_func("main", "m");
  auto good = b.var_f64("good");
  auto bad = b.var_f64("bad");
  b.set(good, b.cf(0.0));
  for (int k = 0; k < 24; ++k) {
    b.set(good, floor_(Expr(good) + b.cf(1.0 + k)));
  }
  b.set(bad, b.cf(1.0) / b.cf(3.0) + b.cf(1.0) / b.cf(7.0));
  b.output(good);
  b.output(bad);
  b.end_func();
  return b.take_model();
}

Prepared prepare(double rel_tol = 1e-12) {
  Prepared p{program::relayout(lang::compile(deep_search_program(),
                                             lang::Mode::kDouble)),
             {}, nullptr};
  p.index = config::StructureIndex::build(program::lift(p.image));
  std::vector<double> ref = verify::reference_outputs(p.image);
  p.verifier =
      std::make_unique<verify::RelativeErrorVerifier>(std::move(ref),
                                                      rel_tol);
  return p;
}

std::string temp_journal(const char* name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(Resume, WarmRunIsAllCacheHitsAndByteIdentical) {
  const std::string journal = temp_journal("resume_warm.jsonl");

  SearchOptions opts;
  opts.journal_path = journal;

  Prepared p1 = prepare();
  const SearchResult cold = run_search(p1.image, &p1.index, *p1.verifier,
                                       opts);
  EXPECT_EQ(cold.metrics.trials_cached, 0u);
  EXPECT_EQ(cold.metrics.trials_live, cold.configs_tested);
  EXPECT_GT(cold.configs_tested, 5u);  // the search actually descended

  Prepared p2 = prepare();
  const SearchResult warm = run_search(p2.image, &p2.index, *p2.verifier,
                                       opts);

  // Zero verifier evaluations: every trial, composition included, is
  // served from the journal.
  EXPECT_EQ(warm.metrics.trials_live, 0u);
  EXPECT_EQ(warm.metrics.trials_cached, warm.configs_tested);
  EXPECT_DOUBLE_EQ(warm.metrics.cache_hit_rate, 100.0);
  for (const TestRecord& rec : warm.trace) {
    EXPECT_TRUE(rec.cached) << rec.unit;
  }

  // Identical outcome, down to the serialized bytes.
  EXPECT_EQ(warm.configs_tested, cold.configs_tested);
  EXPECT_EQ(warm.final_config, cold.final_config);
  EXPECT_EQ(warm.final_passed, cold.final_passed);
  EXPECT_EQ(config::to_text(p2.index, warm.final_config),
            config::to_text(p1.index, cold.final_config));
  std::remove(journal.c_str());
}

TEST(Resume, TruncatedJournalResumesToUninterruptedResult) {
  const std::string journal = temp_journal("resume_trunc.jsonl");

  // Reference: an uninterrupted search with no journal at all.
  Prepared pr = prepare();
  const SearchResult uninterrupted =
      run_search(pr.image, &pr.index, *pr.verifier, {});

  // A full journaled run, then simulate a crash mid-level: keep roughly
  // half the records and cut the next one mid-line (an append that died).
  SearchOptions opts;
  opts.journal_path = journal;
  {
    Prepared p = prepare();
    run_search(p.image, &p.index, *p.verifier, opts);
  }
  const auto lines = Journal::read_lines(journal);
  ASSERT_GT(lines.size(), 6u);
  const std::size_t keep = lines.size() / 2;
  {
    std::ofstream f(journal, std::ios::trunc | std::ios::binary);
    for (std::size_t i = 0; i < keep; ++i) f << lines[i] << '\n';
    f << lines[keep].substr(0, lines[keep].size() / 2);  // torn write
  }

  // Resume. The torn record is dropped, the complete prefix is replayed,
  // and the search finishes the remainder live.
  Prepared p2 = prepare();
  const SearchResult resumed =
      run_search(p2.image, &p2.index, *p2.verifier, opts);
  EXPECT_GT(resumed.metrics.trials_cached, 0u);
  EXPECT_GT(resumed.metrics.trials_live, 0u);

  // Cached + live together must equal the uninterrupted run exactly.
  EXPECT_EQ(resumed.configs_tested, uninterrupted.configs_tested);
  EXPECT_EQ(resumed.final_config, uninterrupted.final_config);
  EXPECT_EQ(resumed.final_passed, uninterrupted.final_passed);
  EXPECT_EQ(config::to_text(p2.index, resumed.final_config),
            config::to_text(pr.index, uninterrupted.final_config));

  // And a third run over the now-complete journal is 100% warm again.
  Prepared p3 = prepare();
  const SearchResult warm = run_search(p3.image, &p3.index, *p3.verifier,
                                       opts);
  EXPECT_EQ(warm.metrics.trials_live, 0u);
  EXPECT_EQ(warm.final_config, uninterrupted.final_config);
  std::remove(journal.c_str());
}

TEST(Resume, InteriorCorruptionIsSkippedAndReEvaluated) {
  const std::string journal = temp_journal("resume_corrupt.jsonl");

  Prepared pr = prepare();
  const SearchResult uninterrupted =
      run_search(pr.image, &pr.index, *pr.verifier, {});

  SearchOptions opts;
  opts.journal_path = journal;
  {
    Prepared p = prepare();
    run_search(p.image, &p.index, *p.verifier, opts);
  }

  // Flip one byte in the middle of an interior *trial* line (the meta
  // record is line 0): its CRC no longer matches, so replay must skip
  // exactly that record and the resumed search re-evaluates it live.
  auto lines = Journal::read_lines(journal);
  ASSERT_GT(lines.size(), 4u);
  std::string& victim = lines[lines.size() / 2];
  victim[victim.size() / 2] ^= 0x1;
  {
    std::ofstream f(journal, std::ios::trunc | std::ios::binary);
    for (const auto& l : lines) f << l << '\n';
  }

  Prepared p2 = prepare();
  const SearchResult resumed =
      run_search(p2.image, &p2.index, *p2.verifier, opts);
  EXPECT_GT(resumed.metrics.trials_cached, 0u);
  EXPECT_EQ(resumed.metrics.trials_live, 1u);  // only the damaged record
  EXPECT_EQ(resumed.configs_tested, uninterrupted.configs_tested);
  EXPECT_EQ(config::to_text(p2.index, resumed.final_config),
            config::to_text(pr.index, uninterrupted.final_config));

  // The re-evaluated trial was re-journaled: a third run is fully warm.
  Prepared p3 = prepare();
  const SearchResult warm = run_search(p3.image, &p3.index, *p3.verifier,
                                       opts);
  EXPECT_EQ(warm.metrics.trials_live, 0u);
  EXPECT_EQ(warm.final_config, uninterrupted.final_config);
  std::remove(journal.c_str());
}

TEST(Resume, DuplicatedLinesAreIgnoredOnReplay) {
  const std::string journal = temp_journal("resume_dup.jsonl");

  SearchOptions opts;
  opts.journal_path = journal;
  config::PrecisionConfig cold_config;
  {
    Prepared p = prepare();
    cold_config = run_search(p.image, &p.index, *p.verifier, opts)
                      .final_config;
  }

  // Replay a run of interior lines (a doubled write / copy-paste merge
  // accident). Sequence numbers expose the duplicates; replay keeps the
  // first copy of each and the warm run stays 100% cached.
  auto lines = Journal::read_lines(journal);
  ASSERT_GT(lines.size(), 3u);
  {
    std::ofstream f(journal, std::ios::trunc | std::ios::binary);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      f << lines[i] << '\n';
      if (i >= 1 && i <= 3) f << lines[i] << '\n';  // duplicate
    }
  }

  Prepared p2 = prepare();
  const SearchResult warm = run_search(p2.image, &p2.index, *p2.verifier,
                                       opts);
  EXPECT_EQ(warm.metrics.trials_live, 0u);
  EXPECT_EQ(warm.final_config, cold_config);
  std::remove(journal.c_str());
}

TEST(Resume, MixedVersionJournalReplaysBothFormats) {
  // A journal whose first session predates sealing (version-1 unsealed
  // lines) continued by a sealed session: both formats replay, and a
  // resumed search over the mixture is fully warm.
  const std::string journal = temp_journal("resume_mixed.jsonl");

  SearchOptions opts;
  opts.journal_path = journal;
  config::PrecisionConfig cold_config;
  {
    Prepared p = prepare();
    cold_config = run_search(p.image, &p.index, *p.verifier, opts)
                      .final_config;
  }

  // Strip the seals from the first half of the records, turning them into
  // version-1 lines (drop the ,"seq":N,"crc":"..." splice).
  auto lines = Journal::read_lines(journal);
  ASSERT_GT(lines.size(), 4u);
  for (std::size_t i = 0; i < lines.size() / 2; ++i) {
    const std::size_t pos = lines[i].rfind(",\"seq\":");
    ASSERT_NE(pos, std::string::npos);
    lines[i] = lines[i].substr(0, pos) + "}";
    ASSERT_EQ(check_seal(lines[i]), SealCheck::kUnsealed);
  }
  {
    std::ofstream f(journal, std::ios::trunc | std::ios::binary);
    for (const auto& l : lines) f << l << '\n';
  }

  Prepared p2 = prepare();
  const SearchResult warm = run_search(p2.image, &p2.index, *p2.verifier,
                                       opts);
  EXPECT_EQ(warm.metrics.trials_live, 0u);
  EXPECT_EQ(warm.final_config, cold_config);
  std::remove(journal.c_str());
}

TEST(Resume, ParentFormatJournalWithSavedNsReplays) {
  // Trial records written before the estimated savings were dropped carry
  // a "saved_ns" key between "eval_ns" and "img_hit". Replay ignores it:
  // every such record yields the verdict, class and failure text of its
  // current-format twin, and a resumed search is fully warm.
  const std::string journal = temp_journal("resume_parent_format.jsonl");

  SearchOptions opts;
  opts.journal_path = journal;
  config::PrecisionConfig cold_config;
  {
    Prepared p = prepare();
    cold_config = run_search(p.image, &p.index, *p.verifier, opts)
                      .final_config;
  }

  // Rewrite every sealed trial record into the parent format and reseal it
  // under its own sequence number.
  const auto lines = Journal::read_lines(journal);
  std::string search_fp;
  std::vector<std::string> parent_lines;
  std::size_t rewritten = 0;
  for (const std::string& line : lines) {
    JsonRecord rec;
    ASSERT_TRUE(parse_flat_json(line, &rec)) << line;
    if (rec["type"] == "meta") search_fp = rec["search_fp"];
    const std::size_t img = line.find(",\"img_hit\":");
    if (rec["type"] != "trial" || img == std::string::npos) {
      parent_lines.push_back(line);
      continue;
    }
    std::uint64_t seq = 0;
    ASSERT_TRUE(sealed_seq(line, &seq)) << line;
    const std::string body = line.substr(0, line.rfind(",\"seq\":")) + "}";
    parent_lines.push_back(seal_record(
        body.substr(0, img) + ",\"saved_ns\":" + std::to_string(1000 + seq) +
            body.substr(img),
        seq));
    ASSERT_EQ(check_seal(parent_lines.back()), SealCheck::kOk);
    ++rewritten;
  }
  ASSERT_FALSE(search_fp.empty());
  ASSERT_GT(rewritten, 5u);

  TrialCache current;
  ASSERT_EQ(load_journal(journal, search_fp, &current), rewritten);
  {
    std::ofstream f(journal, std::ios::trunc | std::ios::binary);
    for (const auto& l : parent_lines) f << l << '\n';
  }
  TrialCache parent;
  JournalReplayStats stats;
  ASSERT_EQ(load_journal(journal, search_fp, &parent, &stats), rewritten);
  EXPECT_EQ(stats.malformed + stats.crc_mismatch + stats.duplicate_seq, 0u);

  std::size_t failures = 0;
  for (const std::string& line : lines) {
    JsonRecord rec;
    ASSERT_TRUE(parse_flat_json(line, &rec));
    if (rec["type"] != "trial") continue;
    const CachedTrial* want = current.lookup(rec["key"]);
    const CachedTrial* got = parent.lookup(rec["key"]);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->passed, want->passed) << rec["key"];
    EXPECT_EQ(got->failure_class, want->failure_class) << rec["key"];
    EXPECT_EQ(got->failure, want->failure) << rec["key"];
    if (!want->passed && !want->failure.empty()) ++failures;
  }
  EXPECT_GT(failures, 0u);  // the failure text was actually compared

  Prepared p2 = prepare();
  const SearchResult warm = run_search(p2.image, &p2.index, *p2.verifier,
                                       opts);
  EXPECT_EQ(warm.metrics.trials_live, 0u);
  EXPECT_EQ(warm.metrics.trials_cached, warm.configs_tested);
  EXPECT_EQ(warm.final_config, cold_config);
  std::remove(journal.c_str());
}

TEST(Resume, JournalFromDifferentVerifierIsIgnored) {
  const std::string journal = temp_journal("resume_foreign.jsonl");

  SearchOptions opts;
  opts.journal_path = journal;
  {
    Prepared p = prepare(1e-12);
    run_search(p.image, &p.index, *p.verifier, opts);
  }

  // A looser tolerance is a different search identity: journaled verdicts
  // must not transfer. The run must look exactly like the same search with
  // no journal at all (intra-run dedup hits -- here the final composition
  // equalling the already-passed module config -- are still allowed).
  Prepared pb = prepare(1e-2);
  const SearchResult base = run_search(pb.image, &pb.index, *pb.verifier,
                                       {});
  Prepared p2 = prepare(1e-2);
  const SearchResult res = run_search(p2.image, &p2.index, *p2.verifier,
                                      opts);
  EXPECT_EQ(res.metrics.trials_cached, base.metrics.trials_cached);
  EXPECT_EQ(res.metrics.trials_live, base.metrics.trials_live);
  EXPECT_EQ(res.configs_tested, base.configs_tested);
  EXPECT_EQ(res.final_config, base.final_config);
  std::remove(journal.c_str());
}

TEST(Resume, ResumeOffAppendsButNeverConsults) {
  const std::string journal = temp_journal("resume_off.jsonl");

  SearchOptions opts;
  opts.journal_path = journal;
  {
    Prepared p = prepare();
    run_search(p.image, &p.index, *p.verifier, opts);
  }
  const std::size_t lines_after_first = Journal::read_lines(journal).size();

  opts.resume = false;
  Prepared p2 = prepare();
  const SearchResult res = run_search(p2.image, &p2.index, *p2.verifier,
                                      opts);
  EXPECT_EQ(res.metrics.trials_cached, 0u);
  EXPECT_GT(Journal::read_lines(journal).size(), lines_after_first);
  std::remove(journal.c_str());
}

TEST(Resume, ParallelWarmRunMatchesSerial) {
  // Thread count must not perturb journal identity or replay: a warm
  // 4-thread run over a serial run's journal is still 100% cached.
  const std::string journal = temp_journal("resume_parallel.jsonl");

  SearchOptions serial;
  serial.journal_path = journal;
  Prepared p1 = prepare();
  const SearchResult cold = run_search(p1.image, &p1.index, *p1.verifier,
                                       serial);

  SearchOptions parallel = serial;
  parallel.num_threads = 4;
  Prepared p2 = prepare();
  const SearchResult warm = run_search(p2.image, &p2.index, *p2.verifier,
                                       parallel);
  EXPECT_EQ(warm.metrics.trials_live, 0u);
  EXPECT_EQ(warm.configs_tested, cold.configs_tested);
  EXPECT_EQ(warm.final_config, cold.final_config);
  std::remove(journal.c_str());
}

TEST(Resume, IsolatedWorkerDeathsLeaveJournalWholeAndReplayable) {
  // Sandboxed trial workers are killed mid-trial by an injected hard-fault
  // campaign (SIGKILL/SIGSEGV between accepting a request and delivering
  // its result, plus truncated result frames). The journal must still hold
  // only whole, CRC-sealed, uniquely-sequenced records, and a resume over
  // it must replay byte-identically with zero live evaluations.
  if (!runner::isolation_supported()) {
    GTEST_SKIP() << "no fork on this platform";
  }
  const std::string journal = temp_journal("resume_isolated.jsonl");

  // Clean in-process reference: hard faults are retried, never voted, so
  // even the faulted run must land exactly here.
  Prepared pr = prepare();
  const SearchResult clean = run_search(pr.image, &pr.index, *pr.verifier,
                                        {});
  const std::string clean_text = config::to_text(pr.index,
                                                 clean.final_config);

  fault::Injector::Rates rates;
  rates.kill = 0.08;
  rates.segv = 0.05;
  rates.trunc_result = 0.03;
  const fault::Injector injector(0xD1ED, rates);

  SearchOptions opts;
  opts.journal_path = journal;
  opts.isolate_trials = true;
  opts.num_workers = 2;
  opts.max_trial_crashes = 6;
  opts.fault_injector = &injector;

  Prepared p1 = prepare();
  const SearchResult cold = run_search(p1.image, &p1.index, *p1.verifier,
                                       opts);
  // The campaign actually killed workers, and the search still converged
  // to the clean result.
  EXPECT_GT(cold.metrics.worker_crashes + cold.metrics.protocol_errors, 0u);
  EXPECT_EQ(cold.metrics.crash_quarantined, 0u);
  EXPECT_EQ(config::to_text(p1.index, cold.final_config), clean_text);

  // No torn or duplicate records despite the carnage.
  const auto lines = Journal::read_lines(journal);
  ASSERT_FALSE(lines.empty());
  std::set<std::uint64_t> seqs;
  for (const std::string& line : lines) {
    ASSERT_EQ(check_seal(line), SealCheck::kOk) << line;
    const std::size_t at = line.find("\"seq\":");
    ASSERT_NE(at, std::string::npos) << line;
    std::uint64_t seq = 0;
    ASSERT_TRUE(parse_u64(line.substr(at + 6,
                                      line.find_first_of(",}", at + 6) -
                                          (at + 6)),
                          &seq))
        << line;
    EXPECT_TRUE(seqs.insert(seq).second) << "duplicate seq in " << line;
  }

  // Resume: byte-identical replay, zero live evaluations, zero worker
  // executions, and only the new meta line appended to the journal.
  Prepared p2 = prepare();
  const SearchResult warm = run_search(p2.image, &p2.index, *p2.verifier,
                                       opts);
  EXPECT_EQ(warm.metrics.trials_live, 0u);
  EXPECT_EQ(warm.metrics.isolated_trials, 0u);
  EXPECT_EQ(warm.configs_tested, cold.configs_tested);
  EXPECT_EQ(config::to_text(p2.index, warm.final_config), clean_text);
  EXPECT_EQ(Journal::read_lines(journal).size(), lines.size() + 1);
  std::remove(journal.c_str());
}

TEST(Resume, MetricsAccounting) {
  Prepared p = prepare();
  const SearchResult res = run_search(p.image, &p.index, *p.verifier, {});
  const SearchMetrics& m = res.metrics;
  EXPECT_EQ(m.trials_total, res.configs_tested);
  EXPECT_EQ(m.trials_live + m.trials_cached, m.trials_total);
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_GT(m.trials_per_sec, 0.0);
  EXPECT_GT(m.eval_seconds, 0.0);
  // Every live trial constructs a Machine, and the stage ledger never
  // claims more time than the evaluations took.
  EXPECT_GT(m.setup_seconds, 0.0);
  EXPECT_LE(m.patch_seconds + m.predecode_seconds + m.setup_seconds +
                m.jit_seconds + m.run_seconds + m.verify_seconds,
            m.eval_seconds);
  // Per-level attribution sums to the live total and includes the final
  // composition level.
  double sum = 0.0;
  for (const auto& [level, secs] : m.eval_seconds_per_level) sum += secs;
  EXPECT_NEAR(sum, m.eval_seconds, 1e-9);
  EXPECT_TRUE(m.eval_seconds_per_level.contains("composition"));
  // Trace carries per-trial identity and timing.
  for (const TestRecord& rec : res.trace) {
    EXPECT_EQ(rec.key.size(), 16u) << rec.unit;
    EXPECT_FALSE(rec.cached);
    EXPECT_GT(rec.eval_ns, 0u) << rec.unit;
  }
}

TEST(TrialCacheUnit, FirstInsertWinsAndFingerprintSeparates) {
  TrialCache cache;
  cache.insert("k1", CachedTrial{true, verify::FailureClass::kNone, "", 5});
  cache.insert("k1", CachedTrial{false, verify::FailureClass::kTrap,
                                 "later", 9});
  ASSERT_NE(cache.lookup("k1"), nullptr);
  EXPECT_TRUE(cache.lookup("k1")->passed);
  EXPECT_EQ(cache.lookup("missing"), nullptr);

  EXPECT_NE(search_fingerprint("verifier-a", 100),
            search_fingerprint("verifier-b", 100));
  EXPECT_NE(search_fingerprint("verifier-a", 100),
            search_fingerprint("verifier-a", 200));
  EXPECT_EQ(search_fingerprint("verifier-a", 100),
            search_fingerprint("verifier-a", 100));
}

TEST(TrialCacheUnit, LoadJournalHonoursMetaFingerprint) {
  const std::string path = temp_journal("trial_cache_load.jsonl");
  {
    Journal j;
    ASSERT_TRUE(j.open(path));
    j.append(encode_meta_line("fp-one"));
    j.append(encode_trial_line(
        "aaaa", "module m", 3,
        CachedTrial{true, verify::FailureClass::kNone, "", 11}));
    j.append(encode_meta_line("fp-two"));
    j.append(encode_trial_line(
        "bbbb", "func f", 2,
        CachedTrial{false, verify::FailureClass::kTrap,
                    "trap: tag escape", 7}));
    j.append("this is not json");
    j.append("{\"type\":\"trial\",\"passed\":true}");  // missing key
  }
  TrialCache cache;
  EXPECT_EQ(load_journal(path, "fp-two", &cache), 1u);
  EXPECT_EQ(cache.lookup("aaaa"), nullptr);  // other fingerprint
  const CachedTrial* t = cache.lookup("bbbb");
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->passed);
  EXPECT_EQ(t->failure, "trap: tag escape");
  EXPECT_EQ(t->eval_ns, 7u);
  std::remove(path.c_str());
}

TEST(TrialCacheUnit, ReplayStatsBreakdown) {
  const std::string path = temp_journal("trial_cache_stats.jsonl");
  const CachedTrial ok{true, verify::FailureClass::kNone, "", 5};
  const CachedTrial bad{false, verify::FailureClass::kTrap, "trap: x", 6};
  {
    Journal j;
    ASSERT_TRUE(j.open(path));
    j.append_sealed(encode_meta_line("fp"));                    // seq 1
    j.append_sealed(encode_trial_line("k1", "u1", 1, ok));      // seq 2
    j.append_sealed(encode_trial_line("k2", "u2", 1, bad));     // seq 3
    j.set_next_seq(6);
    j.append_sealed(encode_trial_line("k3", "u3", 1, ok));      // seq 6: gap
    j.append(encode_trial_line("k4", "u4", 1, ok));             // legacy
  }
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    // Replayed line (seq 2 again), a corrupted seal, and plain garbage.
    f << seal_record(encode_trial_line("k1", "u1", 1, ok), 2) << '\n';
    std::string corrupt = seal_record(encode_trial_line("k5", "u5", 1, ok), 7);
    corrupt[corrupt.size() / 2] ^= 0x1;
    f << corrupt << '\n';
    f << "@@noise, not json\n";
  }

  TrialCache cache;
  JournalReplayStats stats;
  EXPECT_EQ(load_journal(path, "fp", &cache, &stats), 4u);
  EXPECT_EQ(stats.loaded, 4u);  // k1..k3 sealed + k4 legacy
  EXPECT_EQ(stats.legacy, 1u);
  EXPECT_EQ(stats.seq_gaps, 1u);
  EXPECT_EQ(stats.duplicate_seq, 1u);
  EXPECT_EQ(stats.crc_mismatch, 1u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(stats.foreign, 0u);
  EXPECT_NE(cache.lookup("k1"), nullptr);
  EXPECT_NE(cache.lookup("k3"), nullptr);
  EXPECT_NE(cache.lookup("k4"), nullptr);
  EXPECT_EQ(cache.lookup("k5"), nullptr);  // its record failed the seal
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fpmix::search
