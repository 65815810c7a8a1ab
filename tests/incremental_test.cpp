// Differential tests for the incremental trial pipeline: per-function
// variant caching (instrument::IncrementalPatcher), segment-spliced
// predecode, the whole-image LRU
// (verify::ImageCache), the shared TrialBuilder front end, and
// cache-on/cache-off search equivalence on both execution engines and under
// process isolation with an active hard-fault campaign.
//
// The non-negotiable property throughout: an incrementally built trial is
// BIT-identical to the from-scratch instrument_image + ExecutableImage::build
// pipeline -- same image bytes, same outputs on both VM engines -- and a
// cached search converges to the byte-identical final configuration of an
// uncached one.
#include <gtest/gtest.h>

#include <bit>
#include <optional>

#include "config/config.hpp"
#include "instrument/incremental.hpp"
#include "instrument/patch.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "runner/trial_runner.hpp"
#include "search/search.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "verify/evaluate.hpp"
#include "verify/image_cache.hpp"
#include "verify/trial_builder.hpp"
#include "verify/verifier.hpp"
#include "vm/machine.hpp"

namespace fpmix {
namespace {

using config::Precision;
using config::PrecisionConfig;
using config::StructureIndex;

/// Random configuration over the real structure ids of `ix`, flags at every
/// level.
PrecisionConfig random_config(const StructureIndex& ix, SplitMix64* rng,
                              std::size_t max_flags) {
  PrecisionConfig cfg;
  const std::size_t n = rng->next_below(max_flags + 1);
  for (std::size_t k = 0; k < n; ++k) {
    const Precision p = rng->next_below(2) == 0 ? Precision::kDouble
                                                : Precision::kSingle;
    switch (rng->next_below(4)) {
      case 0:
        cfg.set_module(rng->next_below(ix.modules().size()), p);
        break;
      case 1:
        cfg.set_func(rng->next_below(ix.funcs().size()), p);
        break;
      case 2:
        cfg.set_block(rng->next_below(ix.blocks().size()), p);
        break;
      default:
        cfg.set_instr(rng->next_below(ix.instrs().size()), p);
        break;
    }
  }
  return cfg;
}

/// A search-step neighbour: a few flags added, flipped or erased.
PrecisionConfig mutate_config(const StructureIndex& ix, PrecisionConfig cfg,
                              SplitMix64* rng) {
  const std::size_t edits = 1 + rng->next_below(3);
  for (std::size_t k = 0; k < edits; ++k) {
    std::optional<Precision> p;
    if (rng->next_below(4) != 0) {
      p = rng->next_below(2) == 0 ? Precision::kDouble : Precision::kSingle;
    }
    switch (rng->next_below(4)) {
      case 0:
        cfg.set_module(rng->next_below(ix.modules().size()), p);
        break;
      case 1:
        cfg.set_func(rng->next_below(ix.funcs().size()), p);
        break;
      case 2:
        cfg.set_block(rng->next_below(ix.blocks().size()), p);
        break;
      default:
        cfg.set_instr(rng->next_below(ix.instrs().size()), p);
        break;
    }
  }
  return cfg;
}

void expect_images_identical(const program::Image& a, const program::Image& b,
                             const std::string& what) {
  ASSERT_EQ(a.code_base, b.code_base) << what;
  ASSERT_EQ(a.data_base, b.data_base) << what;
  ASSERT_EQ(a.bss_base, b.bss_base) << what;
  ASSERT_EQ(a.bss_size, b.bss_size) << what;
  ASSERT_EQ(a.entry, b.entry) << what;
  ASSERT_EQ(a.code, b.code) << what;
  ASSERT_EQ(a.data, b.data) << what;
  ASSERT_EQ(a.symbols.size(), b.symbols.size()) << what;
  for (std::size_t i = 0; i < a.symbols.size(); ++i) {
    ASSERT_EQ(a.symbols[i].addr, b.symbols[i].addr) << what << " sym " << i;
    ASSERT_EQ(a.symbols[i].size, b.symbols[i].size) << what << " sym " << i;
    ASSERT_EQ(a.symbols[i].name, b.symbols[i].name) << what << " sym " << i;
  }
}

std::vector<double> run_engine(std::shared_ptr<const vm::ExecutableImage> exec,
                               vm::Engine engine) {
  vm::Machine::Options mopts;
  mopts.engine = engine;
  vm::Machine m(std::move(exec), mopts);
  const vm::RunResult r = m.run();
  EXPECT_TRUE(r.ok()) << r.trap_message;
  return m.output_f64();
}

void expect_outputs_bit_identical(const std::vector<double>& a,
                                  const std::vector<double>& b,
                                  const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << " output " << i;
  }
}

/// A small multi-module program with enough structure (three modules, four
/// functions, loops, calls) that random configs exercise every dirtiness
/// path, while staying cheap enough to execute hundreds of times on both
/// engines.
lang::ProgramModel structured_program() {
  lang::Builder b;
  auto acc_a = b.var_f64("acc_a");
  auto acc_b = b.var_f64("acc_b");
  auto acc_c = b.var_f64("acc_c");
  auto arr = b.array_f64("arr", 12);

  b.begin_func("fill", "mod_a");
  {
    auto i = b.var_i64("f_i");
    b.for_(i, b.ci(0), b.ci(12), [&] {
      b.store(arr, lang::Expr(i), to_f64(i) * b.cf(0.37) + b.cf(0.25));
    });
  }
  b.end_func();

  b.begin_func("sum_sqrt", "mod_a");
  {
    auto i = b.var_i64("s_i");
    b.set(acc_a, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(12), [&] {
      b.set(acc_a, lang::Expr(acc_a) + sqrt_(arr[lang::Expr(i)]));
    });
  }
  b.end_func();

  b.begin_func("harmonic", "mod_b");
  {
    auto i = b.var_i64("h_i");
    b.set(acc_b, b.cf(0.0));
    b.for_(i, b.ci(0), b.ci(40), [&] {
      b.set(acc_b,
            lang::Expr(acc_b) + b.cf(1.0) / to_f64(lang::Expr(i) + b.ci(2)));
    });
  }
  b.end_func();

  b.begin_func("main", "mod_main");
  b.call("fill");
  b.call("sum_sqrt");
  b.call("harmonic");
  b.set(acc_c, lang::Expr(acc_a) * b.cf(0.5) + sin_(lang::Expr(acc_b)));
  b.output(lang::Expr(acc_a) * b.cf(1.0));
  b.output(lang::Expr(acc_b) * b.cf(1.0));
  b.output(lang::Expr(acc_c) * b.cf(1.0));
  b.end_func();
  return b.take_model();
}

struct Prepared {
  program::Image image;
  StructureIndex index;
};

Prepared prepare_structured() {
  Prepared p{program::relayout(
                 lang::compile(structured_program(), lang::Mode::kDouble)),
             {}};
  p.index = StructureIndex::build(program::lift(p.image));
  return p;
}

// ---------------------------------------------------------------------------
// IncrementalPatcher: delta-built images are bit-identical to from-scratch
// builds, and both engines agree, over a long random parent/child chain.

TEST(IncrementalPatcher, BitIdenticalToScratchOverRandomChain) {
  const Prepared p = prepare_structured();
  instrument::IncrementalPatcher patcher(p.image, p.index);

  SplitMix64 rng(0x1CC0FFEE);
  PrecisionConfig cfg;  // chain starts at all-double
  for (int pair = 0; pair < 120; ++pair) {
    // Mostly neighbours (the search's access pattern), occasionally a jump
    // to an unrelated config (worst case for the variant cache).
    cfg = pair % 10 == 9 ? random_config(p.index, &rng, 12)
                         : mutate_config(p.index, cfg, &rng);
    const std::string what = "pair " + std::to_string(pair) + " key " +
                             cfg.canonical_key();

    instrument::InstrumentStats scratch_stats;
    const program::Image scratch =
        instrument::instrument_image(p.image, p.index, cfg, &scratch_stats);
    instrument::IncrementalPatcher::Build b = patcher.patch(cfg);
    expect_images_identical(b.image, scratch, what);
    ASSERT_EQ(b.stats.wrapped, scratch_stats.wrapped) << what;
    ASSERT_EQ(b.stats.replaced_single, scratch_stats.replaced_single) << what;
    ASSERT_EQ(b.stats.snippet_instrs, scratch_stats.snippet_instrs) << what;

    const auto inc_exec = patcher.predecode(std::move(b));
    const auto scratch_exec = vm::ExecutableImage::build(scratch);
    expect_outputs_bit_identical(run_engine(inc_exec, vm::Engine::kMicroOp),
                                 run_engine(scratch_exec,
                                            vm::Engine::kMicroOp),
                                 what + " micro-op");
    expect_outputs_bit_identical(run_engine(inc_exec, vm::Engine::kSwitch),
                                 run_engine(scratch_exec, vm::Engine::kSwitch),
                                 what + " switch");
  }
  // The chain's locality must actually exercise the cache, or this test
  // proves nothing about incremental builds.
  EXPECT_GT(patcher.variant_hits(), 100u);
}

TEST(IncrementalPatcher, BitIdenticalOnKernelImage) {
  const kernels::Workload w = kernels::make_cg('S');
  const program::Image img = kernels::build_image(w);
  const auto ix = StructureIndex::build(program::lift(img));
  instrument::IncrementalPatcher patcher(img, ix);

  SplitMix64 rng(0xCC5);
  PrecisionConfig cfg;
  for (int pair = 0; pair < 24; ++pair) {
    cfg = mutate_config(ix, cfg, &rng);
    const program::Image scratch = instrument::instrument_image(img, ix, cfg);
    instrument::IncrementalPatcher::Build b = patcher.patch(cfg);
    expect_images_identical(b.image, scratch,
                            "cg pair " + std::to_string(pair));
  }
}

// ---------------------------------------------------------------------------
// ImageCache: LRU behaviour and the hash-collision guard.

TEST(ImageCache, LruEvictionAndCollisionGuard) {
  const Prepared p = prepare_structured();
  const auto exec = vm::ExecutableImage::build(p.image);
  const std::uint64_t fp = verify::image_fingerprint(p.image);

  verify::ImageCache cache(2);
  cache.insert(fp, 1, "k1", verify::ImageCache::Entry{exec, {}});
  cache.insert(fp, 2, "k2", verify::ImageCache::Entry{exec, {}});
  ASSERT_NE(cache.find(fp, 1, "k1"), nullptr);  // refreshes k1's recency
  cache.insert(fp, 3, "k3", verify::ImageCache::Entry{exec, {}});
  EXPECT_EQ(cache.find(fp, 2, "k2"), nullptr);  // k2 was the LRU entry
  EXPECT_NE(cache.find(fp, 1, "k1"), nullptr);
  EXPECT_NE(cache.find(fp, 3, "k3"), nullptr);
  // Same (fingerprint, hash) but a different canonical key is a 64-bit
  // collision: must degrade to a miss, never serve the wrong image.
  EXPECT_EQ(cache.find(fp, 1, "other-config"), nullptr);
  // A different image fingerprint never hits either.
  EXPECT_EQ(cache.find(fp + 1, 1, "k1"), nullptr);
}

// ---------------------------------------------------------------------------
// TrialBuilder: reuse accounting and bit-identity of the served images.

TEST(TrialBuilder, ReusesImagesAndAccountsSavings) {
  const Prepared p = prepare_structured();
  verify::TrialBuilder builder(p.image, p.index);

  SplitMix64 rng(0x7B);
  const PrecisionConfig a = random_config(p.index, &rng, 6);
  const verify::TrialBuilder::Built b1 = builder.build(a);
  EXPECT_FALSE(b1.cost.image_cache_hit);
  ASSERT_NE(b1.exec, nullptr);
  EXPECT_EQ(b1.cost.funcs_total, b1.exec->segments().size());

  // Bit-identical to the from-scratch pipeline.
  const auto scratch =
      vm::ExecutableImage::build(instrument::instrument_image(p.image,
                                                              p.index, a));
  expect_outputs_bit_identical(run_engine(b1.exec, vm::Engine::kMicroOp),
                               run_engine(scratch, vm::Engine::kMicroOp),
                               "builder vs scratch");

  // Same config again: whole-image hit serving the same executable.
  const verify::TrialBuilder::Built b2 = builder.build(a);
  EXPECT_TRUE(b2.cost.image_cache_hit);
  EXPECT_EQ(b2.exec.get(), b1.exec.get());
  EXPECT_EQ(b2.cost.funcs_reused, b2.cost.funcs_total);

  // A neighbour misses the image cache but reuses most function variants.
  const verify::TrialBuilder::Built b3 =
      builder.build(mutate_config(p.index, a, &rng));
  EXPECT_FALSE(b3.cost.image_cache_hit);
  EXPECT_GT(b3.cost.funcs_reused, 0u);

  const verify::TrialBuilder::Stats s = builder.stats();
  EXPECT_EQ(s.image_cache_hits, 1u);
  EXPECT_EQ(s.image_cache_misses, 2u);
  EXPECT_GT(s.funcs_reused, 0u);
}

// ---------------------------------------------------------------------------
// Search equivalence: caching on vs off converges to the byte-identical
// final configuration (in-process, isolated, and isolated under faults).

struct SearchSetup {
  program::Image image;
  StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

SearchSetup search_setup() {
  SearchSetup s{program::relayout(
                    lang::compile(structured_program(), lang::Mode::kDouble)),
                {}, nullptr};
  s.index = StructureIndex::build(program::lift(s.image));
  std::vector<double> ref = verify::reference_outputs(s.image);
  s.verifier = std::make_unique<verify::RelativeErrorVerifier>(std::move(ref),
                                                               1e-6);
  return s;
}

search::SearchResult run_once(const SearchSetup& s,
                              search::SearchOptions opts) {
  StructureIndex ix = s.index;  // run_search updates profile weights in place
  return search::run_search(s.image, &ix, *s.verifier, opts);
}

TEST(SearchEquivalence, CacheOnOffIdenticalInProcess) {
  const SearchSetup s = search_setup();
  search::SearchOptions opts;
  opts.keep_log = false;
  opts.max_retries = 1;  // retries make the image cache actually hit

  search::SearchOptions cold = opts;
  cold.image_cache = false;
  const search::SearchResult with_cache = run_once(s, opts);
  const search::SearchResult without_cache = run_once(s, cold);

  EXPECT_EQ(with_cache.final_config.canonical_key(),
            without_cache.final_config.canonical_key());
  EXPECT_EQ(with_cache.final_passed, without_cache.final_passed);
  EXPECT_EQ(with_cache.configs_tested, without_cache.configs_tested);
  EXPECT_GT(with_cache.metrics.image_cache_hits, 0u);
  EXPECT_GT(with_cache.metrics.funcs_reused, 0u);
  EXPECT_EQ(without_cache.metrics.image_cache_hits, 0u);
  EXPECT_EQ(without_cache.metrics.funcs_reused, 0u);
}

TEST(SearchEquivalence, CacheOnOffIdenticalIsolated) {
  if (!runner::isolation_supported()) GTEST_SKIP();
  const SearchSetup s = search_setup();
  search::SearchOptions opts;
  opts.keep_log = false;
  opts.isolate_trials = true;
  opts.num_workers = 2;
  opts.max_retries = 1;

  search::SearchOptions cold = opts;
  cold.image_cache = false;
  const search::SearchResult with_cache = run_once(s, opts);
  const search::SearchResult without_cache = run_once(s, cold);

  EXPECT_EQ(with_cache.final_config.canonical_key(),
            without_cache.final_config.canonical_key());
  EXPECT_EQ(with_cache.final_passed, without_cache.final_passed);
  // The per-slot census saw the traffic.
  ASSERT_EQ(with_cache.metrics.worker_slots.size(), 2u);
  std::size_t slot_requests = 0;
  for (const auto& slot : with_cache.metrics.worker_slots) {
    slot_requests += slot.requests;
  }
  EXPECT_EQ(slot_requests, with_cache.metrics.isolated_trials);
  EXPECT_EQ(slot_requests, with_cache.metrics.full_requests);
}

TEST(SearchEquivalence, CacheOnOffIdenticalUnderFaultCampaign) {
  if (!runner::isolation_supported()) GTEST_SKIP();
  const SearchSetup s = search_setup();
  // Process-destroying faults only: every crash is absorbed as a retried
  // fault event, so verdicts (and the final config) must stay identical to
  // a clean run -- with or without warm caches.
  fault::Injector::Rates rates;
  rates.segv = 0.05;
  rates.kill = 0.03;
  rates.corrupt_result = 0.02;
  const fault::Injector injector(0xFA117, rates);

  search::SearchOptions opts;
  opts.keep_log = false;
  opts.isolate_trials = true;
  opts.num_workers = 2;
  opts.max_retries = 1;
  opts.fault_injector = &injector;

  search::SearchOptions cold = opts;
  cold.image_cache = false;
  const search::SearchResult with_cache = run_once(s, opts);
  const search::SearchResult without_cache = run_once(s, cold);

  EXPECT_EQ(with_cache.final_config.canonical_key(),
            without_cache.final_config.canonical_key());
  EXPECT_EQ(with_cache.final_passed, without_cache.final_passed);
  // The campaign actually fired, and respawns were attributed to slots.
  EXPECT_GT(with_cache.metrics.worker_crashes +
                with_cache.metrics.protocol_errors,
            0u);
  std::size_t slot_respawns = 0;
  for (const auto& slot : with_cache.metrics.worker_slots) {
    slot_respawns += slot.respawns;
  }
  EXPECT_EQ(slot_respawns, with_cache.metrics.worker_respawns);
}

}  // namespace
}  // namespace fpmix
