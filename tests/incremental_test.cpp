// Differential tests for the incremental trial pipeline: per-function
// variant caching and segment-spliced predecode in verify::TrialBuilder,
// its whole-image LRU, evaluate_config with a shared and a one-shot
// builder, and cache-on/cache-off search equivalence on both execution
// engines and under process isolation with an active hard-fault campaign.
//
// The non-negotiable property throughout: an incrementally built trial is
// BIT-identical to the from-scratch instrument_image + ExecutableImage::build
// pipeline -- same image bytes, same outputs on both VM engines -- and a
// cached search converges to the byte-identical final configuration of an
// uncached one.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "config/config.hpp"
#include "config/textio.hpp"
#include "instrument/patch.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "runner/trial_runner.hpp"
#include "search/search.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "verify/evaluate.hpp"
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

void expect_stats_identical(const instrument::InstrumentStats& a,
                            const instrument::InstrumentStats& b,
                            const std::string& what) {
  EXPECT_EQ(a.wrapped, b.wrapped) << what;
  EXPECT_EQ(a.replaced_single, b.replaced_single) << what;
  EXPECT_EQ(a.ignored, b.ignored) << what;
  EXPECT_EQ(a.snippet_instrs, b.snippet_instrs) << what;
  EXPECT_EQ(a.checks_elided, b.checks_elided) << what;
}

/// A spliced image against ExecutableImage::build of the same bytes: the
/// lazily built flat arrays (instructions, micro-ops, entry) and the
/// per-pc / per-address lookups that never build them.
void expect_exec_identical(const vm::ExecutableImage& spliced,
                           const vm::ExecutableImage& scratch,
                           const std::string& what) {
  ASSERT_EQ(spliced.instruction_count(), scratch.instruction_count()) << what;
  EXPECT_EQ(spliced.entry_index(), scratch.entry_index()) << what;
  for (std::size_t pc = 0; pc < scratch.instruction_count(); ++pc) {
    const arch::Instr& want = scratch.code()[pc];
    const arch::Instr got = spliced.instr_at(pc);
    ASSERT_TRUE(got == want && got.addr == want.addr) << what << " pc " << pc;
    ASSERT_EQ(std::memcmp(&scratch.uops()[pc], &spliced.uops()[pc],
                          sizeof(vm::MicroOp)),
              0)
        << what << " uop " << pc;
    const vm::MicroOp u = spliced.uop_at(pc);
    ASSERT_EQ(std::memcmp(&scratch.uops()[pc], &u, sizeof u), 0)
        << what << " uop_at " << pc;
    ASSERT_EQ(spliced.index_of(want.addr), pc) << what;
  }
  EXPECT_TRUE(spliced.code() == scratch.code()) << what;
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
// TrialBuilder: delta-built images are bit-identical to from-scratch
// builds, and both engines agree, over a long random parent/child chain.

TEST(TrialBuilder, BitIdenticalToScratchOverRandomChain) {
  const Prepared p = prepare_structured();
  verify::TrialBuilder builder(p.image, p.index);

  SplitMix64 rng(0x1CC0FFEE);
  PrecisionConfig cfg;  // chain starts at all-double
  std::size_t funcs_reused = 0;
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
    const verify::TrialBuilder::Built b = builder.build(cfg);
    // Whole-image hits reuse everything; count only the variant cache.
    if (!b.cost.image_cache_hit) funcs_reused += b.cost.funcs_reused;
    expect_images_identical(b.exec->image(), scratch, what);
    expect_stats_identical(b.stats, scratch_stats, what);

    const auto scratch_exec = vm::ExecutableImage::build(scratch);
    expect_exec_identical(*b.exec, *scratch_exec, what);
    expect_outputs_bit_identical(run_engine(b.exec, vm::Engine::kMicroOp),
                                 run_engine(scratch_exec,
                                            vm::Engine::kMicroOp),
                                 what + " micro-op");
    expect_outputs_bit_identical(run_engine(b.exec, vm::Engine::kSwitch),
                                 run_engine(scratch_exec, vm::Engine::kSwitch),
                                 what + " switch");
  }
  // The chain's locality must actually exercise the cache, or this test
  // proves nothing about incremental builds.
  EXPECT_GT(funcs_reused, 100u);
}

TEST(TrialBuilder, ConcurrentLanesBuildImagesIdenticalToScratch) {
  const Prepared p = prepare_structured();
  constexpr std::size_t kLanes = 4;
  constexpr int kSteps = 60;
  verify::TrialBuilder builder(p.image, p.index, kLanes);
  // One random walk, which every lane follows or steps off by one
  // mutation: lanes race on the same variants and the same images.
  SplitMix64 rng(0x4A4E5);
  std::vector<std::vector<PrecisionConfig>> cfgs(kLanes);
  PrecisionConfig walk;
  for (int i = 0; i < kSteps; ++i) {
    walk = i % 8 == 7 ? random_config(p.index, &rng, 12)
                      : mutate_config(p.index, walk, &rng);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      cfgs[lane].push_back(rng.next_u64() % 2 == 0
                               ? walk
                               : mutate_config(p.index, walk, &rng));
    }
  }
  // Each lane also runs every image it gets on the JIT engine (the
  // micro-op engine where the JIT is unavailable), so lanes race to
  // compile, place and publish the blobs of shared segments and to link
  // shared images, as a search's lanes do.
  struct JitRun {
    vm::RunResult result;
    std::vector<double> outputs;
  };
  std::vector<std::vector<verify::TrialBuilder::Built>> built(kLanes);
  std::vector<std::vector<JitRun>> jit_runs(kLanes);
  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    threads.emplace_back([&, lane] {
      for (const PrecisionConfig& cfg : cfgs[lane]) {
        built[lane].push_back(builder.build(cfg, lane));
        vm::Machine::Options mopts;
        mopts.engine = vm::Engine::kJit;
        mopts.profile = false;  // link the segments' shared blobs
        vm::Machine m(built[lane].back().exec, mopts);
        JitRun r;
        r.result = m.run();
        r.outputs = m.output_f64();
        jit_runs[lane].push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t hits = 0;
  std::size_t reused = 0;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (int i = 0; i < kSteps; ++i) {
      const PrecisionConfig& cfg = cfgs[lane][i];
      const verify::TrialBuilder::Built& b = built[lane][i];
      const std::string what = "lane " + std::to_string(lane) + " step " +
                               std::to_string(i) + " key " +
                               cfg.canonical_key();
      instrument::InstrumentStats scratch_stats;
      const program::Image scratch = instrument::instrument_image(
          p.image, p.index, cfg, &scratch_stats);
      expect_images_identical(b.exec->image(), scratch, what);
      expect_stats_identical(b.stats, scratch_stats, what);
      const auto scratch_exec = vm::ExecutableImage::build(scratch);
      expect_exec_identical(*b.exec, *scratch_exec, what);
      vm::Machine::Options mopts;
      mopts.engine = vm::Engine::kMicroOp;
      mopts.profile = false;
      vm::Machine ref(scratch_exec, mopts);
      const vm::RunResult ref_run = ref.run();
      const JitRun& got = jit_runs[lane][static_cast<std::size_t>(i)];
      EXPECT_EQ(got.result.status, ref_run.status) << what;
      EXPECT_EQ(got.result.trap_message, ref_run.trap_message) << what;
      EXPECT_EQ(got.result.instructions_retired, ref_run.instructions_retired)
          << what;
      expect_outputs_bit_identical(got.outputs, ref.output_f64(),
                                   what + " jit");
      hits += b.cost.image_cache_hit ? 1 : 0;
      reused += b.cost.funcs_reused;
    }
  }
  // The lanes really shared work, or this proves nothing about the locks.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(reused, 0u);
}

TEST(TrialBuilder, BitIdenticalOnKernelImage) {
  const kernels::Workload w = kernels::make_cg('S');
  const program::Image img = kernels::build_image(w);
  const auto ix = StructureIndex::build(program::lift(img));
  verify::TrialBuilder builder(img, ix);

  SplitMix64 rng(0xCC5);
  PrecisionConfig cfg;
  for (int pair = 0; pair < 24; ++pair) {
    cfg = mutate_config(ix, cfg, &rng);
    const program::Image scratch = instrument::instrument_image(img, ix, cfg);
    const std::string what = "cg pair " + std::to_string(pair);
    const auto exec = builder.build(cfg).exec;
    expect_exec_identical(*exec, *vm::ExecutableImage::build(scratch), what);
    expect_images_identical(exec->image(), scratch, what);
  }
}

TEST(TrialBuilder, SignaturesOfUnreachedFunctionsMatchFullResolution) {
  // The builder resolves only the functions a config's flags reach and
  // reuses the default signature elsewhere: it must equal resolving every
  // function, on random configs, search-step neighbours and flags on ids
  // the index does not have.
  for (const bool kernel : {false, true}) {
    const program::Image img =
        kernel ? kernels::build_image(kernels::make_mg('S'))
               : prepare_structured().image;
    const program::Program lifted = program::lift(img);
    const auto ix = StructureIndex::build(lifted);
    const verify::TrialBuilder builder(img, ix);
    SplitMix64 rng(kernel ? 0x516A : 0x516B);
    PrecisionConfig cfg;
    for (int step = 0; step < 150; ++step) {
      cfg = step % 5 == 4 ? random_config(ix, &rng, 8)
                          : mutate_config(ix, cfg, &rng);
      PrecisionConfig probe = cfg;
      if (step % 7 == 3) {
        probe.set_instr(ix.instrs().size() + step, Precision::kSingle);
        probe.set_block(ix.blocks().size() + 1, Precision::kSingle);
        probe.set_module(ix.modules().size(), Precision::kSingle);
      }
      const std::vector<std::string> got = builder.signatures(probe);
      ASSERT_EQ(got.size(), lifted.functions.size());
      for (std::size_t f = 0; f < got.size(); ++f) {
        ASSERT_EQ(got[f], instrument::precision_signature(
                              ix, probe, f, lifted.functions[f]))
            << (kernel ? "mg S" : "structured") << " step " << step
            << " function " << f << " key " << probe.canonical_key();
      }
    }
  }
}

/// Two one-function programs with the same function count but different
/// instructions: the index of the longer one is stale for the shorter.
struct StaleIndexCase {
  program::Image image;
  StructureIndex stale;
};

StaleIndexCase stale_index_case() {
  const auto one_function = [](bool longer) {
    lang::Builder b;
    b.begin_func("main", "m");
    auto x = b.var_f64("x");
    b.set(x, b.cf(1.5) + b.cf(2.5));
    if (longer) b.set(x, lang::Expr(x) * b.cf(3.0));
    b.output(x);
    b.end_func();
    return program::relayout(
        lang::compile(b.take_model(), lang::Mode::kDouble));
  };
  StaleIndexCase c{one_function(false), {}};
  c.stale = StructureIndex::build(program::lift(one_function(true)));
  return c;
}

TEST(TrialBuilder, StaleIndexIsAProgramErrorLikeScratch) {
  // The index of one program must not silently drive the patching of
  // another.
  const StaleIndexCase sc = stale_index_case();
  ASSERT_EQ(sc.stale.funcs().size(),
            program::lift(sc.image).functions.size());
  PrecisionConfig cfg;
  cfg.set_module(0, Precision::kSingle);

  const auto expect_stale = [](const auto& build) {
    try {
      build();
      ADD_FAILURE() << "stale index accepted";
    } catch (const ProgramError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "unknown to the structure index"),
                std::string::npos)
          << e.what();
    }
  };
  expect_stale([&] { instrument::instrument_image(sc.image, sc.stale, cfg); });
  verify::TrialBuilder builder(sc.image, sc.stale);
  expect_stale([&] { builder.build(cfg); });
  expect_stale([&] { builder.build(PrecisionConfig{}); });
}

// ---------------------------------------------------------------------------
// evaluate_config: a shared builder, a null builder (one-shot) and the
// from-scratch reference reach the same outcome, field for field.

/// The from-scratch reference: instrument_image + ExecutableImage::build +
/// Machine, judged by the verdict rules evaluate_config documents.
verify::EvalResult scratch_evaluate(const program::Image& img,
                                    const StructureIndex& ix,
                                    const PrecisionConfig& cfg,
                                    const verify::Verifier& verifier,
                                    const verify::EvalOptions& eopts) {
  using verify::FailureClass;
  verify::EvalResult r;
  std::shared_ptr<const vm::ExecutableImage> exec;
  try {
    exec = vm::ExecutableImage::build(
        instrument::instrument_image(img, ix, cfg, &r.stats));
  } catch (const std::exception& e) {
    r.failure_class = FailureClass::kInternalError;
    r.failure = strformat("internal error: %s", e.what());
    return r;
  }
  vm::Machine::Options mopts;
  mopts.engine = eopts.engine;
  mopts.max_instructions = eopts.max_instructions;
  vm::Machine m(exec, mopts);
  const vm::RunResult run = m.run();
  r.run_status = run.status;
  r.instructions_retired = run.instructions_retired;
  r.outputs = m.output_f64();
  switch (run.status) {
    case vm::RunResult::Status::kHalted:
      r.passed = verifier.verify(r.outputs);
      if (!r.passed) {
        r.failure_class = FailureClass::kDivergence;
        r.failure = "verification failed";
      }
      return r;
    case vm::RunResult::Status::kTrapped:
      r.failure_class = run.sentinel_escape ? FailureClass::kSentinelEscape
                                            : FailureClass::kTrap;
      break;
    case vm::RunResult::Status::kOutOfBudget:
      r.failure_class = FailureClass::kBudget;
      break;
    case vm::RunResult::Status::kDeadline:
      r.failure_class = FailureClass::kTimeout;
      break;
  }
  r.failure = run.trap_message.empty() ? "run failed" : run.trap_message;
  return r;
}

void expect_same_outcome(const verify::EvalResult& a,
                         const verify::EvalResult& b,
                         const std::string& what) {
  EXPECT_EQ(a.passed, b.passed) << what;
  EXPECT_EQ(a.failure_class, b.failure_class) << what;
  EXPECT_EQ(a.failure, b.failure) << what;
  EXPECT_EQ(a.run_status, b.run_status) << what;
  EXPECT_EQ(a.instructions_retired, b.instructions_retired) << what;
  expect_outputs_bit_identical(a.outputs, b.outputs, what);
  expect_stats_identical(a.stats, b.stats, what);
}

TEST(TrialBuilder, SharedOneShotAndScratchEvaluationsAgree) {
  const Prepared s = prepare_structured();
  // Tight enough that single-precision trials diverge.
  const verify::RelativeErrorVerifier verifier(
      verify::reference_outputs(s.image), 1e-12);
  verify::TrialBuilder shared(s.image, s.index);
  SplitMix64 rng(0xD1FF);
  PrecisionConfig cfg;
  std::set<verify::FailureClass> classes;
  std::size_t shared_reused = 0;
  for (int t = 0; t < 60; ++t) {
    cfg = t % 6 == 5 ? random_config(s.index, &rng, 10)
                     : mutate_config(s.index, cfg, &rng);
    verify::EvalOptions eopts;
    // Every fifth trial runs out of its budget mid-run.
    if (t % 5 == 4) eopts.max_instructions = 200 + rng.next_below(400);
    const std::string what = "trial " + std::to_string(t) + " key " +
                             cfg.canonical_key();

    const verify::EvalResult scratch =
        scratch_evaluate(s.image, s.index, cfg, verifier, eopts);
    const verify::EvalResult one_shot =
        verify::evaluate_config(s.image, s.index, cfg, verifier, eopts);
    eopts.builder = &shared;
    const verify::EvalResult warm =
        verify::evaluate_config(s.image, s.index, cfg, verifier, eopts);
    expect_same_outcome(one_shot, scratch, what + " one-shot");
    expect_same_outcome(warm, scratch, what + " shared");
    classes.insert(scratch.failure_class);

    // A one-shot build is a miss that reuses nothing.
    EXPECT_FALSE(one_shot.cost.image_cache_hit) << what;
    EXPECT_EQ(one_shot.cost.funcs_reused, 0u) << what;
    EXPECT_EQ(one_shot.cost.funcs_total, warm.cost.funcs_total) << what;
    if (!warm.cost.image_cache_hit) shared_reused += warm.cost.funcs_reused;
  }
  // The sweep covered passing, diverging and out-of-budget trials, and the
  // shared builder actually reused variants.
  EXPECT_TRUE(classes.count(verify::FailureClass::kNone)) << classes.size();
  EXPECT_TRUE(classes.count(verify::FailureClass::kDivergence));
  EXPECT_TRUE(classes.count(verify::FailureClass::kBudget));
  EXPECT_GT(shared_reused, 0u);

  // A stale index with the same function count: the same internal error
  // on all three paths, with no build recorded.
  const StaleIndexCase sc = stale_index_case();
  const verify::RelativeErrorVerifier v(verify::reference_outputs(sc.image),
                                        1e-6);
  PrecisionConfig single;
  single.set_module(0, Precision::kSingle);
  verify::EvalOptions eopts;
  const verify::EvalResult scratch =
      scratch_evaluate(sc.image, sc.stale, single, v, eopts);
  ASSERT_EQ(scratch.failure_class, verify::FailureClass::kInternalError);
  verify::TrialBuilder stale_builder(sc.image, sc.stale);
  for (verify::TrialBuilder* b : {static_cast<verify::TrialBuilder*>(nullptr),
                                  &stale_builder}) {
    eopts.builder = b;
    const verify::EvalResult r =
        verify::evaluate_config(sc.image, sc.stale, single, v, eopts);
    const std::string what = b == nullptr ? "stale one-shot" : "stale shared";
    expect_same_outcome(r, scratch, what);
    EXPECT_EQ(r.cost.funcs_total, 0u) << what;
  }
}

// ---------------------------------------------------------------------------
// TrialBuilder: reuse accounting and bit-identity of the served images.

TEST(TrialBuilder, ReusesImagesAndAccountsSavings) {
  const Prepared p = prepare_structured();
  // Two lanes: the image cache holds two images.
  verify::TrialBuilder builder(p.image, p.index, 2);
  // Each build reports its own reuse in its TrialCost; sum them as the
  // search does.
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t funcs_reused = 0;
  const auto build = [&](const PrecisionConfig& cfg) {
    verify::TrialBuilder::Built b = builder.build(cfg);
    ++(b.cost.image_cache_hit ? hits : misses);
    funcs_reused += b.cost.funcs_reused;
    return b;
  };

  SplitMix64 rng(0x7B);
  const PrecisionConfig a = random_config(p.index, &rng, 6);
  const verify::TrialBuilder::Built b1 = build(a);
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
  const verify::TrialBuilder::Built b2 = build(a);
  EXPECT_TRUE(b2.cost.image_cache_hit);
  EXPECT_EQ(b2.exec.get(), b1.exec.get());
  EXPECT_EQ(b2.cost.funcs_reused, b2.cost.funcs_total);

  // A neighbour misses the image cache but reuses most function variants.
  const PrecisionConfig b3_cfg = mutate_config(p.index, a, &rng);
  const verify::TrialBuilder::Built b3 = build(b3_cfg);
  EXPECT_FALSE(b3.cost.image_cache_hit);
  EXPECT_GT(b3.cost.funcs_reused, 0u);

  // A third image evicts the least recently used one, `a`, keeping the
  // cache at the lane count.
  PrecisionConfig c = b3_cfg;
  c.set_instr(0, b3_cfg.instr_flag(0) == Precision::kSingle
                     ? Precision::kDouble
                     : Precision::kSingle);
  ASSERT_NE(c.canonical_key(), a.canonical_key());
  ASSERT_NE(c.canonical_key(), b3_cfg.canonical_key());
  EXPECT_FALSE(build(c).cost.image_cache_hit);
  EXPECT_TRUE(build(b3_cfg).cost.image_cache_hit);
  EXPECT_TRUE(build(c).cost.image_cache_hit);
  const verify::TrialBuilder::Built b4 = build(a);
  EXPECT_FALSE(b4.cost.image_cache_hit);
  EXPECT_NE(b4.exec.get(), b1.exec.get());
  // Rebuilding `a` evicted b3, then the LRU entry; c stays.
  EXPECT_TRUE(build(c).cost.image_cache_hit);
  EXPECT_FALSE(build(b3_cfg).cost.image_cache_hit);

  EXPECT_EQ(hits, 4u);
  EXPECT_EQ(misses, 5u);
  EXPECT_GT(funcs_reused, 0u);
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
  // Without the cache every trial still builds through a (one-shot)
  // TrialBuilder: all misses, nothing reused.
  EXPECT_EQ(without_cache.metrics.image_cache_hits, 0u);
  EXPECT_EQ(without_cache.metrics.funcs_reused, 0u);
  EXPECT_EQ(without_cache.metrics.image_cache_misses,
            without_cache.metrics.trials_live +
                without_cache.metrics.retries);
  EXPECT_GT(without_cache.metrics.funcs_patched, 0u);
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

// ---------------------------------------------------------------------------
// The default engine (the JIT, or the micro-op engine it falls back to) must
// never leak into the science: journals and configs are byte-identical to
// the micro-op and switch engines, in-process and in sandboxed workers.

TEST(SearchEquivalence, DefaultEngineJournalMatchesMicroOpAndSwitch) {
  const SearchSetup s = search_setup();
  for (const bool isolate : {false, true}) {
    if (isolate && !runner::isolation_supported()) continue;
    std::string journals[3];
    std::string configs[3];
    for (int e = 0; e < 3; ++e) {
      search::SearchOptions opts;
      if (e == 1) opts.engine = vm::Engine::kMicroOp;
      if (e == 2) opts.engine = vm::Engine::kSwitch;
      opts.keep_log = false;
      opts.num_threads = 2;
      opts.isolate_trials = isolate;
      opts.num_workers = 2;
      opts.max_retries = 1;
      opts.journal_timings = false;
      opts.journal_path = testing::TempDir() +
                          strformat("engine_%d_%d.jsonl", e, isolate ? 1 : 0);
      std::remove(opts.journal_path.c_str());
      const search::SearchResult r = run_once(s, opts);
      std::ifstream f(opts.journal_path, std::ios::binary);
      std::ostringstream bytes;
      bytes << f.rdbuf();
      journals[e] = bytes.str();
      configs[e] = config::to_text(s.index, r.final_config);
      std::remove(opts.journal_path.c_str());
    }
    SCOPED_TRACE(isolate ? "isolated" : "in-process");
    ASSERT_FALSE(journals[0].empty());
    EXPECT_EQ(journals[1], journals[0]);
    EXPECT_EQ(journals[2], journals[0]);
    EXPECT_EQ(configs[1], configs[0]);
    EXPECT_EQ(configs[2], configs[0]);
  }
}

// The image cache holds one image per lane, which is all a vote round can
// reuse: with two lanes and one retry, every trial builds once and its
// revote hits, and the builder never holds more than two images.
TEST(SearchEquivalence, LaneSizedImageCacheServesEveryRevote) {
  const SearchSetup s = search_setup();
  search::SearchOptions opts;
  opts.keep_log = false;
  opts.num_threads = 2;
  opts.max_retries = 1;
  verify::reset_image_cache_peak();
  const search::SearchResult r = run_once(s, opts);
  const search::SearchMetrics& m = r.metrics;
  EXPECT_GT(m.trials_live, 2u);
  EXPECT_EQ(m.image_cache_misses, m.trials_live);
  EXPECT_EQ(m.image_cache_hits, m.trials_live);
  EXPECT_EQ(verify::image_cache_peak(), 2u);
}

}  // namespace
}  // namespace fpmix
