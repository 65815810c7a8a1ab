// Tests for the extension features: intra-block dataflow check elision
// (paper Section 2.5) against the unelided splice-engine reference, the
// tag-check ablation knob, cancellation-detection
// instrumentation (Section 4.4), and the composition-refinement second
// search phase (Section 3.1's suggestion).
#include <gtest/gtest.h>

#include <bit>

#include "asm/assembler.hpp"
#include "instrument/cancellation.hpp"
#include "instrument/patch.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "reference_instrument.hpp"
#include "search/search.hpp"
#include "verify/evaluate.hpp"
#include "vm/machine.hpp"

namespace fpmix {
namespace {

using config::Precision;
using config::PrecisionConfig;
using config::StructureIndex;
using lang::Builder;
using lang::Expr;

// ---------------------------------------------------------------------------
// Dataflow optimization.

class DataflowSweep : public ::testing::TestWithParam<int> {};

TEST_P(DataflowSweep, ElisionPreservesResultsBitForBit) {
  // For several kernels and both all-double and all-single configurations,
  // the production (dataflow-elided) binary must produce outputs
  // bit-identical to the unelided reference with strictly fewer snippet
  // instructions.
  const int param = GetParam();
  kernels::Workload w;
  switch (param % 4) {
    case 0: w = kernels::make_ep('S'); break;
    case 1: w = kernels::make_cg('S'); break;
    case 2: w = kernels::make_mg('S'); break;
    default: w = kernels::make_sp('S'); break;
  }
  const bool single_cfg = param >= 4;

  const program::Image orig = kernels::build_image(w);
  const auto ix = StructureIndex::build(program::lift(orig));
  PrecisionConfig cfg;
  if (single_cfg) {
    for (std::size_t m = 0; m < ix.modules().size(); ++m) {
      cfg.set_module(m, Precision::kSingle);
    }
  }

  instrument::InstrumentStats base_stats, opt_stats;
  const program::Image base =
      reference::instrument_image(orig, ix, cfg, {}, &base_stats);
  const program::Image optimized =
      instrument::instrument_image(orig, ix, cfg, &opt_stats);

  vm::Machine mb(base), mo(optimized);
  const vm::RunResult rb = mb.run();
  const vm::RunResult ro = mo.run();
  ASSERT_EQ(rb.ok(), ro.ok()) << w.name << ": " << ro.trap_message;
  if (!rb.ok()) return;  // both crashed the same way; nothing to compare

  ASSERT_EQ(mo.output_f64().size(), mb.output_f64().size());
  for (std::size_t i = 0; i < mb.output_f64().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mo.output_f64()[i]),
              std::bit_cast<std::uint64_t>(mb.output_f64()[i]))
        << w.name << " output " << i;
  }
  EXPECT_LE(opt_stats.snippet_instrs, base_stats.snippet_instrs);
  EXPECT_LE(mo.instructions_retired(), mb.instructions_retired());
  if (opt_stats.checks_elided > 0) {
    EXPECT_LT(opt_stats.snippet_instrs, base_stats.snippet_instrs);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, DataflowSweep, ::testing::Range(0, 8));

TEST(Dataflow, ElidesChainedRegisterChecks) {
  // x = a+b; y = x*x within one block: the second op's inputs are known
  // tagged after the first, so its checks vanish.
  Builder b;
  b.begin_func("main", "m");
  auto x = b.var_f64("x");
  b.set(x, (b.cf(1.5) + b.cf(2.5)) * (b.cf(1.5) + b.cf(2.5)));
  b.output(x);
  b.end_func();
  const program::Image orig =
      program::relayout(lang::compile(b.take_model(), lang::Mode::kDouble));
  const auto ix = StructureIndex::build(program::lift(orig));
  PrecisionConfig cfg;
  cfg.set_module(0, Precision::kSingle);
  instrument::InstrumentStats stats;
  instrument::instrument_image(orig, ix, cfg, &stats);
  EXPECT_GT(stats.checks_elided, 0u);
}

/// Runs `orig` instrumented under `cfg` by production and by the unelided
/// reference; returns both single outputs' bit patterns.
std::pair<std::uint64_t, std::uint64_t> elided_and_reference_output(
    casm::Assembler& as, const std::vector<Precision>& flags) {
  const program::Image orig = program::relayout(as.finish("main"));
  const auto ix = StructureIndex::build(program::lift(orig));
  PrecisionConfig cfg;
  for (std::size_t i = 0; i < flags.size(); ++i) cfg.set_instr(i, flags[i]);
  const auto output = [](const program::Image& img) {
    vm::Machine m(img);
    const vm::RunResult r = m.run();
    EXPECT_TRUE(r.ok()) << r.trap_message;
    EXPECT_EQ(m.output_f64().size(), 1u);
    return m.output_f64().empty()
               ? 0
               : std::bit_cast<std::uint64_t>(m.output_f64()[0]);
  };
  return {output(instrument::instrument_image(orig, ix, cfg)),
          output(reference::instrument_image(orig, ix, cfg))};
}

TEST(Dataflow, WrappedIntrinsicConvertsOnlyItsArguments) {
  // xmm1 = 4.0 (plain, from a double addsd); a single exp converts only its
  // argument xmm0, so the single addsd must still narrow xmm1.
  using arch::Opcode;
  using arch::Operand;
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto two =
      Operand::mem_abs(static_cast<std::int32_t>(as.data_f64(2.0)));
  as.emit(Opcode::kMovsdXM, Operand::xmm(1), two);
  as.emit(Opcode::kAddsd, Operand::xmm(1), Operand::xmm(1));   // double
  as.emit(Opcode::kMovsdXM, Operand::xmm(0), two);
  as.intrin(arch::intrinsics::Id::kExp);                       // single
  as.emit(Opcode::kAddsd, Operand::xmm(1), Operand::xmm(1));   // single
  as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(1));
  as.intrin(arch::intrinsics::Id::kOutputF64);
  as.halt();
  as.end_function();
  const auto d = Precision::kDouble, s = Precision::kSingle;
  const auto [elided, ref] =
      elided_and_reference_output(as, {d, d, d, s, s, d, d, d});
  EXPECT_EQ(ref, std::bit_cast<std::uint64_t>(8.0));
  EXPECT_EQ(elided, ref);
}

TEST(Dataflow, ConversionToFloatForgetsTheDestinationState) {
  // xmm1 is boxed by a single addsd, then overwritten by cvtsd2ss: its
  // float result is neither boxed nor a double, so the double addsd that
  // follows must run the full check.
  using arch::Opcode;
  using arch::Operand;
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto one =
      Operand::mem_abs(static_cast<std::int32_t>(as.data_f64(1.0)));
  const auto three =
      Operand::mem_abs(static_cast<std::int32_t>(as.data_f64(3.0)));
  as.emit(Opcode::kMovsdXM, Operand::xmm(1), one);
  as.emit(Opcode::kAddsd, Operand::xmm(1), Operand::xmm(1));   // single
  as.emit(Opcode::kMovsdXM, Operand::xmm(2), three);
  as.emit(Opcode::kCvtsd2ss, Operand::xmm(1), Operand::xmm(2));
  as.emit(Opcode::kAddsd, Operand::xmm(1), Operand::xmm(1));   // double
  as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(1));
  as.intrin(arch::intrinsics::Id::kOutputF64);
  as.halt();
  as.end_function();
  const auto d = Precision::kDouble, s = Precision::kSingle;
  const auto [elided, ref] =
      elided_and_reference_output(as, {d, s, d, d, d, d, d, d});
  // 3.0f's bits in the low word, doubled as a denormal double.
  EXPECT_EQ(ref, 2 * std::uint64_t{std::bit_cast<std::uint32_t>(3.0f)});
  EXPECT_EQ(elided, ref);
}

// ---------------------------------------------------------------------------
// Tag-check ablation.

TEST(TagCheckAblation, UnconditionalNarrowingBreaksReuse) {
  // t = a+b; u = t+c: with checks disabled, the second op re-narrows the
  // boxed t as if its bits were a double -- detected by the tag trap or by
  // wrong output.
  Builder b;
  b.begin_func("main", "m");
  auto t = b.var_f64("t");
  auto u = b.var_f64("u");
  b.set(t, b.cf(1.25) + b.cf(2.5));
  b.set(u, Expr(t) + b.cf(0.25));
  b.output(u);
  b.end_func();
  const program::Image orig =
      program::relayout(lang::compile(b.take_model(), lang::Mode::kDouble));
  const auto ix = StructureIndex::build(program::lift(orig));
  PrecisionConfig cfg;
  cfg.set_module(0, Precision::kSingle);

  // With checks: correct value 4.0.
  {
    const program::Image inst = reference::instrument_image(orig, ix, cfg);
    vm::Machine m(inst);
    ASSERT_TRUE(m.run().ok());
    EXPECT_EQ(m.output_f64().at(0), 4.0);
  }
  // Without checks: the boxed intermediate is mangled.
  {
    reference::Options opts;
    opts.check_tags = false;
    const program::Image inst =
        reference::instrument_image(orig, ix, cfg, opts);
    vm::Machine m(inst);
    const vm::RunResult r = m.run();
    const bool wrong =
        !r.ok() || m.output_f64().empty() || m.output_f64()[0] != 4.0;
    EXPECT_TRUE(wrong);
  }
}

// ---------------------------------------------------------------------------
// Cancellation detection.

TEST(Cancellation, DetectsEngineeredCancellation) {
  // (a + eps) - a cancels ~all leading bits; an unrelated add does not.
  Builder b;
  b.begin_func("main", "m");
  auto big = b.var_f64("big");
  auto r = b.var_f64("r");
  auto i = b.var_i64("i");
  b.set(big, b.cf(1.0e8));
  b.for_(i, b.ci(0), b.ci(100), [&] {
    b.set(r, (Expr(big) + b.cf(3.5)) - Expr(big));  // cancels hard
    b.set(r, Expr(r) + b.cf(1.0));                  // benign
  });
  b.output(r);
  b.end_func();
  const program::Image orig =
      program::relayout(lang::compile(b.take_model(), lang::Mode::kDouble));

  instrument::CancellationOptions opts;
  opts.shadow_iters = 4;
  opts.min_cancel_bits = 8;
  const instrument::CancellationResult inst =
      instrument::instrument_cancellation(orig, opts);
  vm::Machine m(inst.image);
  const vm::RunResult rr = m.run();
  ASSERT_TRUE(rr.ok()) << rr.trap_message;
  // Semantics preserved.
  EXPECT_EQ(m.output_f64().at(0), 4.5);

  const instrument::CancellationReport rep =
      instrument::read_cancellation_report(m, inst.layout);
  // Exactly the subtraction cancels, once per iteration.
  EXPECT_EQ(rep.total_events, 100u);
  ASSERT_EQ(rep.events_by_addr.size(), 1u);
  EXPECT_EQ(rep.events_by_addr.begin()->second, 100u);
  // 1e8 + 3.5 - 1e8: exponent drops from ~27 to 1 -> ~26 cancelled bits.
  std::uint64_t hist_events = 0;
  for (std::size_t bin = 20; bin < 32; ++bin) {
    hist_events += rep.bits_histogram[bin];
  }
  EXPECT_EQ(hist_events, 100u);
}

TEST(Cancellation, PreservesKernelSemantics) {
  const kernels::Workload w = kernels::make_mg('S');
  const program::Image orig = kernels::build_image(w);
  vm::Machine m0(orig);
  ASSERT_TRUE(m0.run().ok());

  const instrument::CancellationResult inst =
      instrument::instrument_cancellation(orig, {});
  vm::Machine m1(inst.image);
  ASSERT_TRUE(m1.run().ok());
  ASSERT_EQ(m1.output_f64().size(), m0.output_f64().size());
  for (std::size_t i = 0; i < m0.output_f64().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m1.output_f64()[i]),
              std::bit_cast<std::uint64_t>(m0.output_f64()[i]));
  }
  // The shadow loop makes this expensive -- that is the point.
  EXPECT_GT(m1.instructions_retired(), m0.instructions_retired() * 20);
}

// ---------------------------------------------------------------------------
// Composition refinement.

TEST(Refinement, ProducesVerifiedPassingSubset) {
  const kernels::Workload w = kernels::make_mg('W');
  const program::Image img = kernels::build_image(w);
  auto ix = StructureIndex::build(program::lift(img));
  const auto verifier = kernels::make_verifier(w, img);
  search::SearchOptions opts;
  opts.keep_log = false;
  opts.refine_composition = true;
  const search::SearchResult r = search::run_search(img, &ix, *verifier,
                                                    opts);
  if (r.final_passed) {
    GTEST_SKIP() << "union composition passed; nothing to refine";
  }
  ASSERT_TRUE(r.refined);
  // The refined composition passes by construction; double-check it.
  const verify::EvalResult check =
      verify::evaluate_config(img, ix, r.refined_config, *verifier);
  EXPECT_TRUE(check.passed) << check.failure;
  // It replaces something, but no more than the (failing) union.
  EXPECT_GT(r.refined_stats.replaced_static, 0u);
  EXPECT_LE(r.refined_stats.replaced_static, r.stats.replaced_static);
}

}  // namespace
}  // namespace fpmix
