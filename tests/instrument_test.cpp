// End-to-end tests of the paper's core mechanism: snippet generation,
// basic-block patching, binary rewriting, and the in-place replaced-double
// representation.
//
// The key properties verified here mirror Section 3.1 of the paper:
//  - all-double instrumentation is semantics-preserving bit-for-bit;
//  - all-single instrumentation produces outputs bit-identical to a manual
//    single-precision version of the computation;
//  - mixed configurations upcast/downcast at the precision boundary;
//  - values that escape the instrumentation crash loudly.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "asm/assembler.hpp"
#include "config/textio.hpp"
#include "instrument/patch.hpp"
#include "program/layout.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"

namespace fpmix::instrument {
namespace {

using arch::Opcode;
using arch::Operand;
using config::Precision;
using config::PrecisionConfig;
using config::StructureIndex;
namespace in = arch::intrinsics;

struct TestBinary {
  program::Image image;       // original
  program::Program lifted;
  StructureIndex index;
};

TestBinary prepare(casm::Assembler& a, std::string_view entry) {
  TestBinary tb{program::relayout(a.finish(entry)), {}, {}};
  tb.lifted = program::lift(tb.image);
  tb.index = StructureIndex::build(tb.lifted);
  return tb;
}

std::vector<double> run(const program::Image& img,
                        vm::RunResult* result_out = nullptr) {
  vm::Machine m(img);
  const vm::RunResult r = m.run();
  if (result_out != nullptr) *result_out = r;
  else EXPECT_TRUE(r.ok()) << r.trap_message;
  return m.output_f64();
}

// y = ((a + b) * c - d) / e with values loaded from data, plus a sqrt.
casm::Assembler chain_program(double a, double b, double c, double d,
                              double e) {
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto la = as.data_f64(a), lb = as.data_f64(b), lc = as.data_f64(c);
  const auto ld = as.data_f64(d), le = as.data_f64(e);
  const auto mem = [](std::uint64_t x) {
    return Operand::mem_abs(static_cast<std::int32_t>(x));
  };
  as.emit(Opcode::kMovsdXM, Operand::xmm(2), mem(la));
  as.emit(Opcode::kMovsdXM, Operand::xmm(3), mem(lb));
  as.emit(Opcode::kAddsd, Operand::xmm(2), Operand::xmm(3));
  as.emit(Opcode::kMulsd, Operand::xmm(2), mem(lc));   // memory operand form
  as.emit(Opcode::kMovsdXM, Operand::xmm(4), mem(ld));
  as.emit(Opcode::kSubsd, Operand::xmm(2), Operand::xmm(4));
  as.emit(Opcode::kDivsd, Operand::xmm(2), mem(le));
  as.emit(Opcode::kSqrtsd, Operand::xmm(5), Operand::xmm(2));
  as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(2));
  as.intrin(in::Id::kOutputF64);
  as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(5));
  as.intrin(in::Id::kOutputF64);
  as.halt();
  as.end_function();
  return as;
}

TEST(Instrument, AllDoubleIsBitIdentical) {
  casm::Assembler as = chain_program(1.1, 2.7, 3.9, 0.4, 1.7);
  TestBinary tb = prepare(as, "main");
  const std::vector<double> orig = run(tb.image);

  InstrumentStats stats;
  const PrecisionConfig cfg;  // all double
  const program::Image patched =
      instrument_image(tb.image, tb.index, cfg, &stats);
  const std::vector<double> got = run(patched);

  ASSERT_EQ(got.size(), orig.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(orig[i]));
  }
  EXPECT_GT(stats.wrapped, 0u);
  EXPECT_EQ(stats.replaced_single, 0u);
  EXPECT_GT(patched.code.size(), tb.image.code.size());
}

TEST(Instrument, AllSingleMatchesManualConversion) {
  const double a = 1.1, b = 2.7, c = 3.9, d = 0.4, e = 1.7;
  casm::Assembler as = chain_program(a, b, c, d, e);
  TestBinary tb = prepare(as, "main");

  PrecisionConfig cfg;
  for (std::size_t m = 0; m < tb.index.modules().size(); ++m) {
    cfg.set_module(m, Precision::kSingle);
  }
  InstrumentStats stats;
  const program::Image patched =
      instrument_image(tb.image, tb.index, cfg, &stats);
  const std::vector<double> got = run(patched);

  // Manual single-precision twin of the computation.
  const float fa = static_cast<float>(a), fb = static_cast<float>(b),
              fc = static_cast<float>(c), fd = static_cast<float>(d),
              fe = static_cast<float>(e);
  float t = fa + fb;
  t = t * fc;
  t = t - fd;
  t = t / fe;
  const float s = std::sqrt(t);

  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got[0]),
            std::bit_cast<std::uint64_t>(static_cast<double>(t)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got[1]),
            std::bit_cast<std::uint64_t>(static_cast<double>(s)));
  EXPECT_EQ(stats.replaced_single, 5u);  // add, mul, sub, div, sqrt
}

TEST(Instrument, MixedConfigDowncastsAtBoundary) {
  const double a = 1.1, b = 2.7, c = 3.9, d = 0.4, e = 1.7;
  casm::Assembler as = chain_program(a, b, c, d, e);
  TestBinary tb = prepare(as, "main");

  // Map only the addsd to single; everything downstream is double.
  PrecisionConfig cfg;
  std::size_t addsd_id = SIZE_MAX;
  for (std::size_t i : tb.index.candidates()) {
    if (tb.index.instrs()[i].instr.op == Opcode::kAddsd) addsd_id = i;
  }
  ASSERT_NE(addsd_id, SIZE_MAX);
  cfg.set_instr(addsd_id, Precision::kSingle);
  const program::Image patched = instrument_image(tb.image, tb.index, cfg);
  const std::vector<double> got = run(patched);

  const double t0 = static_cast<double>(
      static_cast<float>(a) + static_cast<float>(b));  // narrowed add
  double t = t0 * c;
  t = t - d;
  t = t / e;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got[0]),
            std::bit_cast<std::uint64_t>(t));
  EXPECT_EQ(got[1], std::sqrt(t));
}

TEST(Instrument, PackedAllSingleMatchesManualConversion) {
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto pa = as.data_f64(1.0 / 3.0);
  as.data_f64(2.0 / 3.0);
  const auto pb = as.data_f64(5.0 / 7.0);
  as.data_f64(11.0 / 13.0);
  const auto mem = [](std::uint64_t x) {
    return Operand::mem_abs(static_cast<std::int32_t>(x));
  };
  as.emit(Opcode::kMovapdXM, Operand::xmm(1), mem(pa));
  as.emit(Opcode::kMulpd, Operand::xmm(1), mem(pb));   // packed, mem operand
  as.emit(Opcode::kAddpd, Operand::xmm(1), Operand::xmm(1));
  const auto tmp = as.reserve_bss(16, 16);
  as.emit(Opcode::kMovapdMX, mem(tmp), Operand::xmm(1));
  as.emit(Opcode::kMovsdXM, Operand::xmm(0), mem(tmp));
  as.intrin(in::Id::kOutputF64);
  as.emit(Opcode::kMovsdXM, Operand::xmm(0), mem(tmp + 8));
  as.intrin(in::Id::kOutputF64);
  as.halt();
  as.end_function();
  TestBinary tb = prepare(as, "main");

  PrecisionConfig cfg;
  cfg.set_module(0, Precision::kSingle);
  const program::Image patched = instrument_image(tb.image, tb.index, cfg);
  const std::vector<double> got = run(patched);

  const float a0 = static_cast<float>(1.0 / 3.0);
  const float a1 = static_cast<float>(2.0 / 3.0);
  const float b0 = static_cast<float>(5.0 / 7.0);
  const float b1 = static_cast<float>(11.0 / 13.0);
  const float m0 = a0 * b0, m1 = a1 * b1;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], static_cast<double>(m0 + m0));
  EXPECT_EQ(got[1], static_cast<double>(m1 + m1));
}

TEST(Instrument, SpRelativeMemorySourcesReadTheProgramsSlot) {
  // A snippet hoists its memory source after saving scratch state on the
  // stack, so an sp-relative address must be rebased by what the snippet
  // pushed: scalar sources through base sp and index sp, and a packed one.
  const double a = 1.0 / 3.0, b = 0.1, c = 5.0 / 7.0;
  const double p0 = 2.0 / 3.0, p1 = 1.0 / 9.0, q0 = 0.3, q1 = 11.0 / 13.0;
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto mem = [](std::uint64_t x) {
    return Operand::mem_abs(static_cast<std::int32_t>(x));
  };
  const auto la = as.data_f64(a), lb = as.data_f64(b), lc = as.data_f64(c);
  const auto lp = as.data_f64(p0);
  as.data_f64(p1);
  const auto lq = as.data_f64(q0);
  as.data_f64(q1);
  as.emit(Opcode::kMovsdXM, Operand::xmm(2), mem(la));
  as.emit(Opcode::kMovsdXM, Operand::xmm(3), mem(lb));
  as.emit(Opcode::kMovsdXM, Operand::xmm(4), mem(lc));
  as.emit(Opcode::kPushX, Operand::xmm(3));
  as.emit(Opcode::kPushX, Operand::xmm(4));
  // [sp+0] holds c, [sp+16] holds b.
  as.emit(Opcode::kAddsd, Operand::xmm(2), Operand::mem_bd(arch::kSpReg, 16));
  as.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(2));
  as.emit(Opcode::kMulsd, Operand::xmm(2),
          Operand::mem_bisd(2, arch::kSpReg, 1, -2));
  as.emit(Opcode::kPopX, Operand::xmm(4));
  as.emit(Opcode::kPopX, Operand::xmm(3));
  as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(2));
  as.intrin(in::Id::kOutputF64);
  as.emit(Opcode::kMovapdXM, Operand::xmm(5), mem(lp));
  as.emit(Opcode::kMovapdXM, Operand::xmm(6), mem(lq));
  as.emit(Opcode::kPushX, Operand::xmm(6));
  as.emit(Opcode::kAddpd, Operand::xmm(5), Operand::mem_bd(arch::kSpReg, 0));
  as.emit(Opcode::kPopX, Operand::xmm(6));
  as.emit(Opcode::kPushX, Operand::xmm(5));
  as.emit(Opcode::kMovsdXM, Operand::xmm(0),
          Operand::mem_bd(arch::kSpReg, 0));
  as.intrin(in::Id::kOutputF64);
  as.emit(Opcode::kMovsdXM, Operand::xmm(0),
          Operand::mem_bd(arch::kSpReg, 8));
  as.intrin(in::Id::kOutputF64);
  as.emit(Opcode::kPopX, Operand::xmm(5));
  as.halt();
  as.end_function();
  TestBinary tb = prepare(as, "main");

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const float fa = static_cast<float>(a), fb = static_cast<float>(b),
              fc = static_cast<float>(c);
  const std::vector<std::uint64_t> want_double = {
      bits((a + b) * c), bits(p0 + q0), bits(p1 + q1)};
  const std::vector<std::uint64_t> want_single = {
      bits(static_cast<double>((fa + fb) * fc)),
      bits(static_cast<double>(static_cast<float>(p0) +
                               static_cast<float>(q0))),
      bits(static_cast<double>(static_cast<float>(p1) +
                               static_cast<float>(q1)))};

  PrecisionConfig all_single;
  all_single.set_module(0, Precision::kSingle);
  const struct {
    const char* what;
    program::Image image;
    const std::vector<std::uint64_t>& want;
  } cases[] = {
      {"original", tb.image, want_double},
      {"all-double", instrument_image(tb.image, tb.index, {}), want_double},
      {"all-single", instrument_image(tb.image, tb.index, all_single),
       want_single}};
  for (const auto& c : cases) {
    for (const vm::Engine engine : {vm::Engine::kMicroOp, vm::Engine::kJit}) {
      vm::Machine::Options opts;
      opts.engine = engine;
      vm::Machine m(c.image, opts);
      const vm::RunResult r = m.run();
      ASSERT_TRUE(r.ok()) << r.trap_message;
      std::vector<std::uint64_t> got;
      for (const double v : m.output_f64()) got.push_back(bits(v));
      EXPECT_EQ(got, c.want)
          << c.what << (engine == vm::Engine::kJit ? " jit" : " micro-op");
    }
  }
}

TEST(Instrument, MaxLoopAllPrecisions) {
  // Proper max-finding loop using indexed addressing.
  const double vals[6] = {0.5, 9.25, -3.0, 7.5, 2.0, 8.124};
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto base = as.data_f64(vals[0]);
  for (int i = 1; i < 6; ++i) as.data_f64(vals[i]);
  as.emit(Opcode::kMov, Operand::gpr(3),
          Operand::make_imm(static_cast<std::int64_t>(base)));
  as.emit(Opcode::kMovsdXM, Operand::xmm(2), Operand::mem_bd(3, 0));
  as.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(1));
  auto loop = as.new_label();
  auto skip = as.new_label();
  auto done = as.new_label();
  as.bind(loop);
  as.emit(Opcode::kCmp, Operand::gpr(2), Operand::make_imm(6));
  as.jge(done);
  as.emit(Opcode::kMovsdXM, Operand::xmm(3),
          Operand::mem_bisd(3, 2, 8, 0));
  as.emit(Opcode::kUcomisd, Operand::xmm(3), Operand::xmm(2));
  as.jbe(skip);
  as.emit(Opcode::kMovsdXX, Operand::xmm(2), Operand::xmm(3));
  as.bind(skip);
  as.emit(Opcode::kAdd, Operand::gpr(2), Operand::make_imm(1));
  as.jmp(loop);
  as.bind(done);
  as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(2));
  as.intrin(in::Id::kOutputF64);
  as.halt();
  as.end_function();
  TestBinary tb = prepare(as, "main");

  const std::vector<double> orig = run(tb.image);
  ASSERT_EQ(orig.size(), 1u);
  EXPECT_EQ(orig[0], 9.25);

  {
    const PrecisionConfig cfg;
    const std::vector<double> got =
        run(instrument_image(tb.image, tb.index, cfg));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], 9.25);
  }
  {
    PrecisionConfig cfg;
    cfg.set_module(0, Precision::kSingle);
    const std::vector<double> got =
        run(instrument_image(tb.image, tb.index, cfg));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<double>(9.25f));
  }
}

TEST(Instrument, IntrinsicSingleTwinViaConfig) {
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto x = as.data_f64(0.625);
  as.emit(Opcode::kMovsdXM, Operand::xmm(0),
          Operand::mem_abs(static_cast<std::int32_t>(x)));
  as.intrin(in::Id::kSin);
  as.intrin(in::Id::kOutputF64);
  as.halt();
  as.end_function();
  TestBinary tb = prepare(as, "main");

  PrecisionConfig cfg;
  cfg.set_module(0, Precision::kSingle);
  const std::vector<double> got =
      run(instrument_image(tb.image, tb.index, cfg));
  ASSERT_EQ(got.size(), 1u);
  const float expect =
      static_cast<float>(std::sin(static_cast<double>(0.625f)));
  EXPECT_EQ(got[0], static_cast<double>(expect));
}

TEST(Instrument, IgnoredInstructionEscapesAndTraps) {
  // Map the producer to single but flag the consumer `ignore`: the consumer
  // then sees the tagged slot and the machine traps -- the paper's
  // "anything that our analysis misses causes a crash" property.
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto x = as.data_f64(1.5);
  as.emit(Opcode::kMovsdXM, Operand::xmm(2),
          Operand::mem_abs(static_cast<std::int32_t>(x)));
  as.emit(Opcode::kAddsd, Operand::xmm(2), Operand::xmm(2));  // -> single
  as.emit(Opcode::kMulsd, Operand::xmm(2), Operand::xmm(2));  // -> ignore
  as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(2));
  as.intrin(in::Id::kOutputF64);
  as.halt();
  as.end_function();
  TestBinary tb = prepare(as, "main");

  PrecisionConfig cfg;
  std::size_t add_id = SIZE_MAX, mul_id = SIZE_MAX;
  for (std::size_t i : tb.index.candidates()) {
    if (tb.index.instrs()[i].instr.op == Opcode::kAddsd) add_id = i;
    if (tb.index.instrs()[i].instr.op == Opcode::kMulsd) mul_id = i;
  }
  cfg.set_instr(add_id, Precision::kSingle);
  cfg.set_instr(mul_id, Precision::kIgnore);

  const program::Image patched = instrument_image(tb.image, tb.index, cfg);
  vm::RunResult r;
  run(patched, &r);
  EXPECT_EQ(r.status, vm::RunResult::Status::kTrapped);
  EXPECT_NE(r.trap_message.find("replaced-double sentinel"),
            std::string::npos);
}

TEST(Instrument, ProvenanceMapsBackToOriginal) {
  casm::Assembler as = chain_program(1.0, 2.0, 3.0, 4.0, 5.0);
  TestBinary tb = prepare(as, "main");
  PrecisionConfig cfg;
  cfg.set_module(0, Precision::kSingle);
  const program::Image patched = instrument_image(tb.image, tb.index, cfg);

  // Every snippet instruction's origin must be an original address.
  EXPECT_FALSE(patched.origins.empty());
  for (const auto& e : patched.origins) {
    EXPECT_TRUE(tb.index.has_instr_at(e.origin))
        << "origin 0x" << std::hex << e.origin;
  }

  // Running the patched binary and aggregating by origin shows each
  // original FP instruction executing exactly once (straight-line program).
  vm::Machine m(patched);
  ASSERT_TRUE(m.run().ok());
  const auto prof = m.profile_by_origin();
  for (std::size_t i : tb.index.candidates()) {
    const std::uint64_t addr = tb.index.instrs()[i].addr;
    ASSERT_TRUE(prof.contains(addr));
    EXPECT_GE(prof.at(addr), 1u);
  }
}

TEST(Instrument, StatsCountWrappedAndReplaced) {
  casm::Assembler as = chain_program(1.0, 2.0, 3.0, 4.0, 5.0);
  TestBinary tb = prepare(as, "main");
  PrecisionConfig cfg;
  // 5 arithmetic candidates (add, mul, sub, div, sqrt); wrap also counts
  // the two output_f64 intrinsics.
  cfg.set_module(0, Precision::kSingle);
  InstrumentStats stats;
  instrument_image(tb.image, tb.index, cfg, &stats);
  EXPECT_EQ(stats.replaced_single, 5u);
  EXPECT_EQ(stats.wrapped, 7u);
  EXPECT_EQ(stats.ignored, 0u);
  EXPECT_GT(stats.snippet_instrs, stats.wrapped * 4);
}

TEST(Instrument, FlagLivenessViolationIsRejected) {
  // ucomisd ... addsd ... jcc: flags are live across the addsd.
  casm::Assembler as;
  as.begin_function("main", "main");
  auto out = as.new_label();
  as.emit(Opcode::kUcomisd, Operand::xmm(0), Operand::xmm(1));
  as.emit(Opcode::kAddsd, Operand::xmm(2), Operand::xmm(3));
  as.jbe(out);
  as.emit(Opcode::kNop);
  as.bind(out);
  as.halt();
  as.end_function();
  TestBinary tb = prepare(as, "main");
  const PrecisionConfig cfg;
  EXPECT_THROW(instrument_image(tb.image, tb.index, cfg), ProgramError);
}

TEST(Snippet, NeedsSnippetClassification) {
  using config::Precision;
  const auto addsd =
      arch::make2(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(1));
  const auto cvtsi =
      arch::make2(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(1));
  const auto movsd =
      arch::make2(Opcode::kMovsdXM, Operand::xmm(0), Operand::mem_bd(1, 0));
  EXPECT_TRUE(needs_snippet(addsd, Precision::kDouble));
  EXPECT_TRUE(needs_snippet(addsd, Precision::kSingle));
  EXPECT_FALSE(needs_snippet(addsd, Precision::kIgnore));
  // cvtsi2sd reads no f64: wrap only when narrowing.
  EXPECT_FALSE(needs_snippet(cvtsi, Precision::kDouble));
  EXPECT_TRUE(needs_snippet(cvtsi, Precision::kSingle));
  // moves are never wrapped.
  EXPECT_FALSE(needs_snippet(movsd, Precision::kDouble));
  EXPECT_FALSE(needs_snippet(movsd, Precision::kSingle));
}

TEST(Snippet, ChainShapeMatchesFigure6) {
  // Single-precision reg-reg addsd: push/push, two check chains, the addss,
  // the retag, pop/pop.
  const auto addsd =
      arch::make2(Opcode::kAddsd, Operand::xmm(2), Operand::xmm(3));
  const SnippetChain chain =
      build_snippet(addsd, config::Precision::kSingle);
  ASSERT_GE(chain.blocks.size(), 5u);  // two skip branches -> 5 blocks
  // It must contain exactly one addss and no addsd.
  std::size_t addss = 0, addsd_count = 0, cvt = 0;
  for (const auto& b : chain.blocks) {
    for (const auto& i : b.instrs) {
      if (i.op == Opcode::kAddss) ++addss;
      if (i.op == Opcode::kAddsd) ++addsd_count;
      if (i.op == Opcode::kCvtsd2ss) ++cvt;
    }
  }
  EXPECT_EQ(addss, 1u);
  EXPECT_EQ(addsd_count, 0u);
  EXPECT_EQ(cvt, 2u);  // one potential downcast per input
}

TEST(Instrument, MovedOnlyValuesKeepDoublePrecision) {
  // The instrumenter replaces instructions, not data: a constant that flows
  // through moves alone (no arithmetic) legitimately retains its double
  // precision under an all-single configuration. This is inherent to the
  // paper's instruction-granular design; values that reach any FP operation
  // are narrowed there (see the fuzz-test property).
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto c = as.data_f64(1.0 / 3.0);
  as.emit(Opcode::kMovsdXM, Operand::xmm(0),
          Operand::mem_abs(static_cast<std::int32_t>(c)));
  as.intrin(in::Id::kOutputF64);  // moved straight to output
  as.emit(Opcode::kMovsdXM, Operand::xmm(2),
          Operand::mem_abs(static_cast<std::int32_t>(c)));
  as.emit(Opcode::kMulsd, Operand::xmm(2), Operand::xmm(2));  // computed
  as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(2));
  as.intrin(in::Id::kOutputF64);
  as.halt();
  as.end_function();
  TestBinary tb = prepare(as, "main");
  PrecisionConfig cfg;
  cfg.set_module(0, Precision::kSingle);
  const std::vector<double> got =
      run(instrument_image(tb.image, tb.index, cfg));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1.0 / 3.0);  // moved only: stays double
  const float f = static_cast<float>(1.0 / 3.0);
  EXPECT_EQ(got[1], static_cast<double>(f * f));  // computed: narrowed
}

TEST(Snippet, ScratchRegisterConflictRejected) {
  const auto bad = arch::make2(Opcode::kCvttsd2si, Operand::gpr(0),
                               Operand::xmm(1));
  EXPECT_THROW(build_snippet(bad, config::Precision::kDouble), ProgramError);
}

}  // namespace
}  // namespace fpmix::instrument
