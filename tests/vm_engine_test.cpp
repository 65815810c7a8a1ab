// Differential testing of the VM execution engines.
//
// The micro-op engine (Engine::kMicroOp) and the JIT engine (Engine::kJit,
// on hosts that support it) must be observationally indistinguishable from
// the reference switch interpreter (Engine::kSwitch): bit-identical
// outputs, identical trap status and message, identical retired counts and
// identical per-address profiles -- on clean runs, on every trap class (tag
// escape, division, out-of-bounds, budget), and on instrumented images. A
// shared ExecutableImage must also behave identically from many Machines
// across threads.
//
// The JIT additionally gets engine-specific coverage: chunked supervision
// (deadline + fault injection re-enter compiled code mid-run), the
// incremental path (a warm-cache re-JIT of a delta trial must behave
// bit-identically to a cold compile of the same image), and snippet
// regions (budget sweeps and tag traps across the batched-retire regions
// that keep the instrumenter's tag tests inside).
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "arch/encode.hpp"
#include "arch/tag.hpp"
#include "asm/assembler.hpp"
#include "config/config.hpp"
#include "instrument/patch.hpp"
#include "kernels/workload.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "search/search.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "verify/trial_builder.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"

namespace fpmix {
namespace {

using arch::Opcode;
using arch::Operand;
namespace in = arch::intrinsics;

struct EngineOut {
  vm::RunResult result;
  std::vector<double> f64;
  std::vector<std::int64_t> i64;
  std::uint64_t retired = 0;
  std::map<std::uint64_t, std::uint64_t> profile;
};

EngineOut run_engine(const std::shared_ptr<const vm::ExecutableImage>& exec,
                     vm::Engine engine, vm::Machine::Options opts) {
  opts.engine = engine;
  vm::Machine m(exec, opts);
  EngineOut o;
  o.result = m.run();
  o.f64 = m.output_f64();
  o.i64 = m.output_i64();
  o.retired = m.instructions_retired();
  o.profile = m.profile_by_address();
  return o;
}

/// Demands `got` is observationally bit-identical to the reference run.
void expect_same(const EngineOut& got, const EngineOut& ref,
                 const std::string& what) {
  EXPECT_EQ(got.result.status, ref.result.status) << what;
  EXPECT_EQ(got.result.trap_message, ref.result.trap_message) << what;
  EXPECT_EQ(got.result.sentinel_escape, ref.result.sentinel_escape) << what;
  EXPECT_EQ(got.retired, ref.retired) << what;

  ASSERT_EQ(got.f64.size(), ref.f64.size()) << what;
  for (std::size_t i = 0; i < ref.f64.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.f64[i]),
              std::bit_cast<std::uint64_t>(ref.f64[i]))
        << what << " f64 output " << i;
  }
  EXPECT_EQ(got.i64, ref.i64) << what;
  EXPECT_EQ(got.profile, ref.profile) << what;
}

/// Runs one predecoded image on every engine this host supports and
/// demands bit-identical observable behaviour (the switch engine is the
/// oracle).
void expect_exec_identical(
    const std::shared_ptr<const vm::ExecutableImage>& exec,
    const vm::Machine::Options& opts, const std::string& what) {
  const EngineOut ref = run_engine(exec, vm::Engine::kSwitch, opts);
  expect_same(run_engine(exec, vm::Engine::kMicroOp, opts), ref,
              what + " [microop]");
  if (vm::jit::jit_supported()) {
    expect_same(run_engine(exec, vm::Engine::kJit, opts), ref,
                what + " [jit]");
  }
}

void expect_engines_identical(const program::Image& img,
                              vm::Machine::Options opts = {},
                              const char* what = "") {
  expect_exec_identical(vm::ExecutableImage::build(img), opts, what);
}

// ---------------------------------------------------------------------------
// Fuzzed mini-language programs, original and instrumented.

/// Random type-correct program: scalar pool + one array, mutated by loops,
/// conditionals, arithmetic chains and math intrinsics (the same shape the
/// instrumentation fuzz test uses). With `helpers` > 0 it is split across
/// functions: helpers h0.. run random statements (each may call earlier
/// ones) ahead of main, and main calls them among its own statements, so
/// every image holds cross-function calls and main is not the first
/// function. helpers == 0 gives the single-function programs the seeded
/// tests were written against.
lang::ProgramModel random_model(std::uint64_t seed, int helpers = 0) {
  SplitMix64 rng(seed);
  lang::Builder b;

  constexpr int kScalars = 5;
  std::vector<lang::Var> vars;
  for (int i = 0; i < kScalars; ++i) {
    vars.push_back(b.var_f64("v" + std::to_string(i)));
  }
  lang::Arr arr = b.array_f64("arr", 16);
  lang::Var idx = b.var_i64("idx");

  const auto helper_name = [](std::uint64_t h) {
    return "h" + std::to_string(h);
  };
  const auto rand_call = [&](int below) {
    b.call(helper_name(rng.next_below(static_cast<std::uint64_t>(below))));
  };

  const auto rand_var = [&]() -> lang::Expr {
    return lang::Expr(vars[rng.next_below(kScalars)]);
  };
  const std::function<lang::Expr(int)> rand_expr = [&](int depth) {
    if (depth <= 0 || rng.next_below(3) == 0) {
      switch (rng.next_below(3)) {
        case 0: return rand_var();
        case 1: return b.cf(rng.next_double(0.25, 2.0));
        default: return arr[b.ci(static_cast<std::int64_t>(
            rng.next_below(16)))];
      }
    }
    const lang::Expr a = rand_expr(depth - 1);
    const lang::Expr c = rand_expr(depth - 1);
    switch (rng.next_below(7)) {
      case 0: return a + c;
      case 1: return a - c;
      case 2: return a * c;
      case 3: return a / (fabs_(c) + b.cf(1.0));
      case 4: return sqrt_(fabs_(a) + b.cf(0.5));
      case 5: return min_(a, c);
      default: return sin_(a);
    }
  };

  // Statement `s` (named uniquely across functions) of a function that may
  // call helpers below `callable`.
  int stmt_id = 0;
  const auto rand_stmt = [&](int callable) {
    const int s = stmt_id++;
    switch (rng.next_below(callable > 0 ? 5 : 4)) {
      case 0:
        b.set(vars[rng.next_below(kScalars)], rand_expr(3));
        break;
      case 1:
        b.store(arr,
                b.ci(static_cast<std::int64_t>(rng.next_below(16))),
                rand_expr(2));
        break;
      case 2: {
        const auto body_var = rng.next_below(kScalars);
        lang::Var loop_i = b.var_i64("i" + std::to_string(s));
        const auto iters =
            static_cast<std::int64_t>(2 + rng.next_below(6));
        b.for_(loop_i, b.ci(0), b.ci(iters), [&] {
          b.set(vars[body_var],
                lang::Expr(vars[body_var]) * b.cf(0.75) + rand_expr(2));
        });
        break;
      }
      case 3: {
        const auto tgt = rng.next_below(kScalars);
        b.if_else(rand_expr(1) < rand_expr(1),
                  [&] { b.set(vars[tgt], rand_expr(2)); },
                  [&] { b.set(vars[tgt], rand_expr(2) + b.cf(0.125)); });
        break;
      }
      default:
        rand_call(callable);
        break;
    }
  };
  for (int h = 0; h < helpers; ++h) {
    b.begin_func(helper_name(static_cast<std::uint64_t>(h)),
                 "helpers" + std::to_string(h % 2));
    const int n = 2 + static_cast<int>(rng.next_below(4));
    for (int s = 0; s < n; ++s) rand_stmt(h);
    b.end_func();
  }

  b.begin_func("main", "fuzz");
  for (int i = 0; i < kScalars; ++i) {
    b.set(vars[i], b.cf(rng.next_double(0.5, 3.0)));
  }
  b.for_(idx, b.ci(0), b.ci(16), [&] {
    b.store(arr, lang::Expr(idx),
            to_f64(idx) * b.cf(rng.next_double(0.01, 0.2)) + b.cf(1.0));
  });
  const int num_stmts = 6 + static_cast<int>(rng.next_below(8));
  for (int s = 0; s < num_stmts; ++s) rand_stmt(helpers);
  for (int i = 0; i < kScalars; ++i) {
    b.output(lang::Expr(vars[i]) * b.cf(1.0));
  }
  b.end_func();
  return b.take_model();
}

/// Trial count for the env-scaled soaks: FPMIX_ENGINE_FUZZ_TRIALS when set
/// (CI runs deeper), else `fallback` (light for local runs).
int env_trials(int fallback) {
  if (const char* env = std::getenv("FPMIX_ENGINE_FUZZ_TRIALS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<int>(n);
  }
  return fallback;
}

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, EnginesBitIdenticalOnFuzzedPrograms) {
  for (int trial = 0; trial < 8; ++trial) {
    const std::uint64_t seed =
        0xE41E * static_cast<std::uint64_t>(GetParam() + 1) +
        static_cast<std::uint64_t>(trial);
    const lang::ProgramModel model = random_model(seed);
    const program::Image orig =
        program::relayout(lang::compile(model, lang::Mode::kDouble));
    expect_engines_identical(orig, {}, "original");

    // All-single instrumented build: exercises the cvt/ss handlers, the
    // snippet call/ret paths and (on analysis misses) the tag trap.
    const auto ix = config::StructureIndex::build(program::lift(orig));
    config::PrecisionConfig cfg;
    for (std::size_t m = 0; m < ix.modules().size(); ++m) {
      cfg.set_module(m, config::Precision::kSingle);
    }
    const program::Image inst = instrument::instrument_image(orig, ix, cfg);
    expect_engines_identical(inst, {}, "instrumented");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Trap classes: the message, status and retired count must match exactly.

TEST(EngineDiff, TaggedEscapeTrapIdentical) {
  casm::Assembler a;
  a.begin_function("main", "main");
  const std::uint64_t boxed = arch::make_tagged(1.0f);
  a.emit(Opcode::kMov, Operand::gpr(1),
         Operand::make_imm(static_cast<std::int64_t>(boxed)));
  a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(1));
  a.emit(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(0));
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  expect_engines_identical(img, {}, "tagged escape");

  const auto exec = vm::ExecutableImage::build(img);
  const EngineOut o = run_engine(exec, vm::Engine::kMicroOp, {});
  EXPECT_EQ(o.result.status, vm::RunResult::Status::kTrapped);
  EXPECT_NE(o.result.trap_message.find("replaced-double sentinel"),
            std::string::npos);
}

TEST(EngineDiff, TagTrapDisabledIdentical) {
  casm::Assembler a;
  a.begin_function("main", "main");
  const std::uint64_t boxed = arch::make_tagged(1.0f);
  a.emit(Opcode::kMov, Operand::gpr(1),
         Operand::make_imm(static_cast<std::int64_t>(boxed)));
  a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(1));
  a.emit(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(0));
  a.halt();
  a.end_function();
  vm::Machine::Options opts;
  opts.tag_trap = false;
  expect_engines_identical(program::relayout(a.finish("main")), opts,
                           "tag trap disabled");
}

TEST(EngineDiff, DivisionTrapsIdentical) {
  for (const Opcode op : {Opcode::kIdiv, Opcode::kIrem}) {
    casm::Assembler a;
    a.begin_function("main", "main");
    a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(7));
    a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(0));
    a.emit(op, Operand::gpr(1), Operand::gpr(2));
    a.halt();
    a.end_function();
    expect_engines_identical(program::relayout(a.finish("main")), {},
                             arch::opcode_name(op));
  }
}

TEST(EngineDiff, OutOfBoundsTrapsIdentical) {
  // Read and write, both far out of range.
  for (const bool is_store : {false, true}) {
    casm::Assembler a;
    a.begin_function("main", "main");
    a.emit(Opcode::kMov, Operand::gpr(1),
           Operand::make_imm(1ll << 40));
    if (is_store) {
      a.emit(Opcode::kStore, Operand::mem_bd(1, 0), Operand::gpr(2));
    } else {
      a.emit(Opcode::kLoad, Operand::gpr(2), Operand::mem_bd(1, 0));
    }
    a.halt();
    a.end_function();
    expect_engines_identical(program::relayout(a.finish("main")), {},
                             is_store ? "oob store" : "oob load");
  }
}

TEST(EngineDiff, BudgetExhaustionIdentical) {
  casm::Assembler a;
  a.begin_function("main", "main");
  auto l = a.new_label();
  a.bind(l);
  a.emit(Opcode::kNop);
  a.jmp(l);
  a.end_function();
  vm::Machine::Options opts;
  opts.max_instructions = 10'000;
  expect_engines_identical(program::relayout(a.finish("main")), opts,
                           "budget");
}

TEST(EngineDiff, RangeTrapIdentical) {
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto huge = a.data_f64(1e300);
  a.emit(Opcode::kMovsdXM, Operand::xmm(0),
         Operand::mem_abs(static_cast<std::int32_t>(huge)));
  a.emit(Opcode::kCvttsd2si, Operand::gpr(1), Operand::xmm(0));
  a.halt();
  a.end_function();
  expect_engines_identical(program::relayout(a.finish("main")), {},
                           "cvttsd2si range");
}

TEST(EngineDiff, DivisionEdgeCasesIdentical) {
  // Quotient/remainder edges through both operand forms: the JIT lowers
  // idiv/irem natively (cqo+idiv with explicit guards), so INT64_MIN/-1
  // and /0 must produce the interpreter's trap -- not the hardware #DE --
  // with the same message and retired count.
  constexpr std::int64_t kMin = INT64_MIN;
  constexpr std::int64_t kMax = INT64_MAX;
  struct Case { std::int64_t a, b; };
  const Case cases[] = {{7, 3},    {-7, 3},  {7, -3},   {-7, -3},
                        {kMin, 1}, {kMax, -1}, {kMin, -1}, {42, 0},
                        {kMin, 0}, {0, -1}};
  for (const Opcode op : {Opcode::kIdiv, Opcode::kIrem}) {
    for (const bool reg_form : {true, false}) {
      for (const Case& c : cases) {
        casm::Assembler a;
        a.begin_function("main", "main");
        a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(c.a));
        if (reg_form) {
          a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(c.b));
          a.emit(op, Operand::gpr(1), Operand::gpr(2));
        } else {
          a.emit(op, Operand::gpr(1), Operand::make_imm(c.b));
        }
        a.intrin(in::Id::kOutputI64);  // reads gpr1
        a.halt();
        a.end_function();
        expect_engines_identical(
            program::relayout(a.finish("main")), {},
            (std::string(arch::opcode_name(op)) +
             (reg_form ? " rr " : " ri ") + std::to_string(c.a) + "/" +
             std::to_string(c.b))
                .c_str());
      }
    }
  }
}

TEST(EngineDiff, TruncationBoundariesIdentical) {
  // cvttsd2si / cvttss2si around the interpreter's +-9.2e18 guard band,
  // plus NaN (the !(a<x && a>y) form traps on NaN). Each value runs as one
  // program: in-range values publish the truncated integer, out-of-range
  // values must trap with the same message on every engine.
  const double f64_cases[] = {0.5,    -0.5,    9.19e18, -9.19e18, 9.3e18,
                              -9.3e18, 9.2e18, -9.2e18,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()};
  for (const double v : f64_cases) {
    casm::Assembler a;
    a.begin_function("main", "main");
    a.emit(Opcode::kMov, Operand::gpr(1),
           Operand::make_imm(static_cast<std::int64_t>(
               std::bit_cast<std::uint64_t>(v))));
    a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(1));
    a.emit(Opcode::kCvttsd2si, Operand::gpr(1), Operand::xmm(0));
    a.intrin(in::Id::kOutputI64);
    a.halt();
    a.end_function();
    expect_engines_identical(program::relayout(a.finish("main")), {},
                             ("cvttsd2si " + std::to_string(v)).c_str());
  }
  const float f32_cases[] = {3.7f, -3.7f, 9.1e18f, -9.1e18f, 9.3e18f,
                             std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::infinity()};
  for (const float v : f32_cases) {
    casm::Assembler a;
    a.begin_function("main", "main");
    a.emit(Opcode::kMov, Operand::gpr(1),
           Operand::make_imm(static_cast<std::int64_t>(
               std::bit_cast<std::uint32_t>(v))));
    a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(1));
    a.emit(Opcode::kCvttss2si, Operand::gpr(1), Operand::xmm(0));
    a.intrin(in::Id::kOutputI64);
    a.halt();
    a.end_function();
    expect_engines_identical(program::relayout(a.finish("main")), {},
                             ("cvttss2si " + std::to_string(v)).c_str());
  }
}

namespace {

/// Publishes both 64-bit halves of an xmm register through scratch memory
/// (kMovapdMX then two integer loads), so packed-lane tests observe every
/// bit of the 128-bit result.
void output_xmm128(casm::Assembler& a, int xmm, std::int32_t scratch) {
  a.emit(Opcode::kMovapdMX, Operand::mem_abs(scratch), Operand::xmm(xmm));
  a.emit(Opcode::kLoad, Operand::gpr(1), Operand::mem_abs(scratch));
  a.intrin(in::Id::kOutputI64);
  a.emit(Opcode::kLoad, Operand::gpr(1), Operand::mem_abs(scratch + 8));
  a.intrin(in::Id::kOutputI64);
}

}  // namespace

TEST(EngineDiff, PackedLanesIdentical) {
  // Packed pd/ps arithmetic and 128-bit bitwise ops, register and memory
  // source forms, including dst==src aliasing. Both lanes of every result
  // are published, so a lane swap or upper-lane corruption in the JIT's
  // SSE lowering cannot hide.
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto d0 = a.data_f64(1.5);
  const auto d1 = a.data_f64(-2.25);
  a.data_f64(0.875);       // second lane of the 128-bit load at d1
  const auto scratch = static_cast<std::int32_t>(a.data_i64(0));
  a.data_i64(0);           // second half of the 16-byte scratch area

  a.emit(Opcode::kMovapdXM, Operand::xmm(0),
         Operand::mem_abs(static_cast<std::int32_t>(d0)));
  a.emit(Opcode::kMovapdXM, Operand::xmm(1),
         Operand::mem_abs(static_cast<std::int32_t>(d1)));
  for (const Opcode op : {Opcode::kAddpd, Opcode::kSubpd, Opcode::kMulpd,
                          Opcode::kDivpd}) {
    a.emit(Opcode::kMovapdXX, Operand::xmm(2), Operand::xmm(0));
    a.emit(op, Operand::xmm(2), Operand::xmm(1));          // reg src
    output_xmm128(a, 2, scratch);
    a.emit(Opcode::kMovapdXX, Operand::xmm(3), Operand::xmm(0));
    a.emit(op, Operand::xmm(3),
           Operand::mem_abs(static_cast<std::int32_t>(d1)));  // mem src
    output_xmm128(a, 3, scratch);
  }
  a.emit(Opcode::kMovapdXX, Operand::xmm(4), Operand::xmm(1));
  a.emit(Opcode::kMulpd, Operand::xmm(4), Operand::xmm(4));  // aliased
  a.emit(Opcode::kSqrtpd, Operand::xmm(5), Operand::xmm(4));
  output_xmm128(a, 5, scratch);

  // ps: four f32 lanes per op.
  for (const Opcode op : {Opcode::kAddps, Opcode::kSubps, Opcode::kMulps,
                          Opcode::kDivps}) {
    a.emit(Opcode::kMovapdXX, Operand::xmm(6), Operand::xmm(0));
    a.emit(op, Operand::xmm(6), Operand::xmm(1));
    output_xmm128(a, 6, scratch);
  }
  a.emit(Opcode::kMovapdXX, Operand::xmm(7), Operand::xmm(1));
  a.emit(Opcode::kMulps, Operand::xmm(7), Operand::xmm(7));
  a.emit(Opcode::kSqrtps, Operand::xmm(8), Operand::xmm(7));
  output_xmm128(a, 8, scratch);

  // 128-bit bitwise, reg and mem forms.
  for (const Opcode op : {Opcode::kAndpd, Opcode::kOrpd, Opcode::kXorpd}) {
    a.emit(Opcode::kMovapdXX, Operand::xmm(9), Operand::xmm(0));
    a.emit(op, Operand::xmm(9), Operand::xmm(1));
    output_xmm128(a, 9, scratch);
    a.emit(Opcode::kMovapdXX, Operand::xmm(10), Operand::xmm(0));
    a.emit(op, Operand::xmm(10),
           Operand::mem_abs(static_cast<std::int32_t>(d1)));
    output_xmm128(a, 10, scratch);
  }
  a.emit(Opcode::kXorpd, Operand::xmm(0), Operand::xmm(0));  // aliased zero
  output_xmm128(a, 0, scratch);
  a.halt();
  a.end_function();
  expect_engines_identical(program::relayout(a.finish("main")), {},
                           "packed lanes");
}

TEST(EngineDiff, PackedTagInLaneTrapsIdentical) {
  // A replaced-double sentinel in lane 1 only: packed arithmetic reads both
  // lanes, so the tag trap must fire with the same diagnostic even though
  // lane 0 is clean. Exercises the per-lane tag checks of the JIT's packed
  // lowering.
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto d0 = a.data_f64(1.0);
  a.data_i64(static_cast<std::int64_t>(arch::make_tagged(2.0f)));  // lane 1
  a.emit(Opcode::kMovapdXM, Operand::xmm(0),
         Operand::mem_abs(static_cast<std::int32_t>(d0)));
  a.emit(Opcode::kAddpd, Operand::xmm(0), Operand::xmm(0));
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  expect_engines_identical(img, {}, "tag in packed lane");

  const auto exec = vm::ExecutableImage::build(img);
  const EngineOut o = run_engine(exec, vm::Engine::kMicroOp, {});
  EXPECT_EQ(o.result.status, vm::RunResult::Status::kTrapped);
  EXPECT_TRUE(o.result.sentinel_escape);
}

TEST(EngineDiff, RegisterPressureSpillBlocksIdentical) {
  // One long straight-line block touching more guest registers than the
  // allocator has promotion hosts (3 gprs, 12 xmms): the block must spill
  // and reload correctly, and a budget stop inside it must resume with
  // bit-identical state. Every register is published at the end.
  casm::Assembler a;
  a.begin_function("main", "main");
  for (int r = 1; r <= 10; ++r) {
    a.emit(Opcode::kMov, Operand::gpr(static_cast<std::uint8_t>(r)),
           Operand::make_imm(1000 + 17 * r));
  }
  for (int x = 0; x < 14; ++x) {
    a.emit(Opcode::kMov, Operand::gpr(11),
           Operand::make_imm(static_cast<std::int64_t>(
               std::bit_cast<std::uint64_t>(0.5 + 0.25 * x))));
    a.emit(Opcode::kMovqXR, Operand::xmm(static_cast<std::uint8_t>(x)),
           Operand::gpr(11));
  }
  // Interleaved arithmetic: many live values, repeated uses of each.
  for (int round = 0; round < 4; ++round) {
    for (int r = 1; r <= 10; ++r) {
      a.emit(Opcode::kAdd, Operand::gpr(static_cast<std::uint8_t>(r)),
             Operand::gpr(static_cast<std::uint8_t>(1 + (r % 10))));
    }
    for (int x = 0; x < 14; ++x) {
      a.emit(Opcode::kAddsd, Operand::xmm(static_cast<std::uint8_t>(x)),
             Operand::xmm(static_cast<std::uint8_t>((x + 3) % 14)));
    }
  }
  for (int r = 1; r <= 10; ++r) {
    a.emit(Opcode::kMov, Operand::gpr(12),
           Operand::gpr(static_cast<std::uint8_t>(r)));
    a.emit(Opcode::kMov, Operand::gpr(1), Operand::gpr(12));
    a.intrin(in::Id::kOutputI64);
  }
  for (int x = 0; x < 14; ++x) {
    a.emit(Opcode::kMovsdXX, Operand::xmm(0),
           Operand::xmm(static_cast<std::uint8_t>(x)));
    a.intrin(in::Id::kOutputF64);
  }
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  expect_engines_identical(img, {}, "register pressure");

  // Budget stops inside the block: retired counts and register state must
  // match wherever the stop lands (the JIT's batched budget guards hand the
  // tail to the interpreter at an arbitrary interior instruction).
  const auto exec = vm::ExecutableImage::build(img);
  const EngineOut full = run_engine(exec, vm::Engine::kSwitch, {});
  ASSERT_TRUE(full.result.ok());
  for (const std::uint64_t budget :
       {std::uint64_t{1}, std::uint64_t{2}, full.retired / 3,
        full.retired / 2, full.retired - 1}) {
    vm::Machine::Options opts;
    opts.max_instructions = budget;
    expect_engines_identical(img, opts,
                             ("pressure budget " + std::to_string(budget)).c_str());
  }
}

TEST(EngineDiff, BudgetBoundarySweepOnFuzzedProgram) {
  // Sweeps the instruction budget across a fuzzed program so stops land on
  // covered-run interiors, fused compare+branch pairs and intrinsic calls.
  // The JIT exits via its near-budget stub and finishes on the interpreter;
  // the observable state must stay bit-identical at every boundary.
  const lang::ProgramModel model = random_model(0xB0DE7);
  const program::Image img =
      program::relayout(lang::compile(model, lang::Mode::kDouble));
  const auto exec = vm::ExecutableImage::build(img);
  const EngineOut full = run_engine(exec, vm::Engine::kSwitch, {});
  ASSERT_TRUE(full.result.ok());
  ASSERT_GT(full.retired, 64u);
  for (std::uint64_t budget = full.retired - 9; budget <= full.retired;
       ++budget) {
    vm::Machine::Options opts;
    opts.max_instructions = budget;
    expect_engines_identical(img, opts,
                             ("budget " + std::to_string(budget)).c_str());
  }
  for (const std::uint64_t budget :
       {full.retired / 7, full.retired / 3, full.retired / 2}) {
    vm::Machine::Options opts;
    opts.max_instructions = budget;
    expect_engines_identical(img, opts,
                             ("budget " + std::to_string(budget)).c_str());
  }
}

// ---------------------------------------------------------------------------
// Snippet regions. The JIT keeps each NaN-box tag test the instrumenter
// emits (a short forward compare+branch) inside one register-allocated
// region and retires in batches: an entry adds the all-branches-taken count
// up front, each fall-through adds what its branch skips, and every exit
// from inside a region subtracts a per-pc correction. Budget stops, traps,
// intrinsic helpers and profile counts inside such regions must stay exact.

/// The instrumented shapes a search runs: all-double, module-single and two
/// seeded per-instruction mixes.
std::vector<std::pair<std::string, program::Image>> instrumented_variants(
    const program::Image& orig, std::uint64_t seed) {
  const auto ix = config::StructureIndex::build(program::lift(orig));
  std::vector<std::pair<std::string, program::Image>> out;
  out.emplace_back("all-double", instrument::instrument_image(
                                     orig, ix, config::PrecisionConfig{}));
  config::PrecisionConfig single;
  for (std::size_t m = 0; m < ix.modules().size(); ++m) {
    single.set_module(m, config::Precision::kSingle);
  }
  out.emplace_back("module-single",
                   instrument::instrument_image(orig, ix, single));
  for (std::uint64_t mix = 0; mix < 2; ++mix) {
    SplitMix64 rng(seed * 31 + mix);
    config::PrecisionConfig cfg;
    for (const std::size_t i : ix.candidates()) {
      if (rng.next_below(2) == 0) cfg.set_instr(i, config::Precision::kSingle);
    }
    out.emplace_back("mix" + std::to_string(mix),
                     instrument::instrument_image(orig, ix, cfg));
  }
  return out;
}

/// Profile count of `addr` after a micro-op run stopped at `budget`.
std::uint64_t count_at(const std::shared_ptr<const vm::ExecutableImage>& exec,
                       std::uint64_t budget, std::uint64_t addr) {
  vm::Machine::Options opts;
  opts.profile = true;
  opts.max_instructions = budget;
  const EngineOut o = run_engine(exec, vm::Engine::kMicroOp, opts);
  const auto it = o.profile.find(addr);
  return it == o.profile.end() ? 0 : it->second;
}

/// Budgets that stop on every pc of one tag-test diamond (compare, branch,
/// skipped arm, target), once where the branch is taken and once where it
/// falls through. Empty when no short forward compare+branch runs both
/// arms within its first 8 executions. `profile` is a full profiled run.
std::vector<std::uint64_t> diamond_budgets(
    const std::shared_ptr<const vm::ExecutableImage>& exec,
    std::uint64_t full, const std::map<std::uint64_t, std::uint64_t>& profile) {
  const auto& uops = exec->uops();
  const auto& code = exec->code();
  const auto runs = [&](std::size_t i) {
    const auto it = profile.find(code[i].addr);
    return it == profile.end() ? 0 : it->second;
  };
  for (std::size_t c = 0; c + 2 < uops.size(); ++c) {
    const auto k = static_cast<vm::MicroKind>(uops[c + 1].kind);
    if ((code[c].op != Opcode::kCmp && code[c].op != Opcode::kTest) ||
        k < vm::MicroKind::kJe || k > vm::MicroKind::kJae) {
      continue;
    }
    const auto t = static_cast<std::uint64_t>(uops[c + 1].imm);
    if (t <= c + 2 || t > c + 24 || t >= uops.size()) continue;
    // Both arms ran: the arm's first uop ran, but less often than the test.
    if (runs(c + 2) == 0 || runs(c + 2) >= runs(c)) continue;
    std::vector<std::uint64_t> budgets;
    bool seen[2] = {false, false};  // [fell through, taken]
    for (std::uint64_t nth = 1; nth <= 8 && !(seen[0] && seen[1]); ++nth) {
      // Smallest budget whose run retires the compare for the nth time.
      std::uint64_t lo = 1, hi = full;
      if (count_at(exec, hi, code[c].addr) < nth) break;
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (count_at(exec, mid, code[c].addr) >= nth) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      const bool fell = count_at(exec, lo + 2, code[c + 2].addr) >
                        count_at(exec, lo, code[c + 2].addr);
      if (seen[fell ? 0 : 1]) continue;
      seen[fell ? 0 : 1] = true;
      for (std::uint64_t b = lo - 1; b <= lo + (t - c) + 1 && b <= full; ++b) {
        budgets.push_back(b);
      }
    }
    if (seen[0] && seen[1]) return budgets;
  }
  return {};
}

/// Sweeps the budget over one instrumented image (seeded random values, the
/// last 40, and a two-armed diamond) with profiling off and on.
void sweep_budgets(const program::Image& img, std::uint64_t seed,
                   const std::string& what, bool want_diamond) {
  const auto exec = vm::ExecutableImage::build(img);
  vm::Machine::Options profiled;
  profiled.profile = true;
  const EngineOut full = run_engine(exec, vm::Engine::kMicroOp, profiled);
  std::vector<std::uint64_t> budgets;
  SplitMix64 rng(seed);
  for (int i = 0; i < 6; ++i) budgets.push_back(1 + rng.next_below(full.retired));
  for (std::uint64_t b = full.retired > 39 ? full.retired - 39 : 1;
       b <= full.retired; ++b) {
    budgets.push_back(b);
  }
  if (want_diamond) {
    const std::vector<std::uint64_t> d =
        diamond_budgets(exec, full.retired, full.profile);
    EXPECT_FALSE(d.empty()) << what << ": no two-armed diamond";
    budgets.insert(budgets.end(), d.begin(), d.end());
  }
  for (const bool profile : {false, true}) {
    vm::Machine::Options opts;
    opts.profile = profile;
    expect_exec_identical(exec, opts, what + (profile ? " profiled" : ""));
    for (const std::uint64_t b : budgets) {
      opts.max_instructions = b;
      expect_exec_identical(exec, opts,
                            what + " budget " + std::to_string(b) +
                                (profile ? " profiled" : ""));
    }
  }
}

TEST(EngineDiff, InstrumentedBudgetSweepIdentical) {
  // Fuzzed programs (env-scaled count) and two NAS class-S kernels, each
  // instrumented four ways. The NAS kernels also sweep one diamond: their
  // module-single and mixed images are where tag tests run both arms.
  const int trials = env_trials(2);
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 0x5E610 + static_cast<std::uint64_t>(t) * 977;
    const program::Image orig = program::relayout(
        lang::compile(random_model(seed), lang::Mode::kDouble));
    for (const auto& [name, img] : instrumented_variants(orig, seed)) {
      sweep_budgets(img, seed, "fuzz " + std::to_string(t) + " " + name,
                    /*want_diamond=*/false);
    }
  }
  for (const kernels::Workload& w :
       {kernels::make_sp('S'), kernels::make_ft('S')}) {
    const program::Image orig = kernels::build_image(w);
    for (const auto& [name, img] : instrumented_variants(orig, 0x5A5)) {
      sweep_budgets(img, 0x5A5, w.name + " " + name,
                    /*want_diamond=*/name != "all-double");
    }
  }
}

TEST(EngineDiff, TagTrapInsideSnippetRegionIdentical) {
  // One straight-line region holding a downcast-shaped tag test: movq, shr,
  // cmp with the tag word, je over a retag arm. The addsd after the join
  // then escapes the sentinel -- a tag trap after an internal branch, inside
  // the same region, on both arms (boxed input: taken; plain input: the arm
  // boxes it). The cmp before halt kills the flags, so the pair is fusable.
  for (const bool boxed : {true, false}) {
    casm::Assembler a;
    a.begin_function("main", "main");
    const std::uint64_t bits =
        boxed ? arch::make_tagged(1.5f) : std::bit_cast<std::uint64_t>(2.5);
    a.emit(Opcode::kMov, Operand::gpr(1),
           Operand::make_imm(static_cast<std::int64_t>(bits)));
    a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(1));
    a.emit(Opcode::kMovqRX, Operand::gpr(2), Operand::xmm(0));
    a.emit(Opcode::kShr, Operand::gpr(2), Operand::make_imm(32));
    a.emit(Opcode::kCmp, Operand::gpr(2),
           Operand::make_imm(static_cast<std::int64_t>(arch::kReplacedTag)));
    const auto skip = a.new_label();
    a.je(skip);
    a.emit(Opcode::kCvtsd2ss, Operand::xmm(0), Operand::xmm(0));
    a.emit(Opcode::kMovqRX, Operand::gpr(2), Operand::xmm(0));
    a.emit(Opcode::kOr, Operand::gpr(2),
           Operand::make_imm(static_cast<std::int64_t>(arch::kReplacedTagHigh)));
    a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(2));
    a.bind(skip);
    a.emit(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(0));
    a.emit(Opcode::kCmp, Operand::gpr(3), Operand::make_imm(0));
    a.halt();
    a.end_function();
    const program::Image img = program::relayout(a.finish("main"));
    const auto exec = vm::ExecutableImage::build(img);
    const std::string what = boxed ? "boxed" : "plain";

    const EngineOut ref = run_engine(exec, vm::Engine::kSwitch, {});
    EXPECT_EQ(ref.result.status, vm::RunResult::Status::kTrapped) << what;
    EXPECT_TRUE(ref.result.sentinel_escape) << what;
    const char* no_regalloc = std::getenv("FPMIX_JIT_NO_REGALLOC");
    if (vm::jit::jit_supported() &&
        !(no_regalloc && no_regalloc[0] && no_regalloc[0] != '0')) {
      // The je really is an internal branch of a covered region.
      const auto blob = vm::jit::compile_stream(exec->uops(), {});
      EXPECT_EQ(blob->stats.region_branches, 1u) << what;
    }
    // Every budget, so stops land on each pc of the diamond and the trap.
    for (const bool profile : {false, true}) {
      vm::Machine::Options opts;
      opts.profile = profile;
      expect_exec_identical(exec, opts, what);
      for (std::uint64_t b = 1; b <= ref.retired; ++b) {
        opts.max_instructions = b;
        expect_exec_identical(exec, opts,
                              what + " budget " + std::to_string(b));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared predecoded images.

TEST(SharedExecImage, ManyMachinesAcrossThreads) {
  const lang::ProgramModel model = random_model(0x5EED);
  const program::Image img =
      program::relayout(lang::compile(model, lang::Mode::kDouble));
  const auto exec = vm::ExecutableImage::build(img);

  vm::Machine reference(exec);
  EXPECT_EQ(reference.executable().get(), exec.get());
  const vm::RunResult ref_run = reference.run();
  ASSERT_TRUE(ref_run.ok()) << ref_run.trap_message;
  const std::vector<double> want = reference.output_f64();

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&exec, &got, i] {
      vm::Machine m(exec, {});
      if (m.run().ok()) got[static_cast<std::size_t>(i)] = m.output_f64();
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)].size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[static_cast<std::size_t>(
                    i)][j]),
                std::bit_cast<std::uint64_t>(want[j]));
    }
  }
}

// ---------------------------------------------------------------------------
// JIT engine specifics. Every test degrades to a skip on hosts where the JIT
// is unavailable (non-x86-64, sanitizer builds, hardened kernels); the
// downgrade path itself is exercised by the engine tests above, which run
// kJit through the public Options and rely on the automatic fallback.

#define FPMIX_REQUIRE_JIT()                                            \
  if (!vm::jit::jit_supported()) {                                     \
    GTEST_SKIP() << "jit unavailable: " << vm::jit::jit_unsupported_reason(); \
  }

/// A program that never halts: spins on FP work so deadline supervision has
/// something to interrupt mid-chunk.
program::Image endless_fp_loop() {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(0x3FF0000000000000));
  a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(1));
  auto l = a.new_label();
  a.bind(l);
  a.emit(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(0));
  a.emit(Opcode::kMulsd, Operand::xmm(0), Operand::xmm(0));
  a.jmp(l);
  a.end_function();
  return program::relayout(a.finish("main"));
}

TEST(JitEngine, DeadlineInterruptsCompiledCodeMidRun) {
  FPMIX_REQUIRE_JIT();
  vm::Machine::Options opts;
  opts.engine = vm::Engine::kJit;
  opts.tag_trap = false;  // the loop overflows to inf; only time stops it
  opts.deadline_ns = 50ull * 1000 * 1000;
  opts.deadline_check_interval = 1 << 14;  // many chunk re-entries
  vm::Machine m(endless_fp_loop(), opts);
  const vm::RunResult r = m.run();
  EXPECT_EQ(r.status, vm::RunResult::Status::kDeadline);
  // The machine really executed compiled chunks before the clock fired.
  EXPECT_GT(r.instructions_retired, 1u << 14);
}

TEST(JitEngine, ChunkedSupervisionIsBitIdenticalAcrossEngines) {
  // A huge deadline forces the supervised chunking path on every engine
  // without ever firing: results must stay bit-identical to the unchunked
  // runs, proving the JIT resumes exactly from pc_/retired_ mid-program.
  for (int seed = 0; seed < 3; ++seed) {
    const lang::ProgramModel model =
        random_model(0xC41F + static_cast<std::uint64_t>(seed));
    vm::Machine::Options opts;
    opts.deadline_ns = 3'600ull * 1000 * 1000 * 1000;
    opts.deadline_check_interval = 64;  // tiny chunks: many JIT re-entries
    expect_engines_identical(
        program::relayout(lang::compile(model, lang::Mode::kDouble)), opts,
        "chunked");
  }
}

TEST(JitEngine, InjectedFaultsFireIdenticallyInCompiledCode) {
  // Sentinel and bit-flip faults mutate machine state between chunks; the
  // compiled code reads the same arrays, so the fault must be consumed at
  // the same instruction with the same diagnostic on all engines.
  for (const auto kind : {fault::VmFault::kSentinel, fault::VmFault::kBitFlip,
                          fault::VmFault::kAbort}) {
    const lang::ProgramModel model = random_model(0xFA17);
    const program::Image img =
        program::relayout(lang::compile(model, lang::Mode::kDouble));
    fault::VmFaultSpec spec;
    spec.kind = kind;
    spec.at_retired = 300;
    spec.seed = 7;
    vm::Machine::Options opts;
    opts.fault = &spec;
    expect_engines_identical(img, opts, "vm fault");
  }
}

TEST(JitEngine, DeltaReJitIsBitIdenticalToColdCompile) {
  FPMIX_REQUIRE_JIT();
  // Two configs that differ in one module: the trial builder re-uses
  // every unchanged function's CodeSegment, so the second image's JIT pass
  // links the warm blobs placed while running the first trial (unprofiled;
  // a profiled run compiles the image's flat stream instead). The
  // warm-linked image must behave bit-identically to a from-scratch
  // ExecutableImage::build + cold compile of the same bytes.
  const lang::ProgramModel model = random_model(0xDE17A, /*helpers=*/3);
  const program::Image orig =
      program::relayout(lang::compile(model, lang::Mode::kDouble));
  const auto ix = config::StructureIndex::build(program::lift(orig));
  for (const bool profile : {false, true}) {
    verify::TrialBuilder builder(orig, ix);
    config::PrecisionConfig base;  // all-double baseline
    const auto exec_a = builder.build(base).exec;
    vm::Machine::Options opts;
    opts.engine = vm::Engine::kJit;
    opts.profile = profile;
    // Warm the blob caches of every shared segment.
    run_engine(exec_a, vm::Engine::kJit, opts);

    config::PrecisionConfig delta;
    delta.set_module(0, config::Precision::kSingle);
    const auto exec_b = builder.build(delta).exec;
    std::size_t warm_segments = 0;
    for (const auto& seg : exec_b->segments()) {
      std::lock_guard<std::mutex> lock(seg->jit_cache().mu);
      warm_segments += seg->jit_cache().blob != nullptr ? 1 : 0;
    }
    if (!profile) {
      EXPECT_GT(warm_segments, 0u);
      EXPECT_LT(warm_segments, exec_b->segments().size());
    }
    const EngineOut warm_b = run_engine(exec_b, vm::Engine::kJit, opts);

    // Cold reference: identical image bytes, fresh predecode, fresh JIT.
    const auto cold_exec = vm::ExecutableImage::build(
        instrument::instrument_image(orig, ix, delta));
    const std::string what = profile ? " (profiled)" : "";
    expect_same(warm_b, run_engine(cold_exec, vm::Engine::kJit, opts),
                "warm re-JIT vs cold compile" + what);
    // And both must agree with the interpreter oracle.
    expect_same(warm_b, run_engine(cold_exec, vm::Engine::kSwitch, opts),
                "warm re-JIT vs switch oracle" + what);
  }
}

TEST(JitEngine, EnvScaledFuzzAcrossAllEngines) {
  // Deeper soak for CI: FPMIX_ENGINE_FUZZ_TRIALS scales the trial count.
  // Every trial runs original and all-single instrumented builds on all
  // available engines.
  const int trials = env_trials(6);
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = 0x17F0 + static_cast<std::uint64_t>(t) * 131;
    const lang::ProgramModel model = random_model(seed);
    const program::Image orig =
        program::relayout(lang::compile(model, lang::Mode::kDouble));
    expect_engines_identical(orig, {}, "fuzz original");

    const auto ix = config::StructureIndex::build(program::lift(orig));
    config::PrecisionConfig cfg;
    for (std::size_t m = 0; m < ix.modules().size(); ++m) {
      cfg.set_module(m, config::Precision::kSingle);
    }
    expect_engines_identical(instrument::instrument_image(orig, ix, cfg), {},
                             "fuzz instrumented");
  }
}

TEST(JitEngine, NoRegallocFallbackIsBitIdentical) {
  FPMIX_REQUIRE_JIT();
  // FPMIX_JIT_NO_REGALLOC=1 compiles every block against the pinned arrays
  // (no promotion, no fusion) -- the escape hatch and the CI fallback leg.
  // The flag is read per compile_stream call, so toggling it here affects
  // only the fresh images built inside the loop.
  ASSERT_EQ(setenv("FPMIX_JIT_NO_REGALLOC", "1", 1), 0);
  for (int seed = 0; seed < 3; ++seed) {
    const lang::ProgramModel model =
        random_model(0x90A1 + static_cast<std::uint64_t>(seed));
    const program::Image img =
        program::relayout(lang::compile(model, lang::Mode::kDouble));
    expect_engines_identical(img, {}, "no-regalloc");
    // Budget stops still hand tails to the interpreter correctly.
    vm::Machine::Options opts;
    opts.max_instructions = 500;
    expect_engines_identical(img, opts, "no-regalloc budget");
  }
  ASSERT_EQ(unsetenv("FPMIX_JIT_NO_REGALLOC"), 0);
}


// ---------------------------------------------------------------------------
// Table-linked images. A spliced ExecutableImage (what TrialBuilder builds)
// is a table over shared per-function segments, and the JIT links it by
// filling a per-image function table: calls, return addresses, falling off
// a function's end and the pcs exit and trap stubs report all go through
// that table. Each case runs the JIT over the spliced image and the
// micro-op engine over ExecutableImage::build of the same bytes, and
// demands the same status, trap text, retired count, outputs and final
// guest memory -- on plain runs, budget stops, supervised chunk re-entry
// and fault aborts (whose trap text names the pc of the chunk stop).

struct FinalState {
  vm::RunResult result;
  std::vector<double> f64;
  std::vector<std::int64_t> i64;
  std::vector<std::uint8_t> memory;
};

FinalState run_final(const std::shared_ptr<const vm::ExecutableImage>& exec,
                     vm::Engine engine, vm::Machine::Options opts) {
  opts.engine = engine;
  vm::Machine m(exec, opts);
  FinalState s;
  s.result = m.run();
  s.f64 = m.output_f64();
  s.i64 = m.output_i64();
  // Everything a program can write: all of a small memory; else the data
  // and bss sections and the top of the stack.
  const std::uint64_t size = exec->memory_size();
  if (size <= (1u << 20)) {
    s.memory = m.read_memory(0, size);
  } else {
    const program::Image& img = exec->image();
    for (const auto& [lo, len] :
         {std::pair<std::uint64_t, std::uint64_t>{img.data_base,
                                                  img.data.size()},
          {img.effective_bss_base(), img.bss_size},
          {size - (1u << 16), 1u << 16}}) {
      const std::vector<std::uint8_t> part = m.read_memory(lo, len);
      s.memory.insert(s.memory.end(), part.begin(), part.end());
    }
  }
  return s;
}

void expect_final_same(const FinalState& got, const FinalState& ref,
                       const std::string& what) {
  EXPECT_EQ(got.result.status, ref.result.status) << what;
  EXPECT_EQ(got.result.trap_message, ref.result.trap_message) << what;
  EXPECT_EQ(got.result.instructions_retired, ref.result.instructions_retired)
      << what;
  ASSERT_EQ(got.f64.size(), ref.f64.size()) << what;
  for (std::size_t i = 0; i < ref.f64.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.f64[i]),
              std::bit_cast<std::uint64_t>(ref.f64[i]))
        << what << " f64 output " << i;
  }
  EXPECT_EQ(got.i64, ref.i64) << what;
  EXPECT_TRUE(got.memory == ref.memory) << what << ": final guest memory";
}

/// The guest address a trap text names (" [pc=.. addr=0x..."), if any.
std::optional<std::uint64_t> trap_addr(const std::string& message) {
  const std::size_t at = message.find("addr=0x");
  if (at == std::string::npos) return std::nullopt;
  return std::stoull(message.substr(at + 7), nullptr, 16);
}

/// How the differential runs of one image ended, for coverage asserts.
struct SpliceCoverage {
  int halted = 0;
  int budget = 0;
  int past_end = 0;
  int later_trap = 0;  // a trap (or chunk stop) outside the first function
  int chunked = 0;
};

/// Budget of every differential run: random programs loop forever (and
/// may emit an output per iteration).
constexpr std::uint64_t kSpliceBudget = 20000;

/// Runs `spliced` on the JIT (and on the micro-op engine, which reads its
/// lazily built flat arrays) against `scratch` on the micro-op engine, with
/// the full budget, random smaller ones, tiny supervision chunks and an
/// abort fault. `full` is what the full-budget run retires.
void expect_spliced_matches_scratch(
    const std::shared_ptr<const vm::ExecutableImage>& spliced,
    const std::shared_ptr<const vm::ExecutableImage>& scratch,
    std::uint64_t full, SplitMix64* rng, const std::string& what,
    SpliceCoverage* cov) {
  const std::uint64_t second_func = spliced->segment_byte_base().at(1);
  fault::VmFaultSpec abort_spec;
  abort_spec.kind = fault::VmFault::kAbort;
  for (int run = 0; run < 6; ++run) {
    vm::Machine::Options opts;
    opts.max_instructions = kSpliceBudget;
    // Unprofiled: a profiled JIT run compiles the flat global-form stream
    // instead of linking the segments' blobs (run 5 covers that path).
    opts.profile = false;
    std::string tag = " run " + std::to_string(run);
    switch (run) {
      case 0:
        break;
      case 5:
        opts.profile = true;
        tag += " profiled";
        break;
      case 1:
      case 2:
        opts.max_instructions = 1 + rng->next_below(full + 2);
        tag += " budget " + std::to_string(opts.max_instructions);
        break;
      case 3:  // chunk re-entry: every chunk resumes mid-image
        opts.deadline_ns = 3'600ull * 1000 * 1000 * 1000;
        opts.deadline_check_interval = 1 + rng->next_below(40);
        tag += " chunk " + std::to_string(opts.deadline_check_interval);
        ++cov->chunked;
        break;
      default:  // the abort names the pc where the budget chunk stopped
        abort_spec.at_retired = 1 + rng->next_below(full + 1);
        opts.fault = &abort_spec;
        tag += " abort at " + std::to_string(abort_spec.at_retired);
        break;
    }
    const FinalState ref = run_final(scratch, vm::Engine::kMicroOp, opts);
    expect_final_same(run_final(spliced, vm::Engine::kMicroOp, opts), ref,
                      what + tag + " [spliced microop]");
    if (vm::jit::jit_supported()) {
      expect_final_same(run_final(spliced, vm::Engine::kJit, opts), ref,
                        what + tag + " [spliced jit]");
    }
    const std::string& msg = ref.result.trap_message;
    switch (ref.result.status) {
      case vm::RunResult::Status::kHalted: ++cov->halted; break;
      case vm::RunResult::Status::kOutOfBudget: ++cov->budget; break;
      default: break;
    }
    if (msg.find("past the end of the code") != std::string::npos) {
      ++cov->past_end;
    }
    const auto addr = trap_addr(msg);
    if (addr && *addr >= second_func) ++cov->later_trap;
  }
}

/// Hand-encoded multi-function program parts: what TrialBuilder splices,
/// but with shapes no lifted program has -- functions that fall off their
/// end into the next one (or off the last one), branches to a function's
/// end, empty functions, calls to any function, stray returns -- plus
/// division and memory traps and unbounded loops.
struct RawProgram {
  std::shared_ptr<program::Program> meta;
  std::vector<std::shared_ptr<const program::FuncLayout>> layouts;
};

RawProgram random_raw_program(std::uint64_t seed) {
  SplitMix64 rng(seed);
  RawProgram rp;
  rp.meta = std::make_shared<program::Program>();
  program::Program& meta = *rp.meta;
  meta.code_base = 0x1000;
  meta.data_base = 0x8000;
  meta.memory_size = 0x10000;
  constexpr std::int32_t kSlots = 32;
  for (int i = 0; i < kSlots * 8; ++i) {
    meta.data.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
  }
  const auto slot = [&] {
    return Operand::mem_abs(static_cast<std::int32_t>(meta.data_base) +
                            8 * static_cast<std::int32_t>(
                                    rng.next_below(kSlots)));
  };
  const auto gpr = [&] {
    return Operand::gpr(static_cast<std::uint8_t>(rng.next_below(6)));
  };
  const auto xmm = [&] {
    return Operand::xmm(static_cast<std::uint8_t>(rng.next_below(4)));
  };
  const std::size_t nfuncs = 2 + rng.next_below(4);
  meta.entry_function =
      static_cast<program::FuncIndex>(rng.next_below(nfuncs));
  for (std::size_t f = 0; f < nfuncs; ++f) {
    program::Function fn;
    fn.name = "f" + std::to_string(f);
    fn.module = "m" + std::to_string(f % 2);
    // Every fifth function is empty: a call to it, or a fall into it,
    // lands on the next one.
    const std::size_t len =
        rng.next_below(5) == 0 ? 0 : 1 + rng.next_below(14);
    std::vector<arch::Instr> code;
    std::vector<std::size_t> target(len, 0);  // branch: instruction index
    for (std::size_t i = 0; i < len; ++i) {
      arch::Instr ins;
      switch (rng.next_below(22)) {
        case 0: case 1:
          ins = arch::make2(Opcode::kMov, gpr(), Operand::make_imm(
              static_cast<std::int64_t>(rng.next_below(40)) - 3));
          break;
        case 2: ins = arch::make2(Opcode::kAdd, gpr(), gpr()); break;
        case 3:
          ins = arch::make2(Opcode::kSub, gpr(), Operand::make_imm(1));
          break;
        case 4: ins = arch::make2(Opcode::kImul, gpr(), gpr()); break;
        case 5: ins = arch::make2(Opcode::kIdiv, gpr(), gpr()); break;
        case 6:
          ins = rng.next_below(2) == 0
                    ? arch::make2(Opcode::kCmp, gpr(), gpr())
                    : arch::make2(Opcode::kCmp, gpr(), Operand::make_imm(3));
          break;
        case 7: ins = arch::make2(Opcode::kLoad, gpr(), slot()); break;
        case 8:  // base + disp: out of bounds whenever the sum is
          ins = arch::make2(
              Opcode::kLoad, gpr(),
              Operand::mem_bd(static_cast<std::uint8_t>(rng.next_below(6)),
                              static_cast<std::int32_t>(
                                  rng.next_below(0x12000))));
          break;
        case 9: ins = arch::make2(Opcode::kStore, slot(), gpr()); break;
        case 10: ins = arch::make2(Opcode::kCvtsi2sd, xmm(), gpr()); break;
        case 11: ins = arch::make2(Opcode::kAddsd, xmm(), xmm()); break;
        case 12: ins = arch::make2(Opcode::kMulsd, xmm(), slot()); break;
        case 13: ins = arch::make2(Opcode::kMovsdMX, slot(), xmm()); break;
        case 14:
          ins = arch::make2(
              Opcode::kIntrin, Operand::none(),
              Operand::make_imm(static_cast<std::int64_t>(
                  rng.next_below(2) == 0 ? in::Id::kOutputF64
                                         : in::Id::kOutputI64)));
          break;
        case 15: case 16: {
          static constexpr Opcode kJcc[] = {Opcode::kJe, Opcode::kJne,
                                            Opcode::kJl, Opcode::kJge,
                                            Opcode::kJb, Opcode::kJa};
          ins = arch::make2(kJcc[rng.next_below(6)], Operand::none(),
                            Operand::make_imm(0));
          target[i] = rng.next_below(len + 1);  // len: the function's end
          break;
        }
        case 17:
          ins = arch::make2(Opcode::kJmp, Operand::none(),
                            Operand::make_imm(0));
          target[i] = rng.next_below(len + 1);
          break;
        case 18:
          ins = arch::make2(Opcode::kCall, Operand::none(),
                            Operand::make_imm(static_cast<std::int64_t>(
                                rng.next_below(nfuncs))));
          break;
        case 19:
          ins = arch::make1(rng.next_below(2) == 0 ? Opcode::kPush
                                                   : Opcode::kPop,
                            gpr());
          break;
        case 20: ins = arch::make0(Opcode::kRet); break;
        default:
          ins = rng.next_below(3) == 0 ? arch::make0(Opcode::kHalt)
                                       : arch::make2(Opcode::kMovqXR, xmm(),
                                                     gpr());
          break;
      }
      code.push_back(ins);
    }
    // Encode with local branch targets (byte offsets) and callee indices,
    // exactly as layout_function leaves them for assemble.
    std::vector<std::uint32_t> off(len + 1, 0);
    for (std::size_t i = 0; i < len; ++i) {
      off[i + 1] = off[i] + arch::encoded_size(code[i]);
    }
    auto layout = std::make_shared<program::FuncLayout>();
    layout->name = fn.name;
    layout->module = fn.module;
    for (std::size_t i = 0; i < len; ++i) {
      arch::Instr ins = code[i];
      const auto& info = arch::opcode_info(ins.op);
      if (info.is_branch) {
        ins.src.imm = off[target[i]];
        layout->relocs.push_back({off[i + 1] - 8, off[target[i]], false});
      } else if (info.is_call) {
        layout->relocs.push_back(
            {off[i + 1] - 8, static_cast<std::uint64_t>(ins.src.imm), true});
      }
      arch::encode(ins, &layout->bytes);
    }
    meta.functions.push_back(std::move(fn));
    rp.layouts.push_back(std::move(layout));
  }
  return rp;
}

/// Builds `what` through `build`, or returns the error text it throws.
template <typename Build>
std::string build_or_error(const Build& build,
                           std::shared_ptr<const vm::ExecutableImage>* out) {
  try {
    *out = build();
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

TEST(EngineDiff, SplicedImagesMatchScratchOnRawSegments) {
  SplitMix64 rng(0x7AB1E);
  SpliceCoverage cov;
  int built = 0;
  int rejected = 0;
  for (int p = 0; p < 300; ++p) {
    const RawProgram rp = random_raw_program(0x5E6 + 7919 * p);
    const std::string what = "raw program " + std::to_string(p);
    std::vector<std::shared_ptr<const vm::CodeSegment>> segs;
    std::vector<const program::FuncLayout*> ptrs;
    for (const auto& l : rp.layouts) {
      segs.push_back(vm::CodeSegment::build(*l));
      ptrs.push_back(l.get());
    }
    std::shared_ptr<const vm::ExecutableImage> scratch;
    std::shared_ptr<const vm::ExecutableImage> spliced;
    const std::string scratch_err = build_or_error(
        [&] {
          return vm::ExecutableImage::build(program::assemble(*rp.meta, ptrs));
        },
        &scratch);
    const std::string spliced_err = build_or_error(
        [&] {
          return vm::ExecutableImage::build_spliced(rp.meta, rp.layouts, segs);
        },
        &spliced);
    // Both reject the same images, with the same text.
    ASSERT_EQ(spliced_err, scratch_err) << what;
    if (!scratch_err.empty()) {
      ++rejected;
      continue;
    }
    ++built;
    ASSERT_EQ(spliced->instruction_count(), scratch->instruction_count());
    EXPECT_EQ(spliced->entry_index(), scratch->entry_index()) << what;
    for (std::size_t pc = 0; pc < scratch->instruction_count(); ++pc) {
      const arch::Instr& want = scratch->code()[pc];
      const arch::Instr got = spliced->instr_at(pc);
      EXPECT_TRUE(got == want && got.addr == want.addr) << what << " pc " << pc;
      EXPECT_EQ(spliced->index_of(want.addr), pc) << what;
      EXPECT_EQ(spliced->index_of(want.addr + 1), vm::ExecutableImage::kNoIndex)
          << what;
    }
    vm::Machine::Options full_opts;
    full_opts.max_instructions = kSpliceBudget;
    const FinalState full = run_final(scratch, vm::Engine::kMicroOp, full_opts);
    expect_spliced_matches_scratch(spliced, scratch,
                                   full.result.instructions_retired, &rng,
                                   what, &cov);
  }
  // Enough of every shape ran that the comparisons above mean something.
  EXPECT_GT(built, 150);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(cov.halted, 20);
  EXPECT_GT(cov.budget, 20);
  EXPECT_GT(cov.past_end, 5);
  EXPECT_GT(cov.later_trap, 20);
}

TEST(EngineDiff, TrialBuilderImagesOnJitMatchScratchMicroOp) {
  // Multi-function fuzzed programs through the real TrialBuilder: random
  // and neighbouring configs, so images splice fresh and shared segments
  // (and their blobs) at every position.
  SplitMix64 rng(0x7B1D);
  SpliceCoverage cov;
  for (int p = 0; p < 6; ++p) {
    const program::Image orig = program::relayout(lang::compile(
        random_model(0x5B11CE + static_cast<std::uint64_t>(p),
                     /*helpers=*/2 + p % 3),
        lang::Mode::kDouble));
    const auto ix = config::StructureIndex::build(program::lift(orig));
    verify::TrialBuilder builder(orig, ix);
    config::PrecisionConfig cfg;
    for (int step = 0; step < 10; ++step) {
      const std::size_t flags = 1 + rng.next_below(3);
      for (std::size_t k = 0; k < flags; ++k) {
        const auto prec = rng.next_below(3) == 0 ? config::Precision::kDouble
                                                 : config::Precision::kSingle;
        if (rng.next_below(2) == 0) {
          cfg.set_func(rng.next_below(ix.funcs().size()), prec);
        } else {
          cfg.set_instr(rng.next_below(ix.instrs().size()), prec);
        }
      }
      const std::string what = "program " + std::to_string(p) + " step " +
                               std::to_string(step) + " " +
                               cfg.canonical_key();
      const auto spliced = builder.build(cfg).exec;
      const auto scratch = vm::ExecutableImage::build(
          instrument::instrument_image(orig, ix, cfg));
      ASSERT_GT(spliced->segments().size(), 1u) << what;
      vm::Machine::Options full_opts;
      full_opts.max_instructions = kSpliceBudget;
      const FinalState full =
          run_final(scratch, vm::Engine::kMicroOp, full_opts);
      expect_spliced_matches_scratch(spliced, scratch,
                                     full.result.instructions_retired, &rng,
                                     what, &cov);
    }
  }
  EXPECT_GT(cov.halted, 10);
  EXPECT_GT(cov.budget, 10);
  EXPECT_GT(cov.later_trap, 10);
}

// ---------------------------------------------------------------------------
// Trial identity. The search keys a trial by search::trial_key, the digest
// of the config's effective config: the instruction-level config flagging
// exactly the instructions whose signature entry is not 'd'. A failing
// unit's child with its parent's candidate set then commits from the
// parent's verdict, so the key must never merge two configs whose images
// differ, nor split two whose images are the same.

/// The configs the search pushes as units on `ix`, named by kind: every
/// module, function and block with candidates, and the two halves of a
/// function's blocks with candidates (a func-part) and of a block's
/// candidates (a block-part) wherever there are two to split.
std::vector<std::pair<std::string, config::PrecisionConfig>> unit_configs(
    const config::StructureIndex& ix) {
  const config::Precision single = config::Precision::kSingle;
  std::vector<std::pair<std::string, config::PrecisionConfig>> out;
  const auto halves = [&](const char* kind,
                          const std::vector<std::size_t>& ids,
                          const auto& flag) {
    if (ids.size() < 2) return;
    const std::size_t half = ids.size() / 2;
    for (const auto& [lo, hi] : {std::pair{std::size_t{0}, half},
                                 std::pair{half, ids.size()}}) {
      config::PrecisionConfig cfg;
      for (std::size_t k = lo; k < hi; ++k) flag(&cfg, ids[k]);
      out.emplace_back(kind, std::move(cfg));
    }
  };
  for (std::size_t m = 0; m < ix.modules().size(); ++m) {
    if (ix.modules()[m].candidates.empty()) continue;
    config::PrecisionConfig cfg;
    cfg.set_module(m, single);
    out.emplace_back("module", std::move(cfg));
  }
  for (std::size_t f = 0; f < ix.funcs().size(); ++f) {
    if (ix.funcs()[f].candidates.empty()) continue;
    config::PrecisionConfig cfg;
    cfg.set_func(f, single);
    out.emplace_back("function", std::move(cfg));
    std::vector<std::size_t> useful;
    for (std::size_t b : ix.funcs()[f].blocks) {
      if (!ix.blocks()[b].candidates.empty()) useful.push_back(b);
    }
    halves("func-part", useful, [&](config::PrecisionConfig* c,
                                    std::size_t b) { c->set_block(b, single); });
  }
  for (std::size_t b = 0; b < ix.blocks().size(); ++b) {
    if (ix.blocks()[b].candidates.empty()) continue;
    config::PrecisionConfig cfg;
    cfg.set_block(b, single);
    out.emplace_back("block", std::move(cfg));
    halves("block-part", ix.blocks()[b].candidates,
           [&](config::PrecisionConfig* c, std::size_t i) {
             c->set_instr(i, single);
           });
  }
  return out;
}

TEST(TrialKey, UnitsBuildTheImageOfTheirEffectiveConfig) {
  // Every unit kind the search pushes, on multi-function fuzzed programs:
  // the unit's config and its effective config share a key and signature
  // vector, instrument() writes the same bytes for both, and TrialBuilder's
  // images of both run bit-identically to the one-shot image on the
  // micro-op engine and the JIT.
  std::map<std::string, std::size_t> kinds;
  for (int p = 0; p < 4; ++p) {
    const program::Image orig = program::relayout(lang::compile(
        random_model(0x7E41 + static_cast<std::uint64_t>(p),
                     /*helpers=*/2 + p % 3),
        lang::Mode::kDouble));
    const auto ix = config::StructureIndex::build(program::lift(orig));
    verify::TrialBuilder builder(orig, ix);
    for (const auto& [kind, cfg] : unit_configs(ix)) {
      ++kinds[kind];
      const config::PrecisionConfig eff = cfg.effective(ix);
      const std::string what = "program " + std::to_string(p) + " " + kind +
                               " " + cfg.canonical_key();
      ASSERT_EQ(search::trial_key(ix, cfg), hex_digest(eff.stable_hash()))
          << what;
      ASSERT_EQ(search::trial_key(ix, eff), search::trial_key(ix, cfg))
          << what;
      ASSERT_EQ(builder.signatures(eff), builder.signatures(cfg)) << what;

      const program::Image scratch =
          instrument::instrument_image(orig, ix, cfg);
      const program::Image scratch_eff =
          instrument::instrument_image(orig, ix, eff);
      EXPECT_EQ(scratch_eff.code, scratch.code) << what;
      EXPECT_EQ(scratch_eff.data, scratch.data) << what;
      const auto built = builder.build(cfg).exec;
      const auto built_eff = builder.build(eff).exec;
      EXPECT_EQ(built->image().code, scratch.code) << what;
      EXPECT_EQ(built_eff->image().code, scratch.code) << what;

      vm::Machine::Options opts;
      opts.max_instructions = kSpliceBudget;
      opts.profile = false;  // the table-linked JIT path trials take
      const FinalState ref = run_final(vm::ExecutableImage::build(scratch),
                                       vm::Engine::kMicroOp, opts);
      std::vector<vm::Engine> engines{vm::Engine::kMicroOp};
      if (vm::jit::jit_supported()) engines.push_back(vm::Engine::kJit);
      for (const vm::Engine engine : engines) {
        const std::string tag =
            engine == vm::Engine::kJit ? " [jit]" : " [microop]";
        expect_final_same(run_final(built, engine, opts), ref, what + tag);
        expect_final_same(run_final(built_eff, engine, opts), ref,
                          what + " effective" + tag);
      }
    }
  }
  for (const char* kind :
       {"module", "function", "func-part", "block", "block-part"}) {
    EXPECT_GT(kinds[kind], 0u) << kind;
  }
}

TEST(TrialKey, KeysAreEqualExactlyWhenSignaturesAre) {
  // Random configs with single, double and ignore flags at every level,
  // paired with a neighbour that is often spelled differently but builds
  // the same image (an overridden flag, single on a non-candidate, a module
  // flag spread over its functions) and often does not.
  std::size_t equal = 0;
  std::size_t differ = 0;
  for (int p = 0; p < 3; ++p) {
    const program::Image orig = program::relayout(lang::compile(
        random_model(0x5E7 + static_cast<std::uint64_t>(p), /*helpers=*/3),
        lang::Mode::kDouble));
    const auto ix = config::StructureIndex::build(program::lift(orig));
    const verify::TrialBuilder builder(orig, ix);
    SplitMix64 rng(0x6E7 + static_cast<std::uint64_t>(p));
    const auto prec = [&] {
      return static_cast<config::Precision>(rng.next_below(3));
    };
    const auto random_flag = [&](config::PrecisionConfig* cfg) {
      switch (rng.next_below(4)) {
        case 0: cfg->set_module(rng.next_below(ix.modules().size()), prec());
          break;
        case 1: cfg->set_func(rng.next_below(ix.funcs().size()), prec());
          break;
        case 2: cfg->set_block(rng.next_below(ix.blocks().size()), prec());
          break;
        default: cfg->set_instr(rng.next_below(ix.instrs().size()), prec());
          break;
      }
    };
    for (int step = 0; step < 300; ++step) {
      config::PrecisionConfig a;
      const std::size_t flags = 1 + rng.next_below(4);
      for (std::size_t k = 0; k < flags; ++k) random_flag(&a);
      config::PrecisionConfig b = a;
      const std::size_t i = rng.next_below(ix.instrs().size());
      switch (step % 4) {
        case 0:  // single on an instruction: a no-op on a non-candidate
          b.set_instr(i, config::Precision::kSingle);
          break;
        case 1: {  // an instruction flag under its module's flag
          const std::size_t m = ix.funcs()[ix.instrs()[i].func].module;
          const config::Precision q = prec();
          a.set_module(m, q);
          b.set_module(m, q);
          b.set_instr(i, prec());
          break;
        }
        case 2: {  // a module flag, or the same flag on each function
          const std::size_t m = rng.next_below(ix.modules().size());
          const config::Precision q = prec();
          a.set_module(m, q);
          b.set_module(m, std::nullopt);
          for (std::size_t f : ix.modules()[m].funcs) b.set_func(f, q);
          break;
        }
        default:
          random_flag(&b);
          break;
      }
      const bool same_key = search::trial_key(ix, a) == search::trial_key(ix, b);
      const bool same_sigs = builder.signatures(a) == builder.signatures(b);
      ASSERT_EQ(same_key, same_sigs)
          << "program " << p << " step " << step << ": "
          << a.canonical_key() << " vs " << b.canonical_key();
      ++(same_sigs ? equal : differ);
    }
  }
  EXPECT_GT(equal, 100u);
  EXPECT_GT(differ, 100u);
}

}  // namespace
}  // namespace fpmix
