// Tests for the virtual machine: arithmetic semantics (bit-exact vs host
// IEEE), control flow, stack discipline, traps, profiling, intrinsics and
// the mini-MPI runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>

#include "arch/encode.hpp"
#include "arch/tag.hpp"
#include "asm/assembler.hpp"
#include "program/layout.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "vm/exec_image.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"

namespace fpmix {
namespace {

using arch::Opcode;
using arch::Operand;
namespace in = arch::intrinsics;

// Builds, lays out, runs; returns the machine for inspection.
struct RunOutcome {
  vm::RunResult result;
  std::vector<double> out;
  std::uint64_t retired = 0;
};

RunOutcome run_program(const program::Program& prog,
                       vm::Machine::Options opts = {}) {
  const program::Image img = program::relayout(prog);
  vm::Machine m(img, opts);
  RunOutcome o;
  o.result = m.run();
  o.out = m.output_f64();
  o.retired = m.instructions_retired();
  return o;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic matches host IEEE semantics bit-for-bit.

class ScalarArithSweep
    : public ::testing::TestWithParam<std::tuple<Opcode, int>> {};

TEST_P(ScalarArithSweep, MatchesHost) {
  const auto [op, seed] = GetParam();
  SplitMix64 rng(0xAB54 + static_cast<std::uint64_t>(seed));
  for (int trial = 0; trial < 25; ++trial) {
    const double a = rng.next_double(-100.0, 100.0);
    double b = rng.next_double(-100.0, 100.0);
    if (op == Opcode::kDivsd && std::fabs(b) < 1e-6) b = 1.5;

    casm::Assembler as;
    as.begin_function("main", "main");
    const auto da = as.data_f64(a);
    const auto db = as.data_f64(b);
    as.emit(Opcode::kMovsdXM, Operand::xmm(0),
            Operand::mem_abs(static_cast<std::int32_t>(da)));
    as.emit(Opcode::kMovsdXM, Operand::xmm(1),
            Operand::mem_abs(static_cast<std::int32_t>(db)));
    as.emit(op, Operand::xmm(0), Operand::xmm(1));
    as.intrin(in::Id::kOutputF64);
    as.halt();
    as.end_function();

    const RunOutcome o = run_program(as.finish("main"));
    ASSERT_TRUE(o.result.ok()) << o.result.trap_message;
    ASSERT_EQ(o.out.size(), 1u);

    double expect = 0;
    switch (op) {
      case Opcode::kAddsd: expect = a + b; break;
      case Opcode::kSubsd: expect = a - b; break;
      case Opcode::kMulsd: expect = a * b; break;
      case Opcode::kDivsd: expect = a / b; break;
      case Opcode::kMinsd: expect = b < a ? b : a; break;
      case Opcode::kMaxsd: expect = a < b ? b : a; break;
      default: FAIL();
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(o.out[0]),
              std::bit_cast<std::uint64_t>(expect))
        << arch::opcode_name(op) << "(" << a << ", " << b << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ScalarArithSweep,
    ::testing::Combine(::testing::Values(Opcode::kAddsd, Opcode::kSubsd,
                                         Opcode::kMulsd, Opcode::kDivsd,
                                         Opcode::kMinsd, Opcode::kMaxsd),
                       ::testing::Range(0, 3)));

TEST(Vm, SqrtAndConversions) {
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto d = as.data_f64(2.25);
  as.emit(Opcode::kMovsdXM, Operand::xmm(1),
          Operand::mem_abs(static_cast<std::int32_t>(d)));
  as.emit(Opcode::kSqrtsd, Operand::xmm(0), Operand::xmm(1));
  as.intrin(in::Id::kOutputF64);                      // 1.5
  as.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(-7));
  as.emit(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(1));
  as.intrin(in::Id::kOutputF64);                      // -7.0
  as.emit(Opcode::kCvttsd2si, Operand::gpr(2), Operand::xmm(1));  // 2
  as.emit(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(2));
  as.intrin(in::Id::kOutputF64);                      // 2.0
  // Round-trip through single precision: 1/3 loses bits.
  const auto t = as.data_f64(1.0 / 3.0);
  as.emit(Opcode::kMovsdXM, Operand::xmm(3),
          Operand::mem_abs(static_cast<std::int32_t>(t)));
  as.emit(Opcode::kCvtsd2ss, Operand::xmm(4), Operand::xmm(3));
  as.emit(Opcode::kCvtss2sd, Operand::xmm(0), Operand::xmm(4));
  as.intrin(in::Id::kOutputF64);
  as.halt();
  as.end_function();

  const RunOutcome o = run_program(as.finish("main"));
  ASSERT_TRUE(o.result.ok()) << o.result.trap_message;
  ASSERT_EQ(o.out.size(), 4u);
  EXPECT_EQ(o.out[0], 1.5);
  EXPECT_EQ(o.out[1], -7.0);
  EXPECT_EQ(o.out[2], 2.0);
  EXPECT_EQ(o.out[3], static_cast<double>(static_cast<float>(1.0 / 3.0)));
}

TEST(Vm, PackedArithmetic) {
  casm::Assembler as;
  as.begin_function("main", "main");
  const auto a0 = as.data_f64(1.5);
  as.data_f64(2.5);  // contiguous pair
  const auto b0 = as.data_f64(10.0);
  as.data_f64(20.0);
  as.emit(Opcode::kMovapdXM, Operand::xmm(0),
          Operand::mem_abs(static_cast<std::int32_t>(a0)));
  as.emit(Opcode::kMovapdXM, Operand::xmm(1),
          Operand::mem_abs(static_cast<std::int32_t>(b0)));
  as.emit(Opcode::kMulpd, Operand::xmm(0), Operand::xmm(1));
  as.intrin(in::Id::kOutputF64);  // lane 0 = 15
  // Move lane1 to lane0 via memory.
  const auto tmp = as.reserve_bss(16, 16);
  as.emit(Opcode::kMovapdMX, Operand::mem_abs(static_cast<std::int32_t>(tmp)),
          Operand::xmm(0));
  as.emit(Opcode::kMovsdXM, Operand::xmm(0),
          Operand::mem_abs(static_cast<std::int32_t>(tmp + 8)));
  as.intrin(in::Id::kOutputF64);  // lane 1 = 50
  as.halt();
  as.end_function();

  const RunOutcome o = run_program(as.finish("main"));
  ASSERT_TRUE(o.result.ok()) << o.result.trap_message;
  ASSERT_EQ(o.out.size(), 2u);
  EXPECT_EQ(o.out[0], 15.0);
  EXPECT_EQ(o.out[1], 50.0);
}

// ---------------------------------------------------------------------------
// Control flow, calls, stack.

TEST(Vm, LoopAndCall) {
  // Computes sum_{i=1..10} i^2 = 385 via a helper call (also exercised by
  // program_test's sample; here we check the numeric outcome).
  casm::Assembler a;
  a.begin_function("square", "libmath");
  a.emit(Opcode::kMulsd, Operand::xmm(0), Operand::xmm(0));
  a.ret();
  a.end_function();
  a.begin_function("main", "main");
  const std::uint64_t acc = a.reserve_bss(8);
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(1));
  auto loop = a.new_label();
  auto done = a.new_label();
  a.bind(loop);
  a.emit(Opcode::kCmp, Operand::gpr(1), Operand::make_imm(10));
  a.jg(done);
  a.emit(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(1));
  a.call("square");
  a.emit(Opcode::kMovsdXM, Operand::xmm(1),
         Operand::mem_abs(static_cast<std::int32_t>(acc)));
  a.emit(Opcode::kAddsd, Operand::xmm(1), Operand::xmm(0));
  a.emit(Opcode::kMovsdMX, Operand::mem_abs(static_cast<std::int32_t>(acc)),
         Operand::xmm(1));
  a.emit(Opcode::kAdd, Operand::gpr(1), Operand::make_imm(1));
  a.jmp(loop);
  a.bind(done);
  a.emit(Opcode::kMovsdXM, Operand::xmm(0),
         Operand::mem_abs(static_cast<std::int32_t>(acc)));
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();

  const RunOutcome o = run_program(a.finish("main"));
  ASSERT_TRUE(o.result.ok()) << o.result.trap_message;
  ASSERT_EQ(o.out.size(), 1u);
  EXPECT_EQ(o.out[0], 385.0);
}

TEST(Vm, PushPopAndXmmStack) {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(111));
  a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(222));
  a.emit(Opcode::kPush, Operand::gpr(1));
  a.emit(Opcode::kPush, Operand::gpr(2));
  a.emit(Opcode::kPop, Operand::gpr(3));   // 222
  a.emit(Opcode::kPop, Operand::gpr(4));   // 111
  a.emit(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(3));
  a.intrin(in::Id::kOutputF64);
  a.emit(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(4));
  a.intrin(in::Id::kOutputF64);
  // XMM save/restore (the snippet prologue/epilogue mechanism).
  const auto c = a.data_f64(7.5);
  a.emit(Opcode::kMovsdXM, Operand::xmm(5),
         Operand::mem_abs(static_cast<std::int32_t>(c)));
  a.emit(Opcode::kPushX, Operand::xmm(5));
  a.emit(Opcode::kXorpd, Operand::xmm(5), Operand::xmm(5));  // clobber
  a.emit(Opcode::kPopX, Operand::xmm(5));
  a.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(5));
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();

  const RunOutcome o = run_program(a.finish("main"));
  ASSERT_TRUE(o.result.ok()) << o.result.trap_message;
  ASSERT_EQ(o.out.size(), 3u);
  EXPECT_EQ(o.out[0], 222.0);
  EXPECT_EQ(o.out[1], 111.0);
  EXPECT_EQ(o.out[2], 7.5);
}

TEST(Vm, IntegerOps) {
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto emit_out = [&] {
    a.emit(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(1));
    a.intrin(in::Id::kOutputF64);
  };
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(17));
  a.emit(Opcode::kImul, Operand::gpr(1), Operand::make_imm(-3));  // -51
  emit_out();
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(-17));
  a.emit(Opcode::kIdiv, Operand::gpr(1), Operand::make_imm(5));   // -3
  emit_out();
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(-17));
  a.emit(Opcode::kIrem, Operand::gpr(1), Operand::make_imm(5));   // -2
  emit_out();
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(0xF0));
  a.emit(Opcode::kShr, Operand::gpr(1), Operand::make_imm(4));    // 0xF
  emit_out();
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(-16));
  a.emit(Opcode::kSar, Operand::gpr(1), Operand::make_imm(2));    // -4
  emit_out();
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(0b1100));
  a.emit(Opcode::kAnd, Operand::gpr(1), Operand::make_imm(0b1010)); // 8
  emit_out();
  a.halt();
  a.end_function();

  const RunOutcome o = run_program(a.finish("main"));
  ASSERT_TRUE(o.result.ok()) << o.result.trap_message;
  const std::vector<double> expect = {-51, -3, -2, 15, -4, 8};
  ASSERT_EQ(o.out.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(o.out[i], expect[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Traps.

TEST(VmTrap, DivideByZero) {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(5));
  a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(0));
  a.emit(Opcode::kIdiv, Operand::gpr(1), Operand::gpr(2));
  a.halt();
  a.end_function();
  const RunOutcome o = run_program(a.finish("main"));
  EXPECT_EQ(o.result.status, vm::RunResult::Status::kTrapped);
  EXPECT_NE(o.result.trap_message.find("division by zero"),
            std::string::npos);
}

TEST(VmTrap, OutOfBoundsAccess) {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(1ll << 40));
  a.emit(Opcode::kLoad, Operand::gpr(2), Operand::mem_bd(1, 0));
  a.halt();
  a.end_function();
  const RunOutcome o = run_program(a.finish("main"));
  EXPECT_EQ(o.result.status, vm::RunResult::Status::kTrapped);
}

TEST(VmTrap, InstructionBudget) {
  casm::Assembler a;
  a.begin_function("main", "main");
  auto l = a.new_label();
  a.bind(l);
  a.emit(Opcode::kNop);
  a.jmp(l);
  a.end_function();
  vm::Machine::Options opts;
  opts.max_instructions = 10'000;
  const RunOutcome o = run_program(a.finish("main"), opts);
  EXPECT_EQ(o.result.status, vm::RunResult::Status::kOutOfBudget);
  EXPECT_LE(o.retired, 10'000u);
}

TEST(VmTrap, TaggedValueConsumedByDoubleOp) {
  // Store a replaced-double sentinel and feed it to addsd: the machine must
  // stop with the escape diagnostic (the paper's crash-on-miss property).
  casm::Assembler a;
  a.begin_function("main", "main");
  const std::uint64_t boxed = arch::make_tagged(1.0f);
  a.emit(Opcode::kMov, Operand::gpr(1),
         Operand::make_imm(static_cast<std::int64_t>(boxed)));
  a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(1));
  a.emit(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(0));
  a.halt();
  a.end_function();
  const RunOutcome o = run_program(a.finish("main"));
  EXPECT_EQ(o.result.status, vm::RunResult::Status::kTrapped);
  EXPECT_NE(o.result.trap_message.find("replaced-double sentinel"),
            std::string::npos);
}

TEST(VmTrap, TaggedEscapeToOutput) {
  casm::Assembler a;
  a.begin_function("main", "main");
  const std::uint64_t boxed = arch::make_tagged(1.0f);
  a.emit(Opcode::kMov, Operand::gpr(1),
         Operand::make_imm(static_cast<std::int64_t>(boxed)));
  a.emit(Opcode::kMovqXR, Operand::xmm(0), Operand::gpr(1));
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();
  const RunOutcome o = run_program(a.finish("main"));
  EXPECT_EQ(o.result.status, vm::RunResult::Status::kTrapped);
}

TEST(VmTrap, TagTrapCanBeDisabled) {
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
  const RunOutcome o = run_program(a.finish("main"), opts);
  EXPECT_TRUE(o.result.ok());
}

// ---------------------------------------------------------------------------
// Intrinsics.

TEST(Vm, MathIntrinsics) {
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto x = a.data_f64(0.5);
  const auto ld = [&] {
    a.emit(Opcode::kMovsdXM, Operand::xmm(0),
           Operand::mem_abs(static_cast<std::int32_t>(x)));
  };
  for (in::Id id : {in::Id::kSin, in::Id::kCos, in::Id::kExp, in::Id::kLog,
                    in::Id::kFloor, in::Id::kFabs}) {
    ld();
    a.intrin(id);
    a.intrin(in::Id::kOutputF64);
  }
  ld();
  a.emit(Opcode::kMovsdXX, Operand::xmm(1), Operand::xmm(0));
  a.intrin(in::Id::kPow);
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();

  const RunOutcome o = run_program(a.finish("main"));
  ASSERT_TRUE(o.result.ok()) << o.result.trap_message;
  ASSERT_EQ(o.out.size(), 7u);
  EXPECT_EQ(o.out[0], std::sin(0.5));
  EXPECT_EQ(o.out[1], std::cos(0.5));
  EXPECT_EQ(o.out[2], std::exp(0.5));
  EXPECT_EQ(o.out[3], std::log(0.5));
  EXPECT_EQ(o.out[4], 0.0);
  EXPECT_EQ(o.out[5], 0.5);
  EXPECT_EQ(o.out[6], std::pow(0.5, 0.5));
}

TEST(Vm, F32IntrinsicTwinsRoundOnce) {
  // sinf32(x) must equal (float)sin((double)x) bit-for-bit.
  casm::Assembler a;
  a.begin_function("main", "main");
  const float xf = 0.7f;
  const auto xbits = a.data_i64(static_cast<std::int64_t>(
      std::bit_cast<std::uint32_t>(xf)));
  a.emit(Opcode::kMovssXM, Operand::xmm(0),
         Operand::mem_abs(static_cast<std::int32_t>(xbits)));
  a.intrin(in::Id::kSinF32);
  a.emit(Opcode::kCvtss2sd, Operand::xmm(0), Operand::xmm(0));
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();

  const RunOutcome o = run_program(a.finish("main"));
  ASSERT_TRUE(o.result.ok()) << o.result.trap_message;
  ASSERT_EQ(o.out.size(), 1u);
  const float expect = static_cast<float>(std::sin(static_cast<double>(xf)));
  EXPECT_EQ(o.out[0], static_cast<double>(expect));
}

// ---------------------------------------------------------------------------
// Profiling.

TEST(Vm, ProfileCountsLoopIterations) {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(0));
  auto loop = a.new_label();
  auto done = a.new_label();
  a.bind(loop);
  a.emit(Opcode::kCmp, Operand::gpr(1), Operand::make_imm(50));
  a.jge(done);
  a.emit(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(0));  // the hot instr
  a.emit(Opcode::kAdd, Operand::gpr(1), Operand::make_imm(1));
  a.jmp(loop);
  a.bind(done);
  a.halt();
  a.end_function();

  const program::Image img = program::relayout(a.finish("main"));
  vm::Machine m(img);
  ASSERT_TRUE(m.run().ok());
  const auto prof = m.profile_by_address();
  // Find the addsd: it must have executed exactly 50 times.
  const auto instrs = arch::decode_all(img.code, img.code_base);
  std::uint64_t addsd_count = 0;
  for (const auto& ins : instrs) {
    if (ins.op == Opcode::kAddsd) addsd_count = prof.at(ins.addr);
  }
  EXPECT_EQ(addsd_count, 50u);
}

// ---------------------------------------------------------------------------
// Mini-MPI.

TEST(MiniMpi, AllreduceAcrossRanks) {
  // Each rank contributes rank+1; the sum must be n(n+1)/2 on every rank.
  casm::Assembler a;
  a.begin_function("main", "main");
  a.intrin(in::Id::kMpiRank);
  a.emit(Opcode::kAdd, Operand::gpr(0), Operand::make_imm(1));
  a.emit(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(0));
  a.intrin(in::Id::kMpiAllreduceSum);
  a.intrin(in::Id::kOutputF64);
  a.intrin(in::Id::kMpiAllreduceMax);
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));

  const int kRanks = 4;
  vm::MiniMpi mpi(kRanks);
  std::vector<std::unique_ptr<vm::Machine>> machines;
  for (int r = 0; r < kRanks; ++r) {
    vm::Machine::Options opts;
    opts.mpi = &mpi;
    opts.rank = r;
    machines.push_back(std::make_unique<vm::Machine>(img, opts));
  }
  std::vector<std::thread> threads;
  std::vector<vm::RunResult> results(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] { results[r] = machines[r]->run(); });
  }
  for (auto& t : threads) t.join();

  for (int r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(results[r].ok()) << results[r].trap_message;
    ASSERT_EQ(machines[r]->output_f64().size(), 2u);
    EXPECT_EQ(machines[r]->output_f64()[0], 10.0);  // 1+2+3+4
    EXPECT_EQ(machines[r]->output_f64()[1], 10.0);  // max of identical sums
  }
}

TEST(MiniMpi, VectorAllreduce) {
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto buf = a.reserve_bss(3 * 8, 8);
  // buf[i] = rank * 10 + i
  a.intrin(in::Id::kMpiRank);
  a.emit(Opcode::kImul, Operand::gpr(0), Operand::make_imm(10));
  for (int i = 0; i < 3; ++i) {
    a.emit(Opcode::kMov, Operand::gpr(1), Operand::gpr(0));
    a.emit(Opcode::kAdd, Operand::gpr(1), Operand::make_imm(i));
    a.emit(Opcode::kCvtsi2sd, Operand::xmm(0), Operand::gpr(1));
    a.emit(Opcode::kMovsdMX,
           Operand::mem_abs(static_cast<std::int32_t>(buf + 8 * i)),
           Operand::xmm(0));
  }
  a.emit(Opcode::kMov, Operand::gpr(1),
         Operand::make_imm(static_cast<std::int64_t>(buf)));
  a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(3));
  a.intrin(in::Id::kMpiAllreduceVec);
  for (int i = 0; i < 3; ++i) {
    a.emit(Opcode::kMovsdXM, Operand::xmm(0),
           Operand::mem_abs(static_cast<std::int32_t>(buf + 8 * i)));
    a.intrin(in::Id::kOutputF64);
  }
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));

  const int kRanks = 3;
  vm::MiniMpi mpi(kRanks);
  std::vector<std::unique_ptr<vm::Machine>> machines;
  std::vector<std::thread> threads;
  std::vector<vm::RunResult> results(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    vm::Machine::Options opts;
    opts.mpi = &mpi;
    opts.rank = r;
    machines.push_back(std::make_unique<vm::Machine>(img, opts));
  }
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] { results[r] = machines[r]->run(); });
  }
  for (auto& t : threads) t.join();

  // Sum over ranks of (10r + i) = 30 + 3i for i in 0..2 with ranks 0,1,2.
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_TRUE(results[r].ok()) << results[r].trap_message;
    const auto& out = machines[r]->output_f64();
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 30.0);
    EXPECT_EQ(out[1], 33.0);
    EXPECT_EQ(out[2], 36.0);
  }
}

TEST(MiniMpi, BarrierDoesNotDeadlock) {
  const int kRanks = 4;
  vm::MiniMpi mpi(kRanks);
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) mpi.barrier();
      ++done;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done.load(), kRanks);
}

// ---------------------------------------------------------------------------
// Guest memory: a page-rounded anonymous mapping behind explicit bounds
// checks. Every case runs on each engine and must agree bit for bit.

struct EngineRun {
  vm::Engine engine;
  vm::RunResult result;
  std::vector<std::int64_t> i64;
  std::uint64_t retired = 0;
  std::vector<std::uint8_t> memory;  // the whole address space after the run
};

std::vector<EngineRun> run_each_engine(const program::Image& img) {
  std::vector<vm::Engine> engines = {vm::Engine::kSwitch,
                                     vm::Engine::kMicroOp};
  if (vm::jit::jit_supported()) engines.push_back(vm::Engine::kJit);
  const auto exec = vm::ExecutableImage::build(img);
  std::vector<EngineRun> runs;
  for (const vm::Engine engine : engines) {
    vm::Machine::Options opts;
    opts.engine = engine;
    vm::Machine m(exec, opts);
    // Braced initializers run in order: the run comes before the reads.
    runs.push_back({engine, m.run(), m.output_i64(), m.instructions_retired(),
                    m.read_memory(0, img.memory_size)});
  }
  return runs;
}

/// Demands every engine's run matches the first (switch) run bit for bit.
void expect_engines_agree(const std::vector<EngineRun>& runs) {
  const EngineRun& ref = runs.front();
  for (const EngineRun& r : runs) {
    const int e = static_cast<int>(r.engine);
    EXPECT_EQ(r.result.status, ref.result.status) << "engine " << e;
    EXPECT_EQ(r.result.trap_message, ref.result.trap_message) << "engine " << e;
    EXPECT_EQ(r.retired, ref.retired) << "engine " << e;
    EXPECT_EQ(r.i64, ref.i64) << "engine " << e;
    EXPECT_TRUE(r.memory == ref.memory) << "engine " << e;
  }
}

/// Rebases `prog` so that its whole address space is `memory_size` bytes:
/// code at 0 (code does not live in guest memory, but the image must place
/// data after it; these programs are far shorter than 512 bytes), no data,
/// no bss.
program::Image with_memory_size(program::Program prog,
                                std::uint64_t memory_size) {
  prog.code_base = 0;
  prog.data_base = 512;
  prog.data.clear();
  prog.bss_base = 0;
  prog.bss_size = 0;
  prog.memory_size = memory_size;
  return program::relayout(prog);
}

TEST(GuestMemory, FreshMachineIsZeroExceptData) {
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto d = a.data_f64(-1.25);
  a.data_f64(3.0e300);
  a.reserve_bss(4096, 8);
  a.emit(Opcode::kMovsdXM, Operand::xmm(0),
         Operand::mem_abs(static_cast<std::int32_t>(d)));
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  ASSERT_FALSE(img.data.empty());

  std::vector<std::uint8_t> expect(img.memory_size, 0);
  std::copy(img.data.begin(), img.data.end(),
            expect.begin() + static_cast<std::ptrdiff_t>(img.data_base));
  const vm::Machine fresh(img);
  EXPECT_TRUE(fresh.read_memory(0, img.memory_size) == expect);

  // The program only reads memory, and the null return address pushed at
  // the top of the stack is itself zero, so a whole run leaves it intact.
  const std::vector<EngineRun> runs = run_each_engine(img);
  expect_engines_agree(runs);
  for (const EngineRun& r : runs) {
    ASSERT_TRUE(r.result.ok()) << r.result.trap_message;
    EXPECT_TRUE(r.memory == expect) << static_cast<int>(r.engine);
  }
}

TEST(GuestMemory, StackWorksAtTheTopOfOddSizes) {
  // One size that is not a page multiple, one smaller than any page.
  for (const std::uint64_t size : {std::uint64_t{3 * 4096 + 8},
                                   std::uint64_t{1000}}) {
    casm::Assembler a;
    a.begin_function("main", "main");
    a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(111));
    a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(222));
    a.emit(Opcode::kPush, Operand::gpr(1));
    a.emit(Opcode::kPush, Operand::gpr(2));
    a.emit(Opcode::kPop, Operand::gpr(3));
    a.emit(Opcode::kPop, Operand::gpr(4));
    a.emit(Opcode::kMov, Operand::gpr(1), Operand::gpr(3));
    a.intrin(in::Id::kOutputI64);
    a.emit(Opcode::kMov, Operand::gpr(1), Operand::gpr(4));
    a.intrin(in::Id::kOutputI64);
    a.emit(Opcode::kMov, Operand::gpr(1), Operand::gpr(arch::kSpReg));
    a.intrin(in::Id::kOutputI64);
    a.halt();
    a.end_function();
    const program::Image img = with_memory_size(a.finish("main"), size);

    const std::vector<EngineRun> runs = run_each_engine(img);
    expect_engines_agree(runs);
    const EngineRun& r = runs.front();
    ASSERT_TRUE(r.result.ok()) << size << ": " << r.result.trap_message;
    const std::int64_t top = static_cast<std::int64_t>(size);
    EXPECT_EQ(r.i64, (std::vector<std::int64_t>{222, 111, top - 8})) << size;
    // Popped slots keep their bytes; the null return address is on top.
    std::vector<std::uint8_t> expect(size, 0);
    const std::uint64_t slots[] = {222, 111, 0};
    std::memcpy(expect.data() + size - 24, slots, sizeof slots);
    EXPECT_TRUE(r.memory == expect) << size;
  }
}

TEST(GuestMemory, WideAccessStraddlingTheEndTraps) {
  // The mapping is rounded up to a page, so the bytes past memory_size are
  // host-addressable: only the explicit bounds check may stop these.
  for (const std::uint64_t size : {std::uint64_t{3 * 4096 + 8},
                                   std::uint64_t{1000}}) {
    for (const bool is_store : {false, true}) {
      casm::Assembler a;
      a.begin_function("main", "main");
      a.emit(Opcode::kMov, Operand::gpr(1),
             Operand::make_imm(static_cast<std::int64_t>(size - 8)));
      a.emit(Opcode::kLoad, Operand::gpr(2), Operand::mem_bd(1, 0));  // fits
      a.emit(Opcode::kMov, Operand::gpr(1),
             Operand::make_imm(static_cast<std::int64_t>(size - 4)));
      if (is_store) {
        a.emit(Opcode::kStore, Operand::mem_bd(1, 0), Operand::gpr(1));
      } else {
        a.emit(Opcode::kLoad, Operand::gpr(2), Operand::mem_bd(1, 0));
      }
      a.halt();
      a.end_function();
      const program::Image img = with_memory_size(a.finish("main"), size);

      const std::vector<EngineRun> runs = run_each_engine(img);
      expect_engines_agree(runs);
      const EngineRun& r = runs.front();
      EXPECT_EQ(r.result.status, vm::RunResult::Status::kTrapped)
          << size << (is_store ? " store" : " load");
      EXPECT_NE(r.result.trap_message.find("out of bounds"), std::string::npos)
          << r.result.trap_message;
    }
  }
}

TEST(GuestMemory, IntrinsicBoundsChecksDoNotWrap) {
  const std::uint64_t size = program::Image::kDefaultMemorySize;
  struct Case {
    in::Id id;
    std::int64_t addr, len;
    const char* message;
  };
  const Case cases[] = {
      // addr + len wraps to 8.
      {in::Id::kPrintStr, -8, 16, "print_str out of bounds"},
      {in::Id::kPrintStr, 8, -1, "print_str out of bounds"},
      {in::Id::kPrintStr, static_cast<std::int64_t>(size) - 4, 8,
       "print_str out of bounds"},
      // addr + count * 8 wraps to 8.
      {in::Id::kMpiAllreduceVec, 8, std::int64_t{1} << 61,
       "mpi_allreduce_vec out of bounds"},
      {in::Id::kMpiAllreduceVec, static_cast<std::int64_t>(size) - 8, 2,
       "mpi_allreduce_vec out of bounds"},
  };
  for (const Case& c : cases) {
    casm::Assembler a;
    a.begin_function("main", "main");
    a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(c.addr));
    a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(c.len));
    a.intrin(c.id);
    a.halt();
    a.end_function();
    const program::Image img = program::relayout(a.finish("main"));
    ASSERT_EQ(img.memory_size, size);

    const std::vector<EngineRun> runs = run_each_engine(img);
    expect_engines_agree(runs);
    const EngineRun& r = runs.front();
    EXPECT_EQ(r.result.status, vm::RunResult::Status::kTrapped)
        << c.message << " addr=" << c.addr << " len=" << c.len;
    EXPECT_NE(r.result.trap_message.find(c.message), std::string::npos)
        << r.result.trap_message;
  }
}

TEST(GuestMemory, HostReadsRejectWrappingRanges) {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.halt();
  a.end_function();
  const vm::Machine m(program::relayout(a.finish("main")));
  const std::uint64_t size = program::Image::kDefaultMemorySize;
  EXPECT_EQ(m.read_memory_u64(size - 8), 0u);
  EXPECT_THROW(m.read_memory_u64(size - 4), VmError);
  EXPECT_THROW(m.read_memory_u64(~std::uint64_t{0} - 3), VmError);
  EXPECT_THROW(m.read_memory(8, SIZE_MAX), VmError);
  EXPECT_THROW(m.read_memory(~std::uint64_t{0} - 3, 8), VmError);
  EXPECT_EQ(m.read_memory(size, 0).size(), 0u);
}

// ---------------------------------------------------------------------------
// Lowering is total over the forms arch::validate accepts, and every
// micro-op kind is reachable. The expected kind is derived from naming
// alone: "k" + the opcode mnemonic, plus an RR/RI/XX/XM suffix when the
// opcode accepts more than one operand form -- independent of lower_instr.

constexpr const char* kMicroKindNames[] = {
#define FPMIX_KIND_NAME(KIND, HANDLER, FAMILY, STOPS) #KIND,
    FPMIX_MICRO_KINDS(FPMIX_KIND_NAME)
#undef FPMIX_KIND_NAME
};
constexpr std::size_t kNumKinds = std::size(kMicroKindNames);

std::string fold_name(std::string s) {
  std::string out;
  for (const char c : s) {
    if (c != '_') {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

constexpr std::uint8_t kDstReg = 3;
constexpr std::uint8_t kSrcReg = 7;
constexpr std::int64_t kSrcImm = 42;
const arch::MemRef kDstMem{1, arch::kNoReg, 1, -24};
const arch::MemRef kSrcMem{5, 6, 8, 1000};

Operand operand_of(arch::OperandKind kind, bool dst) {
  switch (kind) {
    case arch::OperandKind::kNone: return Operand::none();
    case arch::OperandKind::kGpr: return Operand::gpr(dst ? kDstReg : kSrcReg);
    case arch::OperandKind::kXmm: return Operand::xmm(dst ? kDstReg : kSrcReg);
    case arch::OperandKind::kImm: return Operand::make_imm(dst ? 7 : kSrcImm);
    case arch::OperandKind::kMem:
      return Operand::make_mem(dst ? kDstMem : kSrcMem);
  }
  return Operand::none();
}

arch::Instr instr_of(Opcode op, int d, int s) {
  arch::Instr ins;
  ins.op = op;
  ins.dst = operand_of(static_cast<arch::OperandKind>(d), true);
  ins.src = operand_of(static_cast<arch::OperandKind>(s), false);
  ins.addr = 0x1000;
  ins.size = arch::encoded_size(ins);
  return ins;
}

bool validates(const arch::Instr& ins) {
  try {
    arch::validate(ins);
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

const char* form_suffix(const arch::Instr& ins) {
  using K = arch::OperandKind;
  const K d = ins.dst.kind;
  const K s = ins.src.kind;
  if (d == K::kGpr && s == K::kGpr) return "rr";
  if (d == K::kGpr && s == K::kImm) return "ri";
  if (d == K::kXmm && s == K::kXmm) return "xx";
  if (d == K::kXmm && s == K::kMem) return "xm";
  return "?";
}

void expect_ea(const vm::MicroOp& u, const arch::MemRef& m) {
  EXPECT_EQ(u.ea_base, m.base == arch::kNoReg ? vm::kZeroRegSlot : m.base);
  EXPECT_EQ(u.ea_index, m.index == arch::kNoReg ? vm::kZeroRegSlot : m.index);
  EXPECT_EQ(1u << u.ea_shift, static_cast<unsigned>(m.scale));
  EXPECT_EQ(u.ea_disp, m.disp);
}

TEST(Lowering, TotalOverValidatedFormsWithNoDeadKinds) {
  constexpr int kKinds = 5;  // arch::OperandKind kNone..kMem
  std::vector<bool> produced(kNumKinds, false);
  std::size_t validated = 0;
  for (int o = 0; o < static_cast<int>(Opcode::kNumOpcodes); ++o) {
    const auto op = static_cast<Opcode>(o);
    int forms = 0;
    for (int d = 0; d < kKinds; ++d) {
      for (int s = 0; s < kKinds; ++s) forms += validates(instr_of(op, d, s));
    }
    EXPECT_GE(forms, 1) << arch::opcode_name(op);
    for (int d = 0; d < kKinds; ++d) {
      for (int s = 0; s < kKinds; ++s) {
        const arch::Instr ins = instr_of(op, d, s);
        if (!validates(ins)) continue;
        ++validated;
        SCOPED_TRACE(std::string(arch::opcode_name(op)) + " form " +
                     std::to_string(d) + "," + std::to_string(s));
        vm::MicroOp u;
        ASSERT_NO_THROW(u = vm::lower_instr(ins));
        ASSERT_LT(u.kind, kNumKinds);
        produced[u.kind] = true;

        std::string want = "k" + fold_name(arch::opcode_name(op));
        if (forms > 1) want += form_suffix(ins);
        EXPECT_EQ(fold_name(kMicroKindNames[u.kind]), want);

        const bool dst_reg = ins.dst.is_gpr() || ins.dst.is_xmm();
        const bool src_reg = ins.src.is_gpr() || ins.src.is_xmm();
        EXPECT_EQ(u.a, dst_reg ? kDstReg : 0);
        EXPECT_EQ(u.b, src_reg ? kSrcReg : 0);
        if (ins.dst.is_mem()) {
          expect_ea(u, kDstMem);
        } else if (ins.src.is_mem()) {
          expect_ea(u, kSrcMem);
        } else {
          expect_ea(u, arch::MemRef{});
        }
        EXPECT_EQ(u.imm, ins.src.is_imm() ? kSrcImm : 0);
        EXPECT_EQ(u.aux, op == Opcode::kCall ? ins.addr + ins.size : 0);
      }
    }
  }
  EXPECT_GT(validated, static_cast<std::size_t>(Opcode::kNumOpcodes));
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    EXPECT_TRUE(produced[k]) << kMicroKindNames[k]
                             << " is produced by no validated form";
  }
}

TEST(Lowering, RejectsFormsValidateRejects) {
  using K = arch::OperandKind;
  const auto lower = [](Opcode op, K d, K s) {
    return vm::lower_instr(
        instr_of(op, static_cast<int>(d), static_cast<int>(s)));
  };
  EXPECT_THROW(lower(Opcode::kAdd, K::kXmm, K::kXmm), VmError);
  EXPECT_THROW(lower(Opcode::kAdd, K::kGpr, K::kMem), VmError);
  EXPECT_THROW(lower(Opcode::kAddsd, K::kGpr, K::kGpr), VmError);
  EXPECT_THROW(lower(Opcode::kAddsd, K::kXmm, K::kImm), VmError);
  EXPECT_THROW(lower(Opcode::kLoad, K::kGpr, K::kGpr), VmError);
  EXPECT_THROW(lower(Opcode::kStore, K::kGpr, K::kGpr), VmError);
  EXPECT_THROW(lower(Opcode::kLea, K::kGpr, K::kImm), VmError);
  EXPECT_THROW(lower(Opcode::kNumOpcodes, K::kNone, K::kNone), VmError);
}

}  // namespace
}  // namespace fpmix
