// Tests for verification routines and the configuration evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "asm/assembler.hpp"
#include "config/config.hpp"
#include "program/layout.hpp"
#include "verify/evaluate.hpp"
#include "support/error.hpp"
#include "verify/verifier.hpp"

// AddressSanitizer reserves terabytes of shadow address space, so an
// RLIMIT_AS cap cannot be applied under it.
#if defined(__SANITIZE_ADDRESS__)
#define FPMIX_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FPMIX_TEST_ASAN 1
#endif
#endif

namespace fpmix::verify {
namespace {

using arch::Opcode;
using arch::Operand;
namespace in = arch::intrinsics;

TEST(RelativeErrorVerifier, BasicChecks) {
  RelativeErrorVerifier v({1.0, -2.0, 0.0}, 1e-3, 1e-9);
  EXPECT_TRUE(v.verify(std::vector<double>{1.0, -2.0, 0.0}));
  EXPECT_TRUE(v.verify(std::vector<double>{1.0005, -2.001, 1e-10}));
  EXPECT_FALSE(v.verify(std::vector<double>{1.01, -2.0, 0.0}));
  EXPECT_FALSE(v.verify(std::vector<double>{1.0, -2.0}));        // count
  EXPECT_FALSE(v.verify(std::vector<double>{1.0, -2.0, 1e-3}));  // abs
  EXPECT_FALSE(v.verify(std::vector<double>{NAN, -2.0, 0.0}));
  EXPECT_FALSE(v.verify(std::vector<double>{INFINITY, -2.0, 0.0}));
}

TEST(RelativeErrorVerifier, PerOutputOverrides) {
  RelativeErrorVerifier v({10.0, 10.0}, 1e-6);
  v.set_output_tolerance(1, 0.5);
  EXPECT_TRUE(v.verify(std::vector<double>{10.0, 14.0}));   // loose slot
  EXPECT_FALSE(v.verify(std::vector<double>{10.1, 10.0}));  // tight slot
}

TEST(BitExactVerifier, ExactOrNothing) {
  const double x = 1.0 / 3.0;
  BitExactVerifier v({x});
  EXPECT_TRUE(v.verify(std::vector<double>{x}));
  EXPECT_FALSE(v.verify(std::vector<double>{x, x}));  // count mismatch
  // One ulp away must fail.
  EXPECT_FALSE(v.verify(std::vector<double>{std::nextafter(x, 1.0)}));
}

TEST(ThresholdVerifier, ChecksReportedError) {
  ThresholdVerifier v(0, 1e-4, 2);
  EXPECT_TRUE(v.verify(std::vector<double>{5e-5, 123.0}));
  EXPECT_FALSE(v.verify(std::vector<double>{2e-4, 123.0}));
  EXPECT_FALSE(v.verify(std::vector<double>{5e-5}));            // count
  EXPECT_FALSE(v.verify(std::vector<double>{NAN, 123.0}));      // non-finite
}

TEST(Evaluate, CrashCountsAsFailure) {
  // A program whose single-precision narrowing leads to a division that the
  // verifier would accept -- but the configuration flags the consumer
  // `ignore`, so the run traps and must be reported as failed.
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto x = a.data_f64(2.0);
  a.emit(Opcode::kMovsdXM, Operand::xmm(2),
         Operand::mem_abs(static_cast<std::int32_t>(x)));
  a.emit(Opcode::kAddsd, Operand::xmm(2), Operand::xmm(2));
  a.emit(Opcode::kMulsd, Operand::xmm(2), Operand::xmm(2));
  a.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(2));
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  auto ix = config::StructureIndex::build(program::lift(img));

  const std::vector<double> ref = reference_outputs(img);
  RelativeErrorVerifier verifier(ref, 1.0);  // accepts anything finite

  config::PrecisionConfig cfg;
  std::size_t add_id = SIZE_MAX, mul_id = SIZE_MAX;
  for (std::size_t i : ix.candidates()) {
    if (ix.instrs()[i].instr.op == Opcode::kAddsd) add_id = i;
    if (ix.instrs()[i].instr.op == Opcode::kMulsd) mul_id = i;
  }
  cfg.set_instr(add_id, config::Precision::kSingle);
  cfg.set_instr(mul_id, config::Precision::kIgnore);

  const EvalResult r = evaluate_config(img, ix, cfg, verifier);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.run_status, vm::RunResult::Status::kTrapped);
  EXPECT_NE(r.failure.find("sentinel"), std::string::npos);
}

TEST(Evaluate, BudgetBlowupCountsAsFailure) {
  casm::Assembler a;
  a.begin_function("main", "main");
  auto l = a.new_label();
  a.bind(l);
  a.emit(Opcode::kAddsd, Operand::xmm(1), Operand::xmm(1));
  a.jmp(l);
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  auto ix = config::StructureIndex::build(program::lift(img));
  RelativeErrorVerifier verifier({}, 1.0);
  EvalOptions opts;
  opts.max_instructions = 5000;
  const EvalResult r =
      evaluate_config(img, ix, config::PrecisionConfig{}, verifier, opts);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.run_status, vm::RunResult::Status::kOutOfBudget);
}

TEST(Evaluate, ReferenceOutputsThrowOnBrokenProgram) {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(1));
  a.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(0));
  a.emit(Opcode::kIdiv, Operand::gpr(1), Operand::gpr(2));
  a.halt();
  a.end_function();
  const program::Image img = program::relayout(a.finish("main"));
  EXPECT_THROW(reference_outputs(img), fpmix::Error);
}

TEST(Evaluate, GuestMemoryRefusedByRlimitIsAResourceOutcome) {
#if FPMIX_TEST_ASAN
  GTEST_SKIP() << "RLIMIT_AS cannot be applied under AddressSanitizer";
#else
  casm::Assembler a;
  a.begin_function("main", "main");
  a.halt();
  a.end_function();
  program::Program prog = a.finish("main");
  const std::uint64_t kGuestBytes = 256ull << 20;
  prog.memory_size = kGuestBytes;
  const program::Image img = program::relayout(prog);
  auto ix = config::StructureIndex::build(program::lift(img));
  RelativeErrorVerifier verifier({}, 1.0);

  // The child caps its address space at its current size plus a quarter of
  // the guest memory: room for patching and predecode, not for the Machine.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    long pages = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%ld", &pages) != 1) pages = 0;
      std::fclose(f);
    }
    if (pages <= 0) ::_exit(2);
    const rlim_t cap = static_cast<rlim_t>(pages) *
                           static_cast<rlim_t>(::sysconf(_SC_PAGESIZE)) +
                       kGuestBytes / 4;
    const rlimit as{cap, cap};
    if (::setrlimit(RLIMIT_AS, &as) != 0) ::_exit(3);
    const EvalResult r =
        evaluate_config(img, ix, config::PrecisionConfig{}, verifier);
    const std::string line = std::string(r.passed ? "passed" : "failed") +
                             " " + failure_class_name(r.failure_class) +
                             ": " + r.failure;
    const bool wrote =
        ::write(fds[1], line.data(), line.size()) ==
        static_cast<ssize_t>(line.size());
    ::_exit(wrote ? 0 : 4);
  }
  ::close(fds[1]);
  std::string got;
  char buf[256];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    got.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died: status " << status;
  ASSERT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(got, "failed resource: out of memory (allocation failed)");
#endif
}

}  // namespace
}  // namespace fpmix::verify
