// Fault injection, trial supervision and the self-healing journal.
//
// Three layers are exercised here:
//  1. the primitives -- CRC32 sealing, the deterministic Injector, journal
//     sabotage helpers;
//  2. the VM supervision loop -- every fault kind fired through Machine on
//     both engines, and wall-clock deadline enforcement (a non-terminating
//     program must be stopped within 2x the deadline);
//  3. the search harness -- seeded fault campaigns driven through full
//     searches (the soak), asserting the search always terminates with a
//     composed configuration and that fault-free reruns stay byte-identical.
//
// The soak's campaign count defaults low for local runs and scales through
// the FPMIX_SOAK_CAMPAIGNS environment variable (CI sets 200).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "arch/encode.hpp"
#include "asm/assembler.hpp"
#include "config/textio.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "search/search.hpp"
#include "support/fault.hpp"
#include "support/journal.hpp"
#include "support/timer.hpp"
#include "verify/evaluate.hpp"
#include "vm/machine.hpp"

namespace fpmix {
namespace {

using arch::Opcode;
using arch::Operand;
namespace in = arch::intrinsics;

// ---------------------------------------------------------------------------
// CRC32 and record sealing.

TEST(Crc32, KnownVectors) {
  // The standard reflected-CRC32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(Seal, RoundTripAndTamperDetection) {
  const std::string sealed = seal_record("{\"a\":1}", 7);
  EXPECT_NE(sealed.find("\"seq\":7"), std::string::npos);
  EXPECT_EQ(check_seal(sealed), SealCheck::kOk);

  // Damage anywhere in the line -- payload, seq, or the crc itself --
  // must be detected.
  for (std::size_t i = 0; i < sealed.size() - 2; ++i) {
    std::string dam = sealed;
    dam[i] = dam[i] == 'x' ? 'y' : 'x';
    EXPECT_NE(check_seal(dam), SealCheck::kOk) << "byte " << i;
  }

  EXPECT_EQ(check_seal("{\"a\":1}"), SealCheck::kUnsealed);
  EXPECT_EQ(check_seal(sealed.substr(0, sealed.size() - 3)),
            SealCheck::kCorrupt);
}

TEST(Seal, JournalAppendSealedNumbersSequentially) {
  const std::string path = testing::TempDir() + "seal_seq.jsonl";
  std::remove(path.c_str());
  {
    Journal j;
    ASSERT_TRUE(j.open(path));
    j.append_sealed("{\"n\":1}");
    j.append_sealed("{\"n\":2}");
  }
  const auto lines = Journal::read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(check_seal(lines[0]), SealCheck::kOk);
  EXPECT_EQ(check_seal(lines[1]), SealCheck::kOk);
  EXPECT_NE(lines[0].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":2"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deterministic injector.

TEST(Injector, PureFunctionOfSeedKeyAttempt) {
  fault::Injector::Rates rates;
  rates.abort = 0.2;
  rates.bitflip = 0.2;
  rates.sentinel = 0.2;
  rates.stall = 0.1;
  rates.flaky = 0.3;
  const fault::Injector a(0xC0FFEE, rates);
  const fault::Injector b(0xC0FFEE, rates);

  bool some_fault = false;
  bool attempts_differ = false;
  for (int k = 0; k < 64; ++k) {
    const std::string key = "trial-" + std::to_string(k);
    for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
      const fault::TrialFaults fa = a.for_trial(key, attempt);
      const fault::TrialFaults fb = b.for_trial(key, attempt);
      // Same campaign -> identical decisions, across injector instances.
      EXPECT_EQ(fa.vm.kind, fb.vm.kind);
      EXPECT_EQ(fa.vm.at_retired, fb.vm.at_retired);
      EXPECT_EQ(fa.vm.seed, fb.vm.seed);
      EXPECT_EQ(fa.flip_verdict, fb.flip_verdict);
      if (fa.vm.kind != fault::VmFault::kNone) some_fault = true;
      if (attempt > 0) {
        const fault::TrialFaults f0 = a.for_trial(key, 0);
        if (fa.vm.kind != f0.vm.kind || fa.flip_verdict != f0.flip_verdict) {
          attempts_differ = true;
        }
      }
    }
  }
  EXPECT_TRUE(some_fault);      // the rates actually fire
  EXPECT_TRUE(attempts_differ); // retries see fresh draws

  // A different seed is a different campaign.
  const fault::Injector c(0xBEEF, rates);
  EXPECT_NE(a.fingerprint_tag(), c.fingerprint_tag());
  bool any_diff = false;
  for (int k = 0; k < 64 && !any_diff; ++k) {
    const std::string key = "trial-" + std::to_string(k);
    const auto fa = a.for_trial(key, 0);
    const auto fc = c.for_trial(key, 0);
    any_diff = fa.vm.kind != fc.vm.kind || fa.flip_verdict != fc.flip_verdict;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Injector, HardFaultDrawsAreDeterministicAndIndependent) {
  fault::Injector::Rates rates;
  rates.segv = 0.1;
  rates.kill = 0.1;
  rates.oom = 0.1;
  rates.hang = 0.05;
  rates.hang_ignore_term = 0.05;
  rates.trunc_result = 0.05;
  rates.corrupt_result = 0.05;
  const fault::Injector a(0x44AAD, rates);
  const fault::Injector b(0x44AAD, rates);

  std::set<fault::HardFault> kinds_seen;
  bool execs_differ = false;
  for (int k = 0; k < 128; ++k) {
    const std::string key = "hard-" + std::to_string(k);
    for (std::uint32_t exec = 0; exec < 4; ++exec) {
      const fault::TrialFaults fa = a.for_trial(key, exec);
      const fault::TrialFaults fb = b.for_trial(key, exec);
      EXPECT_EQ(fa.hard, fb.hard);
      EXPECT_EQ(fa.hard_seed, fb.hard_seed);
      kinds_seen.insert(fa.hard);
      if (exec > 0 && fa.hard != a.for_trial(key, 0).hard) {
        execs_differ = true;
      }
      // Hard faults never leak into the soft-fault decisions: a campaign
      // with only hard rates must leave the VM faults off.
      EXPECT_EQ(fa.vm.kind, fault::VmFault::kNone);
      EXPECT_FALSE(fa.flip_verdict);
    }
  }
  // At these rates 512 draws cover the kinds (probability of missing any
  // one is negligible) and crash retries see fresh draws.
  EXPECT_GT(kinds_seen.size(), 4u);
  EXPECT_TRUE(execs_differ);

  // Hard rates are part of the campaign fingerprint: a journal recorded
  // under SIGSEGV injection must not feed a campaign without it.
  fault::Injector::Rates soft_only;
  soft_only.abort = 0.1;
  EXPECT_NE(fault::Injector(0x44AAD, rates).fingerprint_tag(),
            fault::Injector(0x44AAD, soft_only).fingerprint_tag());
}

TEST(Injector, FingerprintTagAndRateOrderArePinned) {
  fault::Injector::Rates r;
  r.abort = 0.01;
  r.bitflip = 0.02;
  r.sentinel = 0.03;
  r.stall = 0.04;
  r.flaky = 0.05;
  r.segv = 0.06;
  r.kill = 0.07;
  r.oom = 0.08;
  r.hang = 0.09;
  r.hang_ignore_term = 0.1;
  r.trunc_result = 0.11;
  r.corrupt_result = 0.125;
  // The tag feeds the search fingerprint and every journal meta line, so
  // it must never change for a given campaign.
  EXPECT_EQ(fault::Injector(0x5EED, r).fingerprint_tag(), "7e95072d2f31b317");

  const std::array<double, 12> v = r.values();
  const std::array<double, 12> want = {0.01, 0.02, 0.03, 0.04, 0.05, 0.06,
                                       0.07, 0.08, 0.09, 0.1,  0.11, 0.125};
  EXPECT_EQ(v, want);
  EXPECT_EQ(fault::Injector::Rates::from_values(v).values(), want);
}

TEST(Injector, ZeroRatesNeverFault) {
  const fault::Injector quiet(1234, {});
  for (int k = 0; k < 100; ++k) {
    const auto f = quiet.for_trial("key-" + std::to_string(k), 0);
    EXPECT_EQ(f.vm.kind, fault::VmFault::kNone);
    EXPECT_FALSE(f.flip_verdict);
    EXPECT_EQ(f.hard, fault::HardFault::kNone);
  }
}

// ---------------------------------------------------------------------------
// Network chaos: transport faults as a pure function of
// (seed, connection, op index).

TEST(NetChaos, PureFunctionOfSeedConnectionAndOp) {
  fault::NetChaos::Rates rates;
  rates.reset = 0.05;
  rates.stall = 0.1;
  rates.delay = 0.1;
  rates.dup = 0.1;
  rates.reorder = 0.1;
  const fault::NetChaos a(0xC4A05, rates);
  const fault::NetChaos b(0xC4A05, rates);
  const fault::NetChaos other(0xC4A06, rates);

  std::size_t faults = 0;
  std::size_t diverged = 0;
  for (std::uint64_t conn = 0; conn < 8; ++conn) {
    for (std::uint64_t op = 0; op < 200; ++op) {
      const fault::NetFault fa = a.for_op(conn, op);
      // The same (seed, conn, op) triple always draws the same fault: a
      // chaos campaign replays identically for a given connection history.
      EXPECT_EQ(fa, b.for_op(conn, op));
      if (fa != fault::NetFault::kNone) ++faults;
      if (fa != other.for_op(conn, op)) ++diverged;
    }
  }
  EXPECT_GT(faults, 0u);    // the rates actually fire
  EXPECT_GT(diverged, 0u);  // and a different seed draws differently
}

TEST(NetChaos, HoldKindsSuppressedOnAConnectionsFirstOp) {
  // A held hello frame would never flush (nothing follows it until the
  // handshake completes), so op 0 must never draw delay or reorder.
  fault::NetChaos::Rates rates;
  rates.delay = 0.5;
  rates.reorder = 0.5;
  const fault::NetChaos chaos(0xF00D, rates);
  for (std::uint64_t conn = 0; conn < 500; ++conn) {
    const fault::NetFault f = chaos.for_op(conn, 0);
    EXPECT_NE(f, fault::NetFault::kDelayFrame) << conn;
    EXPECT_NE(f, fault::NetFault::kReorderFrames) << conn;
  }
}

TEST(NetChaos, ZeroRatesNeverFault) {
  const fault::NetChaos quiet(99, {});
  for (std::uint64_t op = 0; op < 300; ++op) {
    EXPECT_EQ(quiet.for_op(7, op), fault::NetFault::kNone);
  }
}

// ---------------------------------------------------------------------------
// Journal sabotage.

std::string sabotage_fixture(const char* name, std::size_t records) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  Journal j;
  EXPECT_TRUE(j.open(path));
  for (std::size_t i = 0; i < records; ++i) {
    j.append_sealed("{\"type\":\"trial\",\"n\":" + std::to_string(i) + "}");
  }
  return path;
}

TEST(Sabotage, TruncateTailTearsLastLine) {
  const std::string path = sabotage_fixture("sab_trunc.jsonl", 5);
  ASSERT_TRUE(fault::sabotage_journal(path, fault::JournalFault::kTruncateTail,
                                      1));
  // The torn tail has no newline, so read_lines drops it.
  EXPECT_EQ(Journal::read_lines(path).size(), 4u);
  std::remove(path.c_str());
}

TEST(Sabotage, CorruptInteriorFailsSealOnOneLine) {
  const std::string path = sabotage_fixture("sab_corrupt.jsonl", 5);
  ASSERT_TRUE(fault::sabotage_journal(
      path, fault::JournalFault::kCorruptInterior, 2));
  const auto lines = Journal::read_lines(path);
  ASSERT_EQ(lines.size(), 5u);
  std::size_t bad = 0;
  for (const auto& l : lines) {
    if (check_seal(l) != SealCheck::kOk) ++bad;
  }
  EXPECT_EQ(bad, 1u);
  std::remove(path.c_str());
}

TEST(Sabotage, DuplicateAndGarbageGrowTheFile) {
  const std::string dup = sabotage_fixture("sab_dup.jsonl", 5);
  ASSERT_TRUE(fault::sabotage_journal(dup, fault::JournalFault::kDuplicateLine,
                                      3));
  EXPECT_EQ(Journal::read_lines(dup).size(), 6u);
  std::remove(dup.c_str());

  const std::string garb = sabotage_fixture("sab_garb.jsonl", 5);
  ASSERT_TRUE(fault::sabotage_journal(garb, fault::JournalFault::kGarbageLine,
                                      4));
  const auto lines = Journal::read_lines(garb);
  EXPECT_EQ(lines.size(), 6u);
  std::size_t unparsable = 0;
  for (const auto& l : lines) {
    JsonRecord rec;
    if (!parse_flat_json(l, &rec)) ++unparsable;
  }
  EXPECT_EQ(unparsable, 1u);
  std::remove(garb.c_str());
}

TEST(Sabotage, MissingFileRefused) {
  EXPECT_FALSE(fault::sabotage_journal(
      testing::TempDir() + "no_such_journal.jsonl",
      fault::JournalFault::kTruncateTail, 1));
}

// ---------------------------------------------------------------------------
// VM faults and supervision, on both engines.

/// ~8000-instruction FP loop: xmm0 accumulates xmm1 (a loop-invariant
/// constant register), a gpr counts down. Every iteration reads both xmm
/// registers as doubles, so a planted sentinel is consumed within one
/// iteration wherever a fault lands.
program::Image finite_fp_loop() {
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto c = a.data_f64(1.25);
  a.emit(Opcode::kMovsdXM, Operand::xmm(1),
         Operand::mem_abs(static_cast<std::int32_t>(c)));
  a.emit(Opcode::kXorpd, Operand::xmm(0), Operand::xmm(0));
  a.emit(Opcode::kMov, Operand::gpr(1), Operand::make_imm(2000));
  auto loop = a.new_label();
  a.bind(loop);
  a.emit(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(1));
  a.emit(Opcode::kSub, Operand::gpr(1), Operand::make_imm(1));
  a.emit(Opcode::kCmp, Operand::gpr(1), Operand::make_imm(0));
  a.jg(loop);
  a.intrin(in::Id::kOutputF64);
  a.halt();
  a.end_function();
  return program::relayout(a.finish("main"));
}

/// Never halts; the deadline has to stop it.
program::Image infinite_loop() {
  casm::Assembler a;
  a.begin_function("main", "main");
  const auto c = a.data_f64(1.0);
  a.emit(Opcode::kMovsdXM, Operand::xmm(0),
         Operand::mem_abs(static_cast<std::int32_t>(c)));
  auto loop = a.new_label();
  a.bind(loop);
  a.emit(Opcode::kAddsd, Operand::xmm(0), Operand::xmm(0));
  a.jmp(loop);
  a.end_function();
  return program::relayout(a.finish("main"));
}

class VmFaultBothEngines : public ::testing::TestWithParam<vm::Engine> {};

TEST_P(VmFaultBothEngines, AbortTrapsWithContext) {
  const program::Image img = finite_fp_loop();
  fault::VmFaultSpec spec;
  spec.kind = fault::VmFault::kAbort;
  spec.at_retired = 500;
  vm::Machine::Options opts;
  opts.engine = GetParam();
  opts.fault = &spec;
  vm::Machine m(img, opts);
  const vm::RunResult r = m.run();
  EXPECT_EQ(r.status, vm::RunResult::Status::kTrapped);
  EXPECT_NE(r.trap_message.find("injected fault"), std::string::npos)
      << r.trap_message;
  // The enriched diagnostic suffix is present.
  EXPECT_NE(r.trap_message.find("pc="), std::string::npos) << r.trap_message;
  EXPECT_NE(r.trap_message.find("retired="), std::string::npos)
      << r.trap_message;
  EXPECT_FALSE(r.sentinel_escape);
}

TEST_P(VmFaultBothEngines, SentinelFaultEscapesAsTagTrap) {
  const program::Image img = finite_fp_loop();
  fault::VmFaultSpec spec;
  spec.kind = fault::VmFault::kSentinel;
  spec.at_retired = 500;
  spec.seed = 99;
  vm::Machine::Options opts;
  opts.engine = GetParam();
  opts.fault = &spec;
  vm::Machine m(img, opts);
  const vm::RunResult r = m.run();
  // The loop reads xmm0 as a double on the very next iteration, so the
  // planted sentinel must be consumed and trapped.
  EXPECT_EQ(r.status, vm::RunResult::Status::kTrapped);
  EXPECT_TRUE(r.sentinel_escape) << r.trap_message;
}

TEST_P(VmFaultBothEngines, BitFlipKeepsRunning) {
  const program::Image img = finite_fp_loop();
  vm::Machine clean(img, [&] {
    vm::Machine::Options o;
    o.engine = GetParam();
    return o;
  }());
  const vm::RunResult cr = clean.run();
  ASSERT_TRUE(cr.ok()) << cr.trap_message;

  fault::VmFaultSpec spec;
  spec.kind = fault::VmFault::kBitFlip;
  spec.at_retired = 500;
  spec.seed = 7;
  vm::Machine::Options opts;
  opts.engine = GetParam();
  opts.fault = &spec;
  vm::Machine m(img, opts);
  const vm::RunResult r = m.run();
  // Silent data corruption: the program keeps executing (the flipped bit
  // may or may not change the output, but it must not stop the machine).
  EXPECT_TRUE(r.ok()) << r.trap_message;
  EXPECT_EQ(m.instructions_retired(), clean.instructions_retired());
}

TEST_P(VmFaultBothEngines, StallTripsTheDeadline) {
  const program::Image img = finite_fp_loop();
  fault::VmFaultSpec spec;
  spec.kind = fault::VmFault::kStall;
  spec.at_retired = 500;
  vm::Machine::Options opts;
  opts.engine = GetParam();
  opts.fault = &spec;
  opts.deadline_ns = 50ull * 1000 * 1000;  // 50 ms
  opts.deadline_check_interval = 1u << 14;
  vm::Machine m(img, opts);
  Timer t;
  const vm::RunResult r = m.run();
  EXPECT_EQ(r.status, vm::RunResult::Status::kDeadline);
  EXPECT_LT(t.elapsed_seconds(), 5.0);  // bounded, not hung
}

TEST_P(VmFaultBothEngines, DeadlineStopsANonTerminatingProgram) {
  const program::Image img = infinite_loop();
  constexpr std::uint64_t kDeadlineNs = 250ull * 1000 * 1000;  // 250 ms
  vm::Machine::Options opts;
  opts.engine = GetParam();
  opts.deadline_ns = kDeadlineNs;
  opts.deadline_check_interval = 1u << 16;
  vm::Machine m(img, opts);
  Timer t;
  const vm::RunResult r = m.run();
  const double elapsed = t.elapsed_seconds();
  EXPECT_EQ(r.status, vm::RunResult::Status::kDeadline);
  EXPECT_NE(r.trap_message.find("wall-clock deadline"), std::string::npos)
      << r.trap_message;
  // The acceptance bound: classified within 2x the deadline.
  EXPECT_LT(elapsed, 2.0 * (kDeadlineNs / 1e9));
  EXPECT_GT(m.instructions_retired(), 0u);
}

TEST_P(VmFaultBothEngines, NaturalTrapCarriesContext) {
  casm::Assembler a;
  a.begin_function("main", "main");
  a.emit(Opcode::kMovsdXM, Operand::xmm(0),
         Operand::mem_abs(1 << 30));  // far out of bounds
  a.halt();
  a.end_function();
  vm::Machine::Options opts;
  opts.engine = GetParam();
  vm::Machine m(program::relayout(a.finish("main")), opts);
  const vm::RunResult r = m.run();
  ASSERT_EQ(r.status, vm::RunResult::Status::kTrapped);
  EXPECT_NE(r.trap_message.find("pc="), std::string::npos) << r.trap_message;
  EXPECT_NE(r.trap_message.find("op="), std::string::npos) << r.trap_message;
  EXPECT_NE(r.trap_message.find("retired="), std::string::npos)
      << r.trap_message;
}

INSTANTIATE_TEST_SUITE_P(Engines, VmFaultBothEngines,
                         ::testing::Values(vm::Engine::kMicroOp,
                                           vm::Engine::kSwitch),
                         [](const auto& info) {
                           return info.param == vm::Engine::kMicroOp
                                      ? "MicroOp"
                                      : "Switch";
                         });

// ---------------------------------------------------------------------------
// Evaluation-level classification.

TEST(Evaluate, NonTerminatingConfigClassifiedTimeout) {
  const program::Image img = infinite_loop();
  const auto index = config::StructureIndex::build(program::lift(img));
  verify::BitExactVerifier verifier({1.0});
  verify::EvalOptions opts;
  opts.deadline_ns = 100ull * 1000 * 1000;
  opts.deadline_check_interval = 1u << 16;
  const verify::EvalResult r = verify::evaluate_config(
      img, index, config::PrecisionConfig{}, verifier, opts);
  EXPECT_FALSE(r.passed);
  EXPECT_EQ(r.failure_class, verify::FailureClass::kTimeout);
  EXPECT_EQ(r.run_status, vm::RunResult::Status::kDeadline);
}

TEST(Evaluate, FailureClassNamesRoundTrip) {
  using verify::FailureClass;
  for (const FailureClass c :
       {FailureClass::kNone, FailureClass::kTrap,
        FailureClass::kSentinelEscape, FailureClass::kDivergence,
        FailureClass::kTimeout, FailureClass::kBudget,
        FailureClass::kInternalError, FailureClass::kCrash,
        FailureClass::kResource}) {
    FailureClass parsed;
    ASSERT_TRUE(verify::parse_failure_class(verify::failure_class_name(c),
                                            &parsed));
    EXPECT_EQ(parsed, c);
  }
  verify::FailureClass ignored;
  EXPECT_FALSE(verify::parse_failure_class("not-a-class", &ignored));
}

// ---------------------------------------------------------------------------
// Search-level fault campaigns (the soak).

/// Small mixed-sensitivity workload: enough structure for a multi-level
/// descent, small enough to search hundreds of times.
struct SoakWorkload {
  program::Image image;
  config::StructureIndex index;
  std::unique_ptr<verify::Verifier> verifier;
};

SoakWorkload make_soak_workload() {
  lang::Builder b;
  b.begin_func("main", "m");
  auto good = b.var_f64("good");
  auto bad = b.var_f64("bad");
  b.set(good, b.cf(0.0));
  for (int k = 0; k < 10; ++k) {
    b.set(good, floor_(lang::Expr(good) + b.cf(1.0 + k)));
  }
  b.set(bad, b.cf(1.0) / b.cf(3.0) + b.cf(1.0) / b.cf(7.0));
  b.output(good);
  b.output(bad);
  b.end_func();

  SoakWorkload w{program::relayout(lang::compile(b.take_model(),
                                                 lang::Mode::kDouble)),
                 {}, nullptr};
  w.index = config::StructureIndex::build(program::lift(w.image));
  std::vector<double> ref = verify::reference_outputs(w.image);
  w.verifier = std::make_unique<verify::RelativeErrorVerifier>(std::move(ref),
                                                               1e-12);
  return w;
}

std::size_t soak_campaigns() {
  if (const char* env = std::getenv("FPMIX_SOAK_CAMPAIGNS")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 25;  // local default; CI exports FPMIX_SOAK_CAMPAIGNS=200
}

TEST(Soak, SeededFaultCampaignsAlwaysTerminate) {
  // Fault-free reference: the same search twice must be byte-identical.
  SoakWorkload ra = make_soak_workload();
  const search::SearchResult ref_a =
      search::run_search(ra.image, &ra.index, *ra.verifier, {});
  SoakWorkload rb = make_soak_workload();
  const search::SearchResult ref_b =
      search::run_search(rb.image, &rb.index, *rb.verifier, {});
  ASSERT_EQ(config::to_text(ra.index, ref_a.final_config),
            config::to_text(rb.index, ref_b.final_config));
  const std::string clean_text = config::to_text(ra.index, ref_a.final_config);

  fault::Injector::Rates rates;
  rates.abort = 0.05;
  rates.bitflip = 0.05;
  rates.sentinel = 0.05;
  rates.stall = 0.02;
  rates.flaky = 0.10;

  const std::size_t campaigns = soak_campaigns();
  std::size_t faulted_trials = 0;
  for (std::size_t c = 0; c < campaigns; ++c) {
    SCOPED_TRACE("campaign " + std::to_string(c));
    const fault::Injector injector(0x50AC0000 + c, rates);
    const std::string journal =
        testing::TempDir() + "soak_" + std::to_string(c) + ".jsonl";
    std::remove(journal.c_str());

    search::SearchOptions opts;
    opts.journal_path = journal;
    opts.deadline_ms = 150;
    opts.max_retries = 2;
    opts.fault_injector = &injector;

    SoakWorkload w = make_soak_workload();
    const search::SearchResult res =
        search::run_search(w.image, &w.index, *w.verifier, opts);

    // The search terminated (we are here) and composed a final config the
    // serializer accepts.
    EXPECT_GT(res.configs_tested, 0u);
    const std::string text = config::to_text(w.index, res.final_config);
    EXPECT_FALSE(text.empty());

    // Metrics bookkeeping stays consistent under faults.
    const search::SearchMetrics& m = res.metrics;
    EXPECT_EQ(m.trials_live + m.trials_cached + m.trials_derived,
              m.trials_total);
    std::size_t by_class = 0;
    for (const auto& [name, count] : m.failures_by_class) {
      verify::FailureClass parsed;
      EXPECT_TRUE(verify::parse_failure_class(name, &parsed)) << name;
      by_class += count;
    }
    faulted_trials += by_class;
    EXPECT_EQ(res.quarantine.size(), m.quarantined);

    // Every fifth campaign: damage the journal, then resume under the same
    // campaign. Recovery must re-evaluate the damaged records and land on
    // the same final configuration (the injector is a pure function of the
    // trial key, so the rerun replays the identical fault pattern).
    if (c % 5 == 0 && !Journal::read_lines(journal).empty()) {
      const auto kind = static_cast<fault::JournalFault>(c / 5 % 4);
      fault::sabotage_journal(journal, kind, 0xDA3A + c);
      SoakWorkload w2 = make_soak_workload();
      const search::SearchResult resumed =
          search::run_search(w2.image, &w2.index, *w2.verifier, opts);
      EXPECT_EQ(config::to_text(w2.index, resumed.final_config), text);
    }
    std::remove(journal.c_str());
  }
  // Across the whole soak the campaign rates must have produced failures
  // (otherwise the injector silently stopped firing).
  EXPECT_GT(faulted_trials, 0u);

  // After everything, a fault-free rerun is still byte-identical to the
  // pre-soak reference.
  SoakWorkload rc = make_soak_workload();
  const search::SearchResult ref_c =
      search::run_search(rc.image, &rc.index, *rc.verifier, {});
  EXPECT_EQ(config::to_text(rc.index, ref_c.final_config), clean_text);
}

}  // namespace
}  // namespace fpmix
