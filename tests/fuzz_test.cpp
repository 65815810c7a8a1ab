// Property-based differential testing.
//
//  1. Decoder robustness: random byte strings either fail to decode with
//     DecodeError or decode to an instruction that re-encodes to the exact
//     same bytes (no silent mis-parses -- the property a binary rewriter
//     lives or dies by).
//  2. Random-program differential: generate random (but type-correct)
//     mini-language programs; for each, verify the paper's two central
//     correctness properties hold: all-double instrumentation is
//     bit-identical to the original, and all-single instrumentation is
//     bit-identical to the manually converted single build.
//  3. Elision differential: under random mixed configurations, production
//     instrumentation (tag-state elision) behaves bit for bit like the
//     Figure 6 reference snippet on the micro-op and JIT engines.
//  4. Scratch-state differential: hand-assembled programs that keep r0
//     live, read FP operands through sp and mix stack and memory writes
//     into FP code: all-double instrumentation equals the original, mixed
//     configurations equal the reference.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <string>

#include "arch/encode.hpp"
#include "asm/assembler.hpp"
#include "config/config.hpp"
#include "instrument/patch.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "reference_instrument.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "vm/machine.hpp"

namespace fpmix {
namespace {

// ---------------------------------------------------------------------------
// 1. Decoder fuzz.

class DecoderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DecoderFuzz, MalformedBytesNeverMisparse) {
  SplitMix64 rng(0xF00D + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(2 + rng.next_below(18));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    arch::Instr ins;
    try {
      const std::uint32_t n = arch::decode(bytes, 0, 0x400000, &ins);
      // Decoded: must re-encode to the identical prefix.
      std::vector<std::uint8_t> re;
      arch::encode(ins, &re);
      ASSERT_EQ(re.size(), n);
      for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(re[i], bytes[i]) << "byte " << i;
      }
    } catch (const DecodeError&) {
      // Rejected cleanly: fine.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// 2. Random-program differential.

/// Generates a random type-correct program: a pool of f64 scalars and one
/// array, mutated by a random sequence of statements (arithmetic chains,
/// loops, conditionals, math intrinsics), with every scalar emitted at the
/// end.
lang::ProgramModel random_model(std::uint64_t seed) {
  SplitMix64 rng(seed);
  lang::Builder b;

  constexpr int kScalars = 5;
  std::vector<lang::Var> vars;
  for (int i = 0; i < kScalars; ++i) {
    vars.push_back(b.var_f64("v" + std::to_string(i)));
  }
  lang::Arr arr = b.array_f64("arr", 16);
  lang::Var idx = b.var_i64("idx");

  b.begin_func("main", "fuzz");

  // Deterministic, bounded initial values keep everything finite.
  for (int i = 0; i < kScalars; ++i) {
    b.set(vars[i], b.cf(rng.next_double(0.5, 3.0)));
  }
  b.for_(idx, b.ci(0), b.ci(16), [&] {
    b.store(arr, lang::Expr(idx),
            to_f64(idx) * b.cf(rng.next_double(0.01, 0.2)) + b.cf(1.0));
  });

  // Random f64 expression over the pool: a small tree.
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
      case 3: return a / (fabs_(c) + b.cf(1.0));  // keep away from 0
      case 4: return sqrt_(fabs_(a) + b.cf(0.5));
      case 5: return min_(a, c);
      default: return sin_(a);
    }
  };

  // Random statement sequence.
  const int num_stmts = 6 + static_cast<int>(rng.next_below(8));
  for (int s = 0; s < num_stmts; ++s) {
    switch (rng.next_below(4)) {
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
      default: {
        const auto tgt = rng.next_below(kScalars);
        b.if_else(rand_expr(1) < rand_expr(1),
                  [&] { b.set(vars[tgt], rand_expr(2)); },
                  [&] { b.set(vars[tgt], rand_expr(2) + b.cf(0.125)); });
        break;
      }
    }
  }

  // Outputs are funnelled through one multiplication. This matters: the
  // instrumenter replaces *instructions*, so a value that only ever moves
  // (constant -> variable -> output) legitimately keeps its full double
  // precision -- moves are bit-preserving and never wrapped. The paper's
  // bit-exactness claim (and this property test) applies to values that
  // flow through at least one floating-point operation, which is true of
  // every real benchmark output. Multiplying by 1.0 is exact in both
  // precisions and forces that flow.
  for (int i = 0; i < kScalars; ++i) {
    b.output(lang::Expr(vars[i]) * b.cf(1.0));
  }
  b.end_func();
  return b.take_model();
}

struct RunOut {
  bool ok;
  std::vector<double> out;
};

RunOut run_image(const program::Image& img) {
  vm::Machine m(img);
  const vm::RunResult r = m.run();
  return {r.ok(), m.output_f64()};
}

/// Trial count for the env-scaled differential: FPMIX_ENGINE_FUZZ_TRIALS
/// when set (CI runs deeper), else `fallback` (light for local runs).
int env_trials(int fallback) {
  if (const char* env = std::getenv("FPMIX_ENGINE_FUZZ_TRIALS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<int>(n);
  }
  return fallback;
}

/// Random block- and instruction-level single/double flags (a block flag
/// overrides its instructions' flags). Flags land on non-candidates too, so
/// the demotion rule is exercised; `ignore_one_in` > 0 also draws `ignore`
/// at that rate.
config::PrecisionConfig random_mixed_config(const config::StructureIndex& ix,
                                            SplitMix64* rng,
                                            std::uint64_t ignore_one_in = 0) {
  const auto pick = [&] {
    if (ignore_one_in > 0 && rng->next_below(ignore_one_in) == 0) {
      return config::Precision::kIgnore;
    }
    return rng->next_below(2) == 0 ? config::Precision::kSingle
                                   : config::Precision::kDouble;
  };
  config::PrecisionConfig cfg;
  for (std::size_t b = 0; b < ix.blocks().size(); ++b) {
    if (rng->next_below(4) == 0) cfg.set_block(b, pick());
  }
  for (std::size_t i = 0; i < ix.instrs().size(); ++i) {
    if (rng->next_below(2) == 0) cfg.set_instr(i, pick());
  }
  return cfg;
}

struct EngineRun {
  vm::RunResult result;
  std::vector<double> out;
};

EngineRun run_on(const program::Image& img, vm::Engine engine) {
  vm::Machine::Options opts;
  opts.engine = engine;
  opts.profile = false;
  vm::Machine m(img, opts);
  EngineRun r{m.run(), {}};
  r.out = m.output_f64();
  return r;
}

/// Production instrument_image() against the unelided reference under
/// `cfg`: same status, sentinel flag and output bits on both engines, and
/// never more retired instructions.
void expect_elision_matches_reference(const program::Image& orig,
                                      const config::StructureIndex& ix,
                                      const config::PrecisionConfig& cfg,
                                      const std::string& what) {
  const program::Image elided = instrument::instrument_image(orig, ix, cfg);
  const program::Image ref = reference::instrument_image(orig, ix, cfg);
  for (const vm::Engine engine : {vm::Engine::kMicroOp, vm::Engine::kJit}) {
    const EngineRun got = run_on(elided, engine);
    const EngineRun want = run_on(ref, engine);
    const std::string where =
        what + (engine == vm::Engine::kJit ? " (jit)" : " (micro-op)");
    ASSERT_EQ(got.result.status, want.result.status)
        << where << ": " << got.result.trap_message << " vs "
        << want.result.trap_message;
    ASSERT_EQ(got.result.sentinel_escape, want.result.sentinel_escape)
        << where;
    ASSERT_EQ(got.out.size(), want.out.size()) << where;
    for (std::size_t i = 0; i < want.out.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.out[i]),
                std::bit_cast<std::uint64_t>(want.out[i]))
          << where << " output " << i;
    }
    ASSERT_LE(got.result.instructions_retired,
              want.result.instructions_retired)
        << where;
  }
}

class ProgramFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProgramFuzz, InstrumentationPropertiesHold) {
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t seed =
        0xABCD * static_cast<std::uint64_t>(GetParam() + 1) +
        static_cast<std::uint64_t>(trial);
    const lang::ProgramModel model = random_model(seed);

    const program::Image orig =
        program::relayout(lang::compile(model, lang::Mode::kDouble));
    const RunOut base = run_image(orig);
    ASSERT_TRUE(base.ok) << "seed " << seed;

    const auto ix = config::StructureIndex::build(program::lift(orig));

    // Property A: all-double instrumentation is semantics-preserving.
    {
      const program::Image inst =
          instrument::instrument_image(orig, ix, {});
      const RunOut got = run_image(inst);
      ASSERT_TRUE(got.ok) << "seed " << seed;
      ASSERT_EQ(got.out.size(), base.out.size());
      for (std::size_t i = 0; i < base.out.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.out[i]),
                  std::bit_cast<std::uint64_t>(base.out[i]))
            << "seed " << seed << " output " << i;
      }
    }

    // Property B: all-single instrumentation == manual conversion.
    {
      config::PrecisionConfig cfg;
      for (std::size_t m = 0; m < ix.modules().size(); ++m) {
        cfg.set_module(m, config::Precision::kSingle);
      }
      const program::Image inst =
          instrument::instrument_image(orig, ix, cfg);
      const RunOut got = run_image(inst);

      const program::Image manual =
          program::relayout(lang::compile(model, lang::Mode::kSingle));
      const RunOut want = run_image(manual);

      ASSERT_EQ(got.ok, want.ok) << "seed " << seed;
      if (!want.ok) continue;
      ASSERT_EQ(got.out.size(), want.out.size());
      for (std::size_t i = 0; i < want.out.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.out[i]),
                  std::bit_cast<std::uint64_t>(want.out[i]))
            << "seed " << seed << " output " << i;
      }
    }

    // Property C: production instrumentation (tag-state elision) matches
    // the unelided reference, all-single and under mixed configurations.
    {
      config::PrecisionConfig cfg;
      for (std::size_t m = 0; m < ix.modules().size(); ++m) {
        cfg.set_module(m, config::Precision::kSingle);
      }
      expect_elision_matches_reference(orig, ix, cfg,
                                       "seed " + std::to_string(seed));
      if (::testing::Test::HasFatalFailure()) return;
      SplitMix64 rng(seed ^ 0x5EED);
      for (int c = 0; c < env_trials(1); ++c) {
        expect_elision_matches_reference(
            orig, ix, random_mixed_config(ix, &rng),
            "seed " + std::to_string(seed) + " mixed config " +
                std::to_string(c));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// 3. Elision differential on hand-shaped code (Property C above covers the
// DSL programs).

/// Random straight-line code over xmm0-5 in 1-3 blocks (joined by jumps to
/// the next instruction, so the tag-state dataflow restarts at each head):
/// scalar sd arithmetic (register and memory sources), 1- and 2-argument
/// intrinsics, cvtsd2ss/cvtss2sd/cvtsi2sd and movsd, ending with every
/// register emitted. These are the sequences that exercise which registers
/// a wrapped instruction leaves in a known tag state.
program::Image random_asm_image(std::uint64_t seed) {
  using arch::Opcode;
  using arch::Operand;
  namespace in = arch::intrinsics;
  SplitMix64 rng(seed);
  casm::Assembler as;
  as.begin_function("main", "fuzz");
  std::vector<Operand> consts;
  for (int k = 0; k < 4; ++k) {
    consts.push_back(Operand::mem_abs(static_cast<std::int32_t>(
        as.data_f64(rng.next_double(0.25, 4.0)))));
  }
  const auto xmm = [&] {
    return Operand::xmm(static_cast<std::uint8_t>(rng.next_below(6)));
  };
  const auto konst = [&] { return consts[rng.next_below(consts.size())]; };
  for (std::uint8_t r = 0; r < 6; ++r) {
    as.emit(Opcode::kMovsdXM, Operand::xmm(r), konst());
  }
  constexpr Opcode kArith[] = {Opcode::kAddsd, Opcode::kSubsd,
                               Opcode::kMulsd, Opcode::kDivsd,
                               Opcode::kMinsd, Opcode::kMaxsd,
                               Opcode::kSqrtsd};
  constexpr in::Id kUnary[] = {in::Id::kSin, in::Id::kExp, in::Id::kFabs,
                               in::Id::kFloor};
  const int blocks = 1 + static_cast<int>(rng.next_below(3));
  for (int blk = 0; blk < blocks; ++blk) {
    if (blk > 0) {
      const casm::Label next = as.new_label();
      as.jmp(next);
      as.bind(next);
    }
    const int len = 4 + static_cast<int>(rng.next_below(10));
    for (int k = 0; k < len; ++k) {
      switch (rng.next_below(8)) {
        case 0: case 1: case 2:
          as.emit(kArith[rng.next_below(std::size(kArith))], xmm(), xmm());
          break;
        case 3:
          as.emit(kArith[rng.next_below(std::size(kArith))], xmm(),
                  konst());
          break;
        case 4:
          as.intrin(rng.next_below(3) == 0
                        ? in::Id::kPow
                        : kUnary[rng.next_below(std::size(kUnary))]);
          break;
        case 5:
          as.emit(rng.next_below(2) == 0 ? Opcode::kCvtsd2ss
                                         : Opcode::kCvtss2sd,
                  xmm(), xmm());
          break;
        case 6:
          as.emit(Opcode::kMov, Operand::gpr(2),
                  Operand::make_imm(static_cast<std::int64_t>(
                      rng.next_below(100))));
          as.emit(Opcode::kCvtsi2sd, xmm(), Operand::gpr(2));
          break;
        default:
          as.emit(Opcode::kMovsdXX, xmm(), xmm());
          break;
      }
    }
  }
  for (std::uint8_t r = 0; r < 6; ++r) {
    as.emit(Opcode::kMovsdXX, Operand::xmm(0), Operand::xmm(r));
    as.intrin(in::Id::kOutputF64);
  }
  as.halt();
  as.end_function();
  return program::relayout(as.finish("main"));
}

class ElisionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ElisionFuzz, AsmMixedConfigsMatchReference) {
  for (int trial = 0; trial < 24 * env_trials(1); ++trial) {
    const std::uint64_t seed =
        0xE1DE * static_cast<std::uint64_t>(GetParam() + 1) +
        static_cast<std::uint64_t>(trial);
    const program::Image orig = random_asm_image(seed);
    const auto ix = config::StructureIndex::build(program::lift(orig));
    SplitMix64 rng(seed ^ 0xC0F);
    for (int c = 0; c < 3; ++c) {
      expect_elision_matches_reference(
          orig, ix, random_mixed_config(ix, &rng, c == 2 ? 16 : 0),
          "asm seed " + std::to_string(seed) + " config " +
              std::to_string(c));
      if (HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElisionFuzz, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// 4. Scratch-state differential: hand-assembled code the DSL never emits.
// Production snippets save r0 (and xmm15/xmm14) once per run of wrapped
// instructions and rebase sp-relative sources by the frame depth, so these
// programs keep r0 live across FP code, read FP operands through sp, and
// put push/pop, stores, integer intrinsics, packed ops and cvtsi2sd from r0
// between FP instructions.

/// Random straight-line code in 1-4 blocks (joined by jumps, by cmp+jl and
/// by ucomisd+jb to the next block) over xmm0-7 plus xmm14/xmm15 in scalar
/// register ops. Two 16-byte stack slots hold f64 data for sp-relative
/// sources. It ends by emitting xmm0-7, xmm14, xmm15, r0, r2, r3 and, last,
/// sp (so a caller can compare the stack above it).
program::Image random_scratch_image(std::uint64_t seed) {
  using arch::Opcode;
  using arch::Operand;
  namespace in = arch::intrinsics;
  SplitMix64 rng(seed);
  casm::Assembler as;
  as.begin_function("main", "fuzz");
  const auto abs = [](std::uint64_t a) {
    return Operand::mem_abs(static_cast<std::int32_t>(a));
  };
  std::vector<std::uint64_t> consts;  // 16-byte aligned pairs
  for (int k = 0; k < 6; ++k) {
    consts.push_back(as.data_f64(rng.next_double(0.25, 4.0)));
  }
  const std::uint64_t bss = as.reserve_bss(32, 16);
  const auto pick = [&](std::uint64_t n) { return rng.next_below(n); };
  const auto low_xmm = [&] {
    return Operand::xmm(static_cast<std::uint8_t>(pick(8)));
  };
  const auto any_xmm = [&] {
    const std::uint64_t r = pick(10);
    return Operand::xmm(static_cast<std::uint8_t>(r < 8 ? r : r + 6));
  };
  const auto sp_slot = [&](std::int32_t align) {
    return Operand::mem_bd(arch::kSpReg,
                           align * static_cast<std::int32_t>(pick(32 / align)));
  };
  const auto scalar_src = [&]() -> Operand {
    switch (pick(4)) {
      case 0: return abs(consts[pick(consts.size())]);
      case 1: return abs(bss + 8 * pick(4));
      default: return sp_slot(8);
    }
  };
  for (std::uint8_t r = 0; r < 8; ++r) {
    as.emit(Opcode::kMovsdXM, Operand::xmm(r), abs(consts[pick(6)]));
  }
  as.emit(Opcode::kMovsdXM, Operand::xmm(14), abs(consts[pick(6)]));
  as.emit(Opcode::kMovsdXM, Operand::xmm(15), abs(consts[pick(6)]));
  as.emit(Opcode::kMov, Operand::gpr(0),
          Operand::make_imm(static_cast<std::int64_t>(1000 + pick(1000))));
  as.emit(Opcode::kMov, Operand::gpr(2), Operand::make_imm(3));
  as.emit(Opcode::kMov, Operand::gpr(3), Operand::make_imm(5));
  as.emit(Opcode::kMovapdXM, Operand::xmm(1), abs(consts[0]));
  as.emit(Opcode::kPushX, Operand::xmm(1));
  as.emit(Opcode::kMovapdXM, Operand::xmm(1), abs(consts[2]));
  as.emit(Opcode::kPushX, Operand::xmm(1));

  constexpr Opcode kArith[] = {Opcode::kAddsd, Opcode::kSubsd,
                               Opcode::kMulsd, Opcode::kDivsd,
                               Opcode::kMinsd, Opcode::kMaxsd,
                               Opcode::kSqrtsd};
  constexpr Opcode kPacked[] = {Opcode::kAddpd, Opcode::kSubpd,
                                Opcode::kMulpd, Opcode::kSqrtpd};
  constexpr in::Id kMath[] = {in::Id::kSin, in::Id::kExp, in::Id::kFabs,
                              in::Id::kPow};
  const auto arith = [&] { return kArith[pick(std::size(kArith))]; };
  const int blocks = 1 + static_cast<int>(pick(4));
  for (int blk = 0; blk < blocks; ++blk) {
    if (blk > 0) {
      const casm::Label next = as.new_label();
      switch (pick(3)) {
        case 0:
          as.jmp(next);
          break;
        case 1:
          as.emit(Opcode::kCmp, Operand::gpr(2), Operand::make_imm(4));
          as.jl(next);
          break;
        default:
          as.emit(Opcode::kUcomisd, low_xmm(), low_xmm());
          as.jb(next);
          break;
      }
      as.bind(next);
    }
    const int len = 4 + static_cast<int>(pick(14));
    for (int k = 0; k < len; ++k) {
      switch (pick(16)) {
        case 0: case 1: case 2:
          as.emit(arith(), any_xmm(), any_xmm());
          break;
        case 3: case 4:
          as.emit(arith(), low_xmm(), scalar_src());
          break;
        case 5: {
          const std::uint64_t c = pick(3);
          as.emit(kPacked[pick(std::size(kPacked))], low_xmm(),
                  c == 0   ? low_xmm()
                  : c == 1 ? abs(consts[2 * pick(3)])
                           : sp_slot(16));
          break;
        }
        case 6:
          as.intrin(kMath[pick(std::size(kMath))]);
          break;
        case 7:
          // Reads r0 (cvtsi2ss from r0 when narrowed) or r2.
          as.emit(Opcode::kCvtsi2sd, low_xmm(),
                  Operand::gpr(pick(2) == 0 ? 0 : 2));
          break;
        case 8:
          // r0 is a live program value: update it between FP code.
          if (pick(2) == 0) {
            as.emit(Opcode::kAdd, Operand::gpr(0),
                    Operand::make_imm(static_cast<std::int64_t>(pick(9))));
          } else {
            as.emit(Opcode::kMov, Operand::gpr(3), Operand::gpr(0));
          }
          break;
        case 9:
          as.intrin(pick(2) == 0 ? in::Id::kMpiRank : in::Id::kMpiSize);
          break;
        case 10:
          // push/pop around an FP op (sp-relative sources shift by 8).
          as.emit(Opcode::kPush, Operand::gpr(2));
          as.emit(arith(), low_xmm(), pick(2) == 0 ? any_xmm() : sp_slot(8));
          as.emit(Opcode::kPop, Operand::gpr(3));
          break;
        case 11:
          switch (pick(3)) {
            case 0:
              as.emit(Opcode::kStore, abs(bss + 8 * pick(4)),
                      Operand::gpr(pick(2) == 0 ? 0 : 2));
              break;
            case 1:
              as.emit(Opcode::kMovsdMX, abs(bss + 8 * pick(4)), low_xmm());
              break;
            default:
              as.emit(Opcode::kMovsdMX, sp_slot(8), low_xmm());
              break;
          }
          break;
        case 12:
          as.emit(Opcode::kLoad, Operand::gpr(2), sp_slot(8));
          as.emit(Opcode::kAnd, Operand::gpr(2), Operand::make_imm(7));
          break;
        case 13:
          as.emit(pick(2) == 0 ? Opcode::kCvtsd2ss : Opcode::kCvtss2sd,
                  low_xmm(), low_xmm());
          break;
        case 14:
          as.emit(Opcode::kMovsdXX, any_xmm(), any_xmm());
          break;
        default:
          as.emit(Opcode::kLea, Operand::gpr(3),
                  Operand::mem_bd(arch::kSpReg, 8));
          break;
      }
    }
  }
  for (const int r : {0, 1, 2, 3, 4, 5, 6, 7, 14, 15}) {
    if (r != 0) {
      as.emit(Opcode::kMovsdXX, Operand::xmm(0),
              Operand::xmm(static_cast<std::uint8_t>(r)));
    }
    as.intrin(in::Id::kOutputF64);
  }
  for (const std::uint8_t g : {std::uint8_t{0}, std::uint8_t{2}, std::uint8_t{3}, arch::kSpReg}) {
    as.emit(Opcode::kMov, Operand::gpr(1), Operand::gpr(g));
    as.intrin(in::Id::kOutputI64);
  }
  as.halt();
  as.end_function();
  return program::relayout(as.finish("main"));
}

/// What a run of a random_scratch_image shows: status, sentinel flag,
/// both output channels, and (after a clean halt) the guest memory from the
/// final sp (its last i64 output) to the top, plus the bss.
struct ScratchRun {
  vm::RunResult result;
  std::vector<std::uint64_t> f64;
  std::vector<std::int64_t> i64;
  std::vector<std::uint8_t> stack, bss;
};

ScratchRun run_scratch(const program::Image& img, vm::Engine engine) {
  vm::Machine::Options opts;
  opts.engine = engine;
  opts.profile = false;
  opts.max_instructions = 1u << 20;
  vm::Machine m(img, opts);
  ScratchRun r;
  r.result = m.run();
  for (const double v : m.output_f64()) {
    r.f64.push_back(std::bit_cast<std::uint64_t>(v));
  }
  r.i64 = m.output_i64();
  if (r.result.ok() && !r.i64.empty()) {
    const auto sp = static_cast<std::uint64_t>(r.i64.back());
    r.stack = m.read_memory(sp, img.memory_size - sp);
    r.bss = m.read_memory(img.effective_bss_base(), img.bss_size);
  }
  return r;
}

void expect_same_run(const ScratchRun& got, const ScratchRun& want,
                     const std::string& where) {
  ASSERT_EQ(got.result.status, want.result.status)
      << where << ": " << got.result.trap_message << " vs "
      << want.result.trap_message;
  ASSERT_EQ(got.result.sentinel_escape, want.result.sentinel_escape)
      << where;
  ASSERT_EQ(got.f64, want.f64) << where;
  ASSERT_EQ(got.i64, want.i64) << where;
  ASSERT_EQ(got.stack, want.stack) << where << ": stack above the final sp";
  ASSERT_EQ(got.bss, want.bss) << where << ": bss";
}

class ScratchStateFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ScratchStateFuzz, AllDoubleMatchesOriginalMixedMatchesReference) {
  for (int trial = 0; trial < 30 * env_trials(1); ++trial) {
    const std::uint64_t seed =
        0x5C2A * static_cast<std::uint64_t>(GetParam() + 1) +
        static_cast<std::uint64_t>(trial);
    const program::Image orig = random_scratch_image(seed);
    const auto ix = config::StructureIndex::build(program::lift(orig));
    const program::Image all_double =
        instrument::instrument_image(orig, ix, {});
    SplitMix64 rng(seed ^ 0x5C2A);
    std::vector<config::PrecisionConfig> mixed;
    for (int c = 0; c < 3; ++c) {
      mixed.push_back(random_mixed_config(ix, &rng, c == 2 ? 16 : 0));
    }
    for (const vm::Engine engine : {vm::Engine::kMicroOp, vm::Engine::kJit}) {
      const std::string where =
          "seed " + std::to_string(seed) +
          (engine == vm::Engine::kJit ? " (jit)" : " (micro-op)");
      // (a) All-double instrumentation preserves the program's semantics.
      expect_same_run(run_scratch(all_double, engine),
                      run_scratch(orig, engine), where + " all-double");
      if (HasFatalFailure()) return;
      // (b) Mixed configurations match the Figure 6 reference.
      for (std::size_t c = 0; c < mixed.size(); ++c) {
        const ScratchRun got = run_scratch(
            instrument::instrument_image(orig, ix, mixed[c]), engine);
        const ScratchRun want = run_scratch(
            reference::instrument_image(orig, ix, mixed[c]), engine);
        expect_same_run(got, want, where + " config " + std::to_string(c));
        if (HasFatalFailure()) return;
        ASSERT_LE(got.result.instructions_retired,
                  want.result.instructions_retired)
            << where << " config " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScratchStateFuzz, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// 5. Config serialization fuzz: canonical-key round-trips over deep
// hierarchical configs (flags at every level, ids spanning sixteen orders
// of binary magnitude), and damaged keys the parser must reject cleanly.

config::PrecisionConfig random_config(SplitMix64* rng, std::size_t max_flags) {
  config::PrecisionConfig cfg;
  const auto precision = [&] {
    return rng->next_below(2) == 0 ? config::Precision::kDouble
                                   : config::Precision::kSingle;
  };
  const std::size_t n = rng->next_below(max_flags + 1);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t id = static_cast<std::size_t>(
        rng->next_below(1ull << (1 + rng->next_below(16))));
    switch (rng->next_below(4)) {
      case 0: cfg.set_module(id, precision()); break;
      case 1: cfg.set_func(id, precision()); break;
      case 2: cfg.set_block(id, precision()); break;
      default: cfg.set_instr(id, precision()); break;
    }
  }
  return cfg;
}

class ConfigFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConfigFuzz, CanonicalKeyRoundTrips) {
  SplitMix64 rng(0xC0F16 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 500; ++trial) {
    const config::PrecisionConfig cfg = random_config(&rng, 64);
    const std::string key = cfg.canonical_key();
    config::PrecisionConfig back;
    ASSERT_TRUE(config::PrecisionConfig::from_canonical_key(key, &back))
        << key;
    ASSERT_EQ(back.canonical_key(), key);
    ASSERT_EQ(back.stable_hash(), cfg.stable_hash());
  }
}

TEST_P(ConfigFuzz, MalformedCanonicalKeysNeverCorrupt) {
  // from_canonical_key is the only config parser a sandboxed worker or a
  // runner daemon runs on received bytes.
  SplitMix64 rng(0xBAD0 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 500; ++trial) {
    std::string junk;
    if (rng.next_below(2) == 0) {
      junk.resize(rng.next_below(24));
      for (auto& c : junk) c = static_cast<char>(rng.next_u64());
    } else {
      // A real key with a few bytes overwritten, or cut short: the
      // damage a parser sees most often gets past the first segment.
      junk = random_config(&rng, 16).canonical_key();
      if (!junk.empty() && rng.next_below(2) == 0) {
        junk.resize(rng.next_below(junk.size()));
      }
      for (std::uint64_t k = rng.next_below(3); k > 0 && !junk.empty(); --k) {
        junk[rng.next_below(junk.size())] = static_cast<char>(rng.next_u64());
      }
    }
    config::PrecisionConfig out;
    // Either rejected or parsed; never crashes, and on success the result
    // still round-trips through its own canonical key.
    if (config::PrecisionConfig::from_canonical_key(junk, &out)) {
      config::PrecisionConfig back;
      ASSERT_TRUE(config::PrecisionConfig::from_canonical_key(
          out.canonical_key(), &back));
      ASSERT_EQ(back.canonical_key(), out.canonical_key());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace fpmix
