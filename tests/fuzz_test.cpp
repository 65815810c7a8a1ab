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
#include <gtest/gtest.h>

#include <bit>

#include "arch/encode.hpp"
#include "config/config.hpp"
#include "instrument/patch.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
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

    // Property C: dataflow-optimized instrumentation matches baseline.
    {
      config::PrecisionConfig cfg;
      for (std::size_t m = 0; m < ix.modules().size(); ++m) {
        cfg.set_module(m, config::Precision::kSingle);
      }
      instrument::InstrumentOptions opts;
      opts.dataflow_optimize = true;
      const program::Image inst =
          instrument::instrument_image(orig, ix, cfg, nullptr, opts);
      const RunOut got = run_image(inst);
      const program::Image base_inst =
          instrument::instrument_image(orig, ix, cfg);
      const RunOut want = run_image(base_inst);
      ASSERT_EQ(got.ok, want.ok) << "seed " << seed;
      if (want.ok) {
        ASSERT_EQ(got.out.size(), want.out.size());
        for (std::size_t i = 0; i < want.out.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got.out[i]),
                    std::bit_cast<std::uint64_t>(want.out[i]))
              << "seed " << seed << " output " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// 3. Config serialization fuzz: canonical-key round-trips over deep
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
