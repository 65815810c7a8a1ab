// Tests for the support layer: string utilities, RNGs, thread pool,
// stable hashing, JSONL journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "support/backoff.hpp"
#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace fpmix {
namespace {

// ---------------------------------------------------------------------------
// Strings.

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("x=%d y=%s", 42, "ok"), "x=42 y=ok");
  EXPECT_EQ(strformat("%.3f", 1.23456), "1.235");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitFields) {
  const auto f = split_fields("  a\tbc   d ");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "bc");
  EXPECT_EQ(f[2], "d");
  EXPECT_TRUE(split_fields("").empty());
  EXPECT_TRUE(split_fields(" \t ").empty());
}

TEST(Strings, SplitLines) {
  const auto l = split_lines("a\n\nb\nc");
  ASSERT_EQ(l.size(), 4u);
  EXPECT_EQ(l[0], "a");
  EXPECT_EQ(l[1], "");
  EXPECT_EQ(l[3], "c");
  EXPECT_TRUE(split_lines("").empty());
}

TEST(Strings, ParseNumbers) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(parse_u64("", &v));
  EXPECT_FALSE(parse_u64("12x", &v));
  EXPECT_TRUE(parse_hex_u64("0x400a1F", &v));
  EXPECT_EQ(v, 0x400a1Fu);
  EXPECT_TRUE(parse_hex_u64("ff", &v));
  EXPECT_EQ(v, 0xFFu);
  EXPECT_FALSE(parse_hex_u64("0x", &v));
  EXPECT_FALSE(parse_hex_u64("0xZZ", &v));
}

// ---------------------------------------------------------------------------
// Stable hashing.

TEST(Hash, MatchesFnv1aReferenceVectors) {
  // Values persisted in journal files must never drift, so pin the
  // published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, MixAndDigest) {
  const std::uint64_t h1 = fnv1a64_mix(kFnv1a64Offset, 1);
  const std::uint64_t h2 = fnv1a64_mix(kFnv1a64Offset, 2);
  EXPECT_NE(h1, h2);
  EXPECT_EQ(hex_digest(0), "0000000000000000");
  EXPECT_EQ(hex_digest(0xdeadbeef), "00000000deadbeef");
  EXPECT_EQ(hex_digest(0xcbf29ce484222325ull), "cbf29ce484222325");
}

// ---------------------------------------------------------------------------
// JSONL journal.

TEST(Json, EscapeRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  const std::string line =
      "{\"k\":\"" + json_escape(nasty) + "\",\"n\":42,\"b\":true}";
  JsonRecord rec;
  ASSERT_TRUE(parse_flat_json(line, &rec));
  EXPECT_EQ(rec["k"], nasty);
  EXPECT_EQ(rec["n"], "42");
  EXPECT_EQ(rec["b"], "true");
}

TEST(Json, RejectsMalformedAndNested) {
  JsonRecord rec;
  EXPECT_TRUE(parse_flat_json("{}", &rec));
  EXPECT_TRUE(rec.empty());
  EXPECT_TRUE(parse_flat_json("  {\"a\" : \"b\" , \"c\" : 1}  ", &rec));
  EXPECT_FALSE(parse_flat_json("", &rec));
  EXPECT_FALSE(parse_flat_json("{\"a\":\"b\"", &rec));       // truncated
  EXPECT_FALSE(parse_flat_json("{\"a\":{\"b\":1}}", &rec));  // nested
  EXPECT_FALSE(parse_flat_json("{\"a\":[1,2]}", &rec));      // array
  EXPECT_FALSE(parse_flat_json("{\"a\":\"b\"}x", &rec));     // trailing junk
  EXPECT_FALSE(parse_flat_json("{\"a\" \"b\"}", &rec));      // missing colon
}

TEST(Journal, AppendAndReadBack) {
  const std::string path = testing::TempDir() + "journal_rw.jsonl";
  std::remove(path.c_str());
  {
    Journal j;
    ASSERT_TRUE(j.open(path));
    j.append("{\"n\":1}");
    j.append("{\"n\":2}");
  }
  {
    Journal j;  // append mode: reopening must not clobber prior records
    ASSERT_TRUE(j.open(path));
    j.append("{\"n\":3}");
  }
  const auto lines = Journal::read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"n\":1}");
  EXPECT_EQ(lines[2], "{\"n\":3}");
  std::remove(path.c_str());
}

TEST(Journal, DropsUnterminatedTailLine) {
  const std::string path = testing::TempDir() + "journal_trunc.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"n\":1}\n{\"n\":2}\n{\"n\":3", f);  // crash mid-append
  std::fclose(f);
  const auto lines = Journal::read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "{\"n\":2}");
  std::remove(path.c_str());
}

TEST(Journal, MissingFileReadsEmpty) {
  EXPECT_TRUE(Journal::read_lines("/nonexistent/nope.jsonl").empty());
  Journal j;
  EXPECT_FALSE(j.open("/nonexistent/nope.jsonl"));
  EXPECT_FALSE(j.is_open());
}

TEST(Journal, ConcurrentSealedAppendsAreAtomicAndSequenced) {
  // Appends are mutex-guarded inside the Journal itself: hammering one
  // journal from several threads must produce only whole, CRC-valid lines
  // with every sequence number unique.
  const std::string path = testing::TempDir() + "journal_mt.jsonl";
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  {
    Journal j;
    ASSERT_TRUE(j.open(path));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&j, t] {
        for (int i = 0; i < kPerThread; ++i) {
          j.append_sealed(strformat("{\"t\":%d,\"i\":%d}", t, i));
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const auto lines = Journal::read_lines(path);
  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::uint64_t> seqs;
  for (const std::string& line : lines) {
    ASSERT_EQ(check_seal(line), SealCheck::kOk) << line;
    // Extract the seq field the seal stamped on the line.
    const std::size_t at = line.find("\"seq\":");
    ASSERT_NE(at, std::string::npos) << line;
    std::uint64_t seq = 0;
    ASSERT_TRUE(parse_u64(line.substr(at + 6,
                                      line.find_first_of(",}", at + 6) -
                                          (at + 6)),
                          &seq))
        << line;
    EXPECT_TRUE(seqs.insert(seq).second) << "duplicate seq " << seq;
  }
  std::remove(path.c_str());
}

TEST(Journal, FsyncModeStillProducesReadableRecords) {
  const std::string path = testing::TempDir() + "journal_fsync.jsonl";
  std::remove(path.c_str());
  {
    Journal j;
    ASSERT_TRUE(j.open(path));
    j.set_fsync(true);
    EXPECT_TRUE(j.fsync_enabled());
    j.append_sealed("{\"durable\":1}");
    j.append("{\"durable\":2}");
  }
  const auto lines = Journal::read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(check_seal(lines[0]), SealCheck::kOk);
  EXPECT_EQ(lines[1], "{\"durable\":2}");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// RNGs.

TEST(Rng, SplitMixIsDeterministicAndSpread) {
  SplitMix64 a(7), b(7), c(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    seen.insert(va);
  }
  EXPECT_EQ(seen.size(), 1000u);       // no collisions in practice
  EXPECT_NE(c.next_u64(), *seen.begin());
  for (int i = 0; i < 1000; ++i) {
    const double d = a.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NasLcgMatchesKnownStream) {
  // randlc with the EP seed: the stream must be reproducible and uniform,
  // and the state must stay within 46 bits (the property that breaks under
  // single precision).
  NasLcg lcg;
  double mean = 0;
  for (int i = 0; i < 4096; ++i) {
    const double r = lcg.next();
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 1.0);
    EXPECT_LT(lcg.seed(), 0x1.0p46);
    EXPECT_EQ(lcg.seed(), std::floor(lcg.seed()));  // integral state
    mean += r;
  }
  mean /= 4096;
  EXPECT_NEAR(mean, 0.5, 0.02);

  // Determinism across instances.
  NasLcg l1, l2;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(l1.next(), l2.next());
}

// ---------------------------------------------------------------------------
// Jittered exponential backoff.

TEST(Backoff, ZeroFailuresMeansNoDelay) {
  EXPECT_EQ(backoff_delay_ms(BackoffPolicy{}, 0, 0), 0u);
}

TEST(Backoff, StaysInsideJitteredEnvelope) {
  BackoffPolicy policy;  // base 2ms, cap 200ms, jitter 0.25
  SplitMix64 rng(0xB0FFu);
  for (std::uint32_t failures = 1; failures <= 64; ++failures) {
    // Un-jittered envelope: base doubling per failure, saturating at cap.
    std::uint64_t raw = policy.base_ms;
    for (std::uint32_t i = 1; i < failures && raw < policy.cap_ms; ++i) {
      raw <<= 1;
    }
    raw = std::min(raw, policy.cap_ms);
    const std::uint64_t lo = static_cast<std::uint64_t>(
        static_cast<double>(raw) * (1.0 - policy.jitter));
    for (int draw = 0; draw < 100; ++draw) {
      const std::uint64_t ms =
          backoff_delay_ms(policy, failures, rng.next_u64());
      EXPECT_GE(ms, std::max<std::uint64_t>(1, lo));
      EXPECT_LE(ms, policy.cap_ms);
    }
  }
}

TEST(Backoff, HugeFailureCountSaturatesAtCapWithoutOverflow) {
  BackoffPolicy policy;
  policy.base_ms = 50;
  policy.cap_ms = 2000;
  policy.jitter = 0.0;
  EXPECT_EQ(backoff_delay_ms(policy, 1, 0), 50u);
  EXPECT_EQ(backoff_delay_ms(policy, 2, 0), 100u);
  EXPECT_EQ(backoff_delay_ms(policy, 7, 0), 2000u);  // 50 << 6 = 3200 -> cap
  EXPECT_EQ(backoff_delay_ms(policy, 1000000, 0), 2000u);
  EXPECT_EQ(backoff_delay_ms(policy, 0xFFFFFFFFu, 0), 2000u);
}

TEST(Backoff, JitterActuallyVariesAndIsDeterministic) {
  BackoffPolicy policy;
  policy.base_ms = 100;
  policy.cap_ms = 100000;  // keep the cap out of the way
  policy.jitter = 0.5;
  std::set<std::uint64_t> seen;
  SplitMix64 rng(42);
  for (int i = 0; i < 50; ++i) {
    seen.insert(backoff_delay_ms(policy, 1, rng.next_u64()));
  }
  EXPECT_GT(seen.size(), 10u);  // the draws spread over [50, 150]
  // Same seed, same stream: the stateful wrapper replays identically.
  Backoff a(policy, 7), b(policy, 7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_ms(), b.next_ms());
  EXPECT_EQ(a.failures(), 10u);
  a.reset();
  EXPECT_EQ(a.failures(), 0u);
}

TEST(Backoff, DegeneratePoliciesClampSanely) {
  BackoffPolicy policy;
  policy.base_ms = 0;  // clamped to 1
  policy.cap_ms = 0;   // clamped to 1
  policy.jitter = 1.0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t ms =
        backoff_delay_ms(policy, static_cast<std::uint32_t>(i + 1),
                         static_cast<std::uint64_t>(i) << 59);
    EXPECT_EQ(ms, 1u);  // floor 1, cap 1
  }
}

}  // namespace
}  // namespace fpmix
