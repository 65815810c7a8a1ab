// Length-prefixed, CRC-sealed pipe protocol between the search driver and
// its sandboxed trial workers.
//
// A frame is `magic u32 | payload_len u32 | payload | crc32(payload) u32`,
// all little-endian. The CRC (the same IEEE CRC-32 that seals journal
// records) turns a worker dying mid-write -- or a fault campaign corrupting
// the stream on purpose -- into a *detected* protocol error the supervisor
// classifies and retries, never into a silently wrong trial verdict.
//
// Payloads are flat field sequences (u8/u32/u64/length-prefixed string)
// with no alignment or host-endianness dependence; both directions are
// plain functions over std::string so the whole protocol unit-tests
// in-process without forking anything.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/fault.hpp"
#include "verify/evaluate.hpp"

namespace fpmix::runner {

/// Frame magic ("FPMX"); a stream that does not start with it is corrupt.
constexpr std::uint32_t kFrameMagic = 0x46504D58u;
/// Hard cap on a frame payload; anything larger is treated as corruption
/// (trial requests and results are a few hundred bytes).
constexpr std::uint32_t kMaxFramePayload = 1u << 24;

/// Wraps `payload` in a frame (magic + length + payload + CRC).
std::string encode_frame(std::string_view payload);

enum class FrameStatus : std::uint8_t {
  kOk,        // one complete, CRC-verified frame was extracted
  kNeedMore,  // the buffer holds only a frame prefix so far
  kCorrupt,   // bad magic, oversized length, or CRC mismatch
};

/// Tries to extract one frame from the front of `buffer`. On kOk, *payload
/// receives the verified payload and *consumed the number of buffer bytes
/// to discard; both are untouched otherwise.
FrameStatus decode_frame(std::string_view buffer, std::string* payload,
                         std::size_t* consumed);

// ---- Payload field primitives ---------------------------------------------

void put_u8(std::string* out, std::uint8_t v);
void put_u32(std::string* out, std::uint32_t v);
void put_u64(std::string* out, std::uint64_t v);
void put_string(std::string* out, std::string_view s);

/// Sequential field reader; any malformed read poisons the reader (ok()
/// turns false and every later read returns zero values).
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}
  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();
  bool ok() const { return ok_; }
  /// True when every byte was consumed and no read failed.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool take(std::size_t n);
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Sandbox spec ----------------------------------------------------------

/// The evaluation rules a sandbox runs trials under: everything besides the
/// workload that decides a verdict, plus the supervisor's crash envelope.
/// The search builds one; the session handshake ships it whole to remote
/// runners, so a local pool and a runner_serve backend started from equal
/// specs evaluate identically.
struct SandboxSpec {
  /// All engines are bit-identical, so this is a performance choice.
  vm::Engine engine = vm::Engine::kMicroOp;
  std::uint64_t max_instructions = 1ull << 32;
  /// VM wall-clock deadline per trial; 0 disables.
  std::uint64_t deadline_ms = 0;
  /// Per-config circuit breaker (PoolOptions::max_crashes_per_config).
  std::uint32_t max_crashes = 3;
  /// Worker RLIMIT_AS in MiB; 0 leaves it uncapped.
  std::uint64_t rlimit_mb = 512;
  /// Fault campaign: both sides re-derive every per-trial draw from it.
  bool has_fault = false;
  std::uint64_t fault_seed = 0;
  fault::Injector::Rates fault_rates{};
};

/// Appends the spec's fields; equal specs encode to equal bytes.
void put_spec(std::string* out, const SandboxSpec& spec);
/// Reads a spec put_spec wrote. False on a short read or an unknown engine.
bool read_spec(WireReader* r, SandboxSpec* out);

// ---- Trial request (driver -> worker) -------------------------------------

struct TrialRequest {
  std::string key;         // config digest (journal identity, injector key)
  std::uint32_t exec_index = 0;  // per-config execution counter; the fault
                                 // injector's attempt index, so crash
                                 // retries draw fresh faults
  std::string config_key;  // PrecisionConfig::canonical_key()
};

std::string encode_request(const TrialRequest& req);
bool decode_request(std::string_view payload, TrialRequest* out);

// ---- Trial result (worker -> driver) --------------------------------------

/// Encodes the slice of an EvalResult the search driver consumes: verdict,
/// failure class and text, run status, retired count and cost. Outputs and
/// instrumentation stats stay in the worker; the verifier already judged
/// them there.
std::string encode_result(const verify::EvalResult& r);
/// Inverse of encode_result, leaving the unshipped fields default. Rejects
/// out-of-range enum values: a corrupt-but-CRC-passing byte cannot smuggle
/// an unknown class into the search.
bool decode_result(std::string_view payload, verify::EvalResult* out);

}  // namespace fpmix::runner
