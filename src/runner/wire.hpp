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

// ---- Trial request (driver -> worker) -------------------------------------

/// Request opcodes: how `config_key` is to be interpreted.
constexpr std::uint8_t kReqFull = 1;   // full canonical_key serialization
constexpr std::uint8_t kReqDelta = 2;  // delta script against the worker's
                                       // session base config (see
                                       // PrecisionConfig::apply_delta)

struct TrialRequest {
  std::uint8_t opcode = kReqFull;
  std::string key;         // config digest (journal identity, injector key)
  std::uint32_t exec_index = 0;  // per-config execution counter; the fault
                                 // injector's attempt index, so crash
                                 // retries draw fresh faults
  std::string config_key;  // full canonical key (kReqFull) or delta script
                           // against the session base (kReqDelta). Either
                           // way the decoded config becomes the worker's
                           // new session base.
};

std::string encode_request(const TrialRequest& req);
bool decode_request(std::string_view payload, TrialRequest* out);

// ---- Trial result (worker -> driver) --------------------------------------

/// The slice of verify::EvalResult the search driver consumes. Outputs stay
/// in the worker: the verifier already judged them there.
struct WireResult {
  bool passed = false;
  std::uint8_t failure_class = 0;  // verify::FailureClass
  std::uint8_t run_status = 0;     // vm::RunResult::Status
  std::string failure;
  std::uint64_t instructions_retired = 0;
  verify::TrialCost cost;
};

std::string encode_result(const WireResult& r);
bool decode_result(std::string_view payload, WireResult* out);

/// WireResult -> EvalResult, validating the enum fields (a corrupt-but-CRC-
/// passing value cannot smuggle an out-of-range class into the search).
bool to_eval_result(const WireResult& w, verify::EvalResult* out);
/// EvalResult -> WireResult.
WireResult from_eval_result(const verify::EvalResult& r);

}  // namespace fpmix::runner
