#include "runner/wire.hpp"

#include <array>
#include <bit>

#include "support/journal.hpp"  // crc32

namespace fpmix::runner {

namespace {

void put_raw_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

std::uint32_t read_raw_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(12 + payload.size());
  put_raw_u32(&out, kFrameMagic);
  put_raw_u32(&out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_raw_u32(&out, crc32(payload));
  return out;
}

FrameStatus decode_frame(std::string_view buffer, std::string* payload,
                         std::size_t* consumed) {
  if (buffer.size() < 8) return FrameStatus::kNeedMore;
  if (read_raw_u32(buffer.data()) != kFrameMagic) return FrameStatus::kCorrupt;
  const std::uint32_t len = read_raw_u32(buffer.data() + 4);
  if (len > kMaxFramePayload) return FrameStatus::kCorrupt;
  const std::size_t total = 8 + static_cast<std::size_t>(len) + 4;
  if (buffer.size() < total) return FrameStatus::kNeedMore;
  const std::string_view body = buffer.substr(8, len);
  if (crc32(body) != read_raw_u32(buffer.data() + 8 + len)) {
    return FrameStatus::kCorrupt;
  }
  payload->assign(body);
  *consumed = total;
  return FrameStatus::kOk;
}

void put_u8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void put_u32(std::string* out, std::uint32_t v) { put_raw_u32(out, v); }

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_string(std::string* out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

bool WireReader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t WireReader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t WireReader::u32() {
  if (!take(4)) return 0;
  const std::uint32_t v = read_raw_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(
                                                        i)]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::string WireReader::str() {
  const std::uint32_t len = u32();
  if (!take(len)) return {};
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

void put_spec(std::string* out, const SandboxSpec& spec) {
  put_u8(out, static_cast<std::uint8_t>(spec.engine));
  put_u64(out, spec.max_instructions);
  put_u64(out, spec.deadline_ms);
  put_u32(out, spec.max_crashes);
  put_u64(out, spec.rlimit_mb);
  put_u8(out, spec.has_fault ? 1 : 0);
  put_u64(out, spec.fault_seed);
  // Rates cross as IEEE-754 bit patterns: exact, so both sides draw the
  // same faults.
  for (const double v : spec.fault_rates.values()) {
    put_u64(out, std::bit_cast<std::uint64_t>(v));
  }
}

bool read_spec(WireReader* r, SandboxSpec* out) {
  const std::uint8_t engine = r->u8();
  out->engine = static_cast<vm::Engine>(engine);
  out->max_instructions = r->u64();
  out->deadline_ms = r->u64();
  out->max_crashes = r->u32();
  out->rlimit_mb = r->u64();
  out->has_fault = r->u8() != 0;
  out->fault_seed = r->u64();
  std::array<double, 12> rates{};
  for (double& v : rates) v = std::bit_cast<double>(r->u64());
  out->fault_rates = fault::Injector::Rates::from_values(rates);
  return r->ok() && engine <= static_cast<std::uint8_t>(vm::Engine::kJit);
}

std::string encode_request(const TrialRequest& req) {
  std::string out;
  put_string(&out, req.key);
  put_u32(&out, req.exec_index);
  put_string(&out, req.config_key);
  return out;
}

bool decode_request(std::string_view payload, TrialRequest* out) {
  WireReader r(payload);
  out->key = r.str();
  out->exec_index = r.u32();
  out->config_key = r.str();
  return r.done();
}

std::string encode_result(const verify::EvalResult& res) {
  std::string out;
  put_u8(&out, res.passed ? 1 : 0);
  put_u8(&out, static_cast<std::uint8_t>(res.failure_class));
  put_u8(&out, static_cast<std::uint8_t>(res.run_status));
  put_string(&out, res.failure);
  put_u64(&out, res.instructions_retired);
  const verify::TrialCost& c = res.cost;
  put_u64(&out, c.patch_ns);
  put_u64(&out, c.predecode_ns);
  put_u64(&out, c.setup_ns);
  put_u64(&out, c.jit_ns);
  put_u64(&out, c.run_ns);
  put_u64(&out, c.verify_ns);
  put_u8(&out, c.image_cache_hit ? 1 : 0);
  put_u32(&out, c.funcs_reused);
  put_u32(&out, c.funcs_total);
  return out;
}

bool decode_result(std::string_view payload, verify::EvalResult* out) {
  WireReader r(payload);
  *out = verify::EvalResult{};
  out->passed = r.u8() != 0;
  const std::uint8_t failure_class = r.u8();
  const std::uint8_t run_status = r.u8();
  if (failure_class >
          static_cast<std::uint8_t>(verify::FailureClass::kResource) ||
      run_status >
          static_cast<std::uint8_t>(vm::RunResult::Status::kDeadline)) {
    return false;
  }
  out->failure_class = static_cast<verify::FailureClass>(failure_class);
  out->run_status = static_cast<vm::RunResult::Status>(run_status);
  out->failure = r.str();
  out->instructions_retired = r.u64();
  verify::TrialCost& c = out->cost;
  c.patch_ns = r.u64();
  c.predecode_ns = r.u64();
  c.setup_ns = r.u64();
  c.jit_ns = r.u64();
  c.run_ns = r.u64();
  c.verify_ns = r.u64();
  c.image_cache_hit = r.u8() != 0;
  c.funcs_reused = r.u32();
  c.funcs_total = r.u32();
  return r.done();
}

}  // namespace fpmix::runner
