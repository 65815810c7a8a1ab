#include "verify/evaluate.hpp"

#include <optional>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "verify/trial_builder.hpp"

namespace fpmix::verify {

const char* failure_class_name(FailureClass c) {
  switch (c) {
    case FailureClass::kNone: return "none";
    case FailureClass::kTrap: return "trap";
    case FailureClass::kSentinelEscape: return "sentinel-escape";
    case FailureClass::kDivergence: return "divergence";
    case FailureClass::kTimeout: return "timeout";
    case FailureClass::kBudget: return "budget";
    case FailureClass::kInternalError: return "internal-error";
    case FailureClass::kCrash: return "crash";
    case FailureClass::kResource: return "resource";
  }
  return "unknown";
}

bool parse_failure_class(std::string_view name, FailureClass* out) {
  for (const FailureClass c :
       {FailureClass::kNone, FailureClass::kTrap,
        FailureClass::kSentinelEscape, FailureClass::kDivergence,
        FailureClass::kTimeout, FailureClass::kBudget,
        FailureClass::kInternalError, FailureClass::kCrash,
        FailureClass::kResource}) {
    if (name == failure_class_name(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

FailureClass classify_failure_message(std::string_view message) {
  if (message.empty()) return FailureClass::kNone;
  if (message.find("sentinel") != std::string_view::npos) {
    return FailureClass::kSentinelEscape;
  }
  if (message.find("worker") != std::string_view::npos ||
      message.find("crash") != std::string_view::npos) {
    return FailureClass::kCrash;
  }
  if (message.find("rlimit") != std::string_view::npos ||
      message.find("out of memory") != std::string_view::npos) {
    return FailureClass::kResource;
  }
  if (message.find("budget") != std::string_view::npos) {
    return FailureClass::kBudget;
  }
  if (message.find("deadline") != std::string_view::npos) {
    return FailureClass::kTimeout;
  }
  if (message.find("verification") != std::string_view::npos) {
    return FailureClass::kDivergence;
  }
  return FailureClass::kTrap;
}

std::string encode_trial_line(const std::string& key, const std::string& unit,
                              std::size_t candidates, const CachedTrial& t) {
  return strformat(
      "{\"type\":\"trial\",\"key\":\"%s\",\"unit\":\"%s\",\"cand\":%zu,"
      "\"passed\":%s,\"class\":\"%s\",\"failure\":\"%s\",\"eval_ns\":%llu,"
      "\"img_hit\":%s}",
      json_escape(key).c_str(), json_escape(unit).c_str(), candidates,
      t.passed ? "true" : "false", failure_class_name(t.failure_class),
      json_escape(t.failure).c_str(),
      static_cast<unsigned long long>(t.eval_ns),
      t.image_cache_hit ? "true" : "false");
}

bool decode_trial_line(const JsonRecord& rec, std::string* key,
                       CachedTrial* out) {
  const auto type = rec.find("type");
  const auto k = rec.find("key");
  const auto passed = rec.find("passed");
  if (type == rec.end() || type->second != "trial" || k == rec.end() ||
      passed == rec.end() ||
      (passed->second != "true" && passed->second != "false")) {
    return false;
  }
  CachedTrial t;
  t.passed = passed->second == "true";
  if (const auto f = rec.find("failure"); f != rec.end()) t.failure = f->second;
  if (const auto c = rec.find("class");
      c == rec.end() || !parse_failure_class(c->second, &t.failure_class)) {
    // Version-1 records predate the class field: classify from the failure
    // message.
    t.failure_class = t.passed ? FailureClass::kNone
                               : classify_failure_message(t.failure);
  }
  if (const auto ns = rec.find("eval_ns"); ns != rec.end()) {
    parse_u64(ns->second, &t.eval_ns);
  }
  // Absent in version-1/2 records written before the incremental pipeline.
  // Older records also carry a "saved_ns" estimate, which is ignored.
  if (const auto ih = rec.find("img_hit"); ih != rec.end()) {
    t.image_cache_hit = ih->second == "true";
  }
  *key = k->second;
  *out = std::move(t);
  return true;
}

namespace {

FailureClass classify_run(const vm::RunResult& run) {
  switch (run.status) {
    case vm::RunResult::Status::kHalted: return FailureClass::kNone;
    case vm::RunResult::Status::kTrapped:
      return run.sentinel_escape ? FailureClass::kSentinelEscape
                                 : FailureClass::kTrap;
    case vm::RunResult::Status::kOutOfBudget: return FailureClass::kBudget;
    case vm::RunResult::Status::kDeadline: return FailureClass::kTimeout;
  }
  return FailureClass::kInternalError;
}

}  // namespace

EvalResult evaluate_config(const program::Image& original,
                           const config::StructureIndex& index,
                           const config::PrecisionConfig& cfg,
                           const Verifier& verifier,
                           const EvalOptions& options) {
  EvalResult result;
  Timer timer;
  // Harness-side exceptions (a patcher bug, predecode running out of
  // memory, ...) are a trial outcome, not a search abort: the paper's
  // premise is that a failed trial is ordinary data.
  try {
    TrialBuilder::Built built;
    if (options.builder != nullptr) {
      built = options.builder->build(cfg, options.builder_lane);
    } else {
      // No reuse across trials: a one-shot builder, whose lift and teardown
      // are patch work just as they are inside instrument_image.
      built = TrialBuilder(original, index).build(cfg);
      built.cost.patch_ns = timer.elapsed_ns() - built.cost.predecode_ns;
    }
    result.stats = built.stats;
    result.cost = built.cost;

    vm::Machine::Options mopts;
    mopts.max_instructions = options.max_instructions;
    mopts.profile = options.profile;
    mopts.engine = options.engine;
    mopts.deadline_ns = options.deadline_ns;
    mopts.deadline_check_interval = options.deadline_check_interval;
    if (options.faults != nullptr &&
        options.faults->vm.kind != fault::VmFault::kNone) {
      mopts.fault = &options.faults->vm;
    }
    timer.reset();
    std::optional<vm::Machine> machine(std::in_place, std::move(built.exec),
                                       mopts);
    result.cost.setup_ns = timer.elapsed_ns();
    timer.reset();
    const vm::RunResult run = machine->run();
    result.cost.jit_ns = machine->jit_ns();
    result.cost.run_ns = timer.elapsed_ns() - result.cost.jit_ns;
    result.run_status = run.status;
    result.instructions_retired = run.instructions_retired;
    result.outputs = machine->output_f64();
    // Unmapping guest memory (and dropping a one-shot build's image) is the
    // other half of setup.
    timer.reset();
    machine.reset();
    result.cost.setup_ns += timer.elapsed_ns();

    if (!run.ok()) {
      result.passed = false;
      result.failure_class = classify_run(run);
      result.failure = run.trap_message.empty() ? "run failed"
                                                : run.trap_message;
      return result;
    }
    timer.reset();
    result.passed = verifier.verify(result.outputs);
    result.cost.verify_ns = timer.elapsed_ns();
  } catch (const std::bad_alloc&) {
    // Memory exhaustion is a *resource* outcome, not a harness bug: under a
    // sandboxed worker's RLIMIT_AS a config whose patched image blows up the
    // heap lands here, and the supervisor treats it like a worker death
    // (retry, then quarantine) rather than a config verdict.
    result.passed = false;
    result.failure_class = FailureClass::kResource;
    result.failure = "out of memory (allocation failed)";
    return result;
  } catch (const std::exception& e) {
    result.passed = false;
    result.failure_class = FailureClass::kInternalError;
    result.failure = strformat("internal error: %s", e.what());
    return result;
  }
  if (options.faults != nullptr && options.faults->flip_verdict) {
    // Injected verifier flakiness: this attempt reports the opposite
    // verdict (exercises the retry / majority-vote policy upstream).
    result.passed = !result.passed;
  }
  if (!result.passed) {
    result.failure_class = FailureClass::kDivergence;
    result.failure = "verification failed";
  } else {
    result.failure_class = FailureClass::kNone;
    result.failure.clear();
  }
  return result;
}

std::vector<double> reference_outputs(const program::Image& original,
                                      std::uint64_t max_instructions) {
  vm::Machine::Options mopts;
  mopts.max_instructions = max_instructions;
  mopts.profile = false;  // only the outputs are consumed
  vm::Machine machine(original, mopts);
  const vm::RunResult run = machine.run();
  if (!run.ok()) {
    throw Error(strformat("reference run failed: %s",
                          run.trap_message.c_str()));
  }
  return machine.output_f64();
}

}  // namespace fpmix::verify
