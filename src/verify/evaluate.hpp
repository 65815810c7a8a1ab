// Configuration evaluation: patch, run, verify -- the inner loop of the
// automatic search and the "Configuration Evaluation" box of Figure 2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "config/config.hpp"
#include "instrument/patch.hpp"
#include "program/image.hpp"
#include "support/fault.hpp"
#include "support/journal.hpp"
#include "verify/verifier.hpp"
#include "vm/machine.hpp"

namespace fpmix::verify {

class TrialBuilder;

struct EvalOptions {
  std::uint64_t max_instructions = 1ull << 32;
  /// Per-instruction execution counts. Pass/fail trials never read them, so
  /// the search leaves this off and the VM takes its non-profiling run loop.
  bool profile = false;
  /// Execution engine: the JIT by default (falls back to the micro-op
  /// engine where unsupported); kSwitch is the differential-testing oracle.
  vm::Engine engine = vm::Engine::kJit;
  /// Wall-clock deadline for the VM run; 0 disables. A trial that exceeds
  /// it fails with FailureClass::kTimeout instead of hanging the search.
  std::uint64_t deadline_ns = 0;
  /// Retired instructions between the VM's wall-clock checks.
  std::uint64_t deadline_check_interval = 1ull << 20;
  /// Planned faults for this evaluation attempt (fault-injection
  /// campaigns); nullptr evaluates clean.
  const fault::TrialFaults* faults = nullptr;
  /// The trial-image builder (see verify/trial_builder.hpp). A shared one
  /// reuses per-function variants and whole cached images across
  /// evaluations; null builds each evaluation with a one-shot builder (no
  /// reuse across trials). Both produce bit-identical executables.
  TrialBuilder* builder = nullptr;
  /// The caller's lane on a shared builder (TrialBuilder::build): the image
  /// a lane built last stays cached for that lane's revote.
  std::size_t builder_lane = 0;
};

/// Why a trial failed -- the per-trial taxonomy the search aggregates,
/// journals, and reports. Kept order-stable: the numeric values appear in
/// journal records.
enum class FailureClass : std::uint8_t {
  kNone = 0,           // trial passed
  kTrap,               // VM fault: bad memory access, div by zero, ...
  kSentinelEscape,     // a 0x7FF4DEAD replaced-double reached a consumer
  kDivergence,         // ran to completion but verification failed
  kTimeout,            // wall-clock deadline exceeded
  kBudget,             // retired-instruction budget exhausted
  kInternalError,      // harness-side exception during patch/predecode/run
  kCrash,              // isolated worker process died (SIGSEGV, SIGKILL, ...)
  kResource,           // resource cap hit: rlimit OOM / bad_alloc / SIGXCPU
};

/// Stable short name for journal records and reports ("trap",
/// "sentinel-escape", ...).
const char* failure_class_name(FailureClass c);

/// Parses a failure_class_name back; returns false on unknown names.
bool parse_failure_class(std::string_view name, FailureClass* out);

/// Heuristic classification of a legacy journal record's failure message
/// (records written before the class field existed).
FailureClass classify_failure_message(std::string_view message);

/// Outcome of one evaluated configuration, as a journal trial line records
/// it. Pass/fail, the failure class and the failure reason are everything
/// the search's decision procedure consumes; the search's trial cache and a
/// runner_serve daemon's shard-cache index both keep exactly this.
struct CachedTrial {
  bool passed = false;
  FailureClass failure_class = FailureClass::kNone;
  std::string failure;
  std::uint64_t eval_ns = 0;  // live evaluation cost when first computed
  /// Whether any attempt was served whole from the image cache when first
  /// computed. Informational (journal analysis); the search's decision
  /// procedure never reads it.
  bool image_cache_hit = false;
};

/// Journal trial record (the one trial-line format; see
/// search/trial_cache.hpp for the journal around it).
std::string encode_trial_line(const std::string& key, const std::string& unit,
                              std::size_t candidates, const CachedTrial& t);

/// Decodes a parsed journal record written by encode_trial_line, or by any
/// earlier version of it: a missing class is classified from the failure
/// message (version 1), a missing eval_ns or img_hit reads as 0/false.
/// False when the record is not a trial or lacks a key or a boolean
/// passed field. Seal and sequence checks are the caller's.
bool decode_trial_line(const JsonRecord& rec, std::string* key,
                       CachedTrial* out);

/// What one evaluation attempt cost: the record TrialBuilder fills,
/// EvalResult carries (and runner::encode_result ships back from a worker),
/// and the search sums into SearchMetrics.
struct TrialCost {
  // Stage breakdown.
  std::uint64_t patch_ns = 0;      // instrument + layout, evicted-image
                                   // teardown (+ lift, one-shot)
  std::uint64_t predecode_ns = 0;  // segments + ExecutableImage::build_spliced
  std::uint64_t setup_ns = 0;      // vm::Machine construction + teardown
                                   // (guest memory map and unmap)
  std::uint64_t jit_ns = 0;        // JIT compile + link (image's first run)
  std::uint64_t run_ns = 0;        // guest execution (jit_ns excluded)
  std::uint64_t verify_ns = 0;     // verifier.verify on the outputs

  // Trial-build reuse accounting, the only record of it (a one-shot
  // builder reports a miss that reused nothing).
  bool image_cache_hit = false;       // whole image served from the LRU
  std::uint32_t funcs_reused = 0;     // functions spliced from the cache
  /// Functions in the built image; 0 when the attempt never finished a
  /// build (a breaker or storm verdict synthesized without one, or a build
  /// that threw).
  std::uint32_t funcs_total = 0;
};

struct EvalResult {
  bool passed = false;
  vm::RunResult::Status run_status = vm::RunResult::Status::kHalted;
  FailureClass failure_class = FailureClass::kNone;
  std::string failure;               // empty when passed
  std::vector<double> outputs;
  std::uint64_t instructions_retired = 0;
  instrument::InstrumentStats stats;
  TrialCost cost;
};

/// Builds the mixed-precision binary for `cfg` and evaluates it. Crashes,
/// traps and instruction-budget blowups count as verification failures
/// (with the reason recorded), exactly as a crashed test run does in the
/// paper's search harness.
EvalResult evaluate_config(const program::Image& original,
                           const config::StructureIndex& index,
                           const config::PrecisionConfig& cfg,
                           const Verifier& verifier,
                           const EvalOptions& options = {});

/// Runs the unmodified binary and returns its outputs (the reference for
/// RelativeErrorVerifier / BitExactVerifier) -- throws on failure.
std::vector<double> reference_outputs(const program::Image& original,
                                      std::uint64_t max_instructions =
                                          1ull << 32);

}  // namespace fpmix::verify
