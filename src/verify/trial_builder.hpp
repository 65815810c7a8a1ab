// TrialBuilder: the one place a trial image is built.
//
// The search's breadth-first descent evaluates thousands of configurations
// that differ from a baseline in a single module/function/block/instruction
// subtree. TrialBuilder lifts the original once and keys each function's
// instrumented form by its *effective precision signature*
// (instrument::precision_signature): only functions whose signature is new
// are re-instrumented, laid out and predecoded (a vm::CodeSegment cached
// with the variant), and every other one is reused from the variant cache.
// A built image is vm::ExecutableImage::build_spliced over the variants: a
// table of per-function prefix sums over the shared segments, O(functions)
// to build, with no code copied. The byte image (program::assemble) is
// only assembled if a caller asks for it, and the JIT links the image by
// filling a function table over the segments' shared, already-placed
// blobs. On top sits a small LRU of whole built images keyed by the
// config's canonical key (retries, majority-vote rounds, fault campaigns).
//
// Equivalence: the signature *is* instrument_function's input for the
// function -- instrument() builds the same signature and patches from it --
// and layout_function + assemble is the exact code path relayout() takes,
// so a built image is bit-identical to a from-scratch instrument_image() +
// ExecutableImage::build by construction: the same bytes on demand, the
// same instructions, micro-ops, indices and errors from the table, which
// tests/incremental_test.cpp and the spliced-image tests in
// tests/vm_engine_test.cpp verify differentially.
//
// verify::evaluate_config builds every trial through one: the in-process
// search path and each long-lived sandboxed worker keep one alive across
// trials, which is where the cross-trial reuse comes from, and a null
// EvalOptions::builder means a one-shot builder per evaluation. Every build
// reports its reuse in its own TrialCost; callers sum those, there are no
// builder-side totals.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/config.hpp"
#include "config/structure.hpp"
#include "instrument/patch.hpp"
#include "program/image.hpp"
#include "program/layout.hpp"
#include "verify/evaluate.hpp"
#include "vm/exec_image.hpp"

namespace fpmix::verify {

class TrialBuilder {
 public:
  /// One built trial plus the patch/predecode half of its cost (run and
  /// verify stay zero).
  struct Built {
    std::shared_ptr<const vm::ExecutableImage> exec;
    instrument::InstrumentStats stats;
    TrialCost cost;
  };

  /// Lifts `original` once. `index` must have been built from `original`
  /// and outlive the builder. `lanes` is how many trials the caller runs at
  /// once: its executor's lanes, or its worker count. The image cache holds
  /// that many images, and the one each lane built or served last is never
  /// evicted by another lane: a revote runs on the lane that ran the
  /// previous attempt, so every revote hits, and no more images (each
  /// pinning its JIT function table) stay alive than the lanes can reuse.
  TrialBuilder(const program::Image& original,
               const config::StructureIndex& index, std::size_t lanes = 1);

  /// Patches + predecodes `cfg` for the caller's `lane` (taken modulo the
  /// lane count), reusing whatever the caches hold. Bit-identical to the
  /// from-scratch instrument_image + ExecutableImage::build pipeline.
  /// Thread-safe: the lock covers only cache lookups and inserts, so lanes
  /// instrument, lay out and predecode in parallel; when two lanes race to
  /// build the same variant or image, the first insert wins. Throws exactly
  /// where the from-scratch path would (a stale index is a ProgramError;
  /// callers already treat those as trial outcomes).
  Built build(const config::PrecisionConfig& cfg, std::size_t lane = 0);

  /// instrument::precision_signature of every function under `cfg`. Only
  /// the functions a flag of `cfg` reaches are resolved; every other one
  /// has the default signature, computed once at construction. Throws
  /// where precision_signature would (a stale index).
  std::vector<std::string> signatures(const config::PrecisionConfig& cfg) const;

 private:
  /// One cached per-function result: the instrumented position-independent
  /// encoding, its stats and its predecoded segment. Published immutable;
  /// a lane that holds one keeps it alive across a variant-cache clear.
  struct FuncVariant {
    program::FuncLayout layout;
    instrument::InstrumentStats stats;
    std::shared_ptr<const vm::CodeSegment> segment;
  };

  struct CachedImage {
    std::string key;  // PrecisionConfig::canonical_key()
    std::shared_ptr<const vm::ExecutableImage> exec;
    instrument::InstrumentStats stats;
  };

  /// Per-function variant cap; a full cache is cleared wholesale (the
  /// search's locality makes thrashing here essentially impossible, the cap
  /// only bounds memory on adversarial workloads).
  static constexpr std::size_t kMaxVariantsPerFunc = 128;

  /// Makes `e` the most recent image and `lane`'s own (under mu_), and
  /// returns what that evicts, for the caller to destroy unlocked.
  std::list<CachedImage> touch(std::list<CachedImage>::iterator e,
                               std::size_t lane);

  /// The lifted original, shared with every image built (its data
  /// sections, and the layout plan for an image's on-demand byte form).
  const std::shared_ptr<const program::Program> prog_;
  const config::StructureIndex& index_;
  /// Per function: its signature when no flag of a config reaches it, or
  /// nullopt when precision_signature rejects the function (stale index).
  std::vector<std::optional<std::string>> default_sigs_;
  std::mutex mu_;  // guards the two caches below
  std::vector<std::unordered_map<std::string,
                                 std::shared_ptr<const FuncVariant>>>
      variants_;
  std::list<CachedImage> images_;  // front = most recently used
  /// Per lane: the key of the image it built or served last (pinned).
  std::vector<std::string> lane_keys_;
};

/// Most images any TrialBuilder in this process has cached at once since
/// the last reset_image_cache_peak() (internally synchronised). Tests use
/// it to bound the images a search's builder keeps alive.
std::size_t image_cache_peak();
void reset_image_cache_peak();

}  // namespace fpmix::verify
