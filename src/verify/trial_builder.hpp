// TrialBuilder: the shared patch+predecode front end of the evaluation
// pipeline.
//
// Wraps an instrument::IncrementalPatcher (per-function variant reuse) and
// an ImageCache (whole-image reuse for repeated configs: retries,
// majority-vote rounds, fault campaigns) behind one thread-safe build()
// call. verify::evaluate_config uses it when EvalOptions::builder is set --
// both the in-process search path and each long-lived sandboxed worker keep
// one TrialBuilder alive across trials, which is where the cross-trial
// savings come from.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "config/config.hpp"
#include "config/structure.hpp"
#include "instrument/incremental.hpp"
#include "program/image.hpp"
#include "verify/evaluate.hpp"
#include "verify/image_cache.hpp"

namespace fpmix::verify {

class TrialBuilder {
 public:
  /// One built trial plus the patch/predecode half of its cost (run and
  /// verify stay zero). An image-cache hit is credited the full cold
  /// baselines as savings.
  struct Built {
    std::shared_ptr<const vm::ExecutableImage> exec;
    instrument::InstrumentStats stats;
    TrialCost cost;
  };

  /// Aggregate counters across all build() calls.
  struct Stats {
    std::uint64_t image_cache_hits = 0;
    std::uint64_t image_cache_misses = 0;
    std::uint64_t variant_hits = 0;
    std::uint64_t variant_misses = 0;
    std::uint64_t patch_saved_ns = 0;
    std::uint64_t predecode_saved_ns = 0;
    std::uint64_t funcs_reused = 0;
    std::uint64_t funcs_patched = 0;
  };

  /// `index` must have been built from `original` and outlive the builder.
  /// `lanes` is how many trials the caller runs at once: its executor's
  /// lanes, or its worker count. The image cache holds that many images. A
  /// vote round re-runs exactly the previous round's configs, at most one
  /// per lane, so every revote hits, and no more images (each pinning its
  /// linked JIT code) stay alive than a round can reuse.
  TrialBuilder(const program::Image& original,
               const config::StructureIndex& index, std::size_t lanes = 1);

  /// Patches + predecodes `cfg`, reusing whatever the caches hold.
  /// Bit-identical to the from-scratch instrument_image +
  /// ExecutableImage::build pipeline. Thread-safe; throws exactly where the
  /// from-scratch path would (callers already treat those as trial
  /// outcomes).
  Built build(const config::PrecisionConfig& cfg);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  instrument::IncrementalPatcher patcher_;
  ImageCache cache_;
  std::uint64_t fingerprint_;

  // First-build stage times: the cold baseline the savings estimates are
  // measured against.
  bool have_cold_ = false;
  std::uint64_t cold_patch_ns_ = 0;
  std::uint64_t cold_predecode_ns_ = 0;

  Stats totals_;
};

}  // namespace fpmix::verify
