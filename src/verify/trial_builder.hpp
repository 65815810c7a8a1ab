// TrialBuilder: the shared patch+predecode front end of the evaluation
// pipeline.
//
// Wraps an instrument::IncrementalPatcher (per-function variant reuse) and
// a small LRU of whole built images keyed by the config's canonical key
// (retries, majority-vote rounds, fault campaigns) behind one thread-safe
// build() call. verify::evaluate_config uses it when EvalOptions::builder is
// set -- both the in-process search path and each long-lived sandboxed
// worker keep one TrialBuilder alive across trials, which is where the
// cross-trial reuse comes from. Every build reports its reuse in its own
// TrialCost; callers sum those, there are no builder-side totals.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>

#include "config/config.hpp"
#include "config/structure.hpp"
#include "instrument/incremental.hpp"
#include "program/image.hpp"
#include "verify/evaluate.hpp"

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

 private:
  struct CachedImage {
    std::string key;  // PrecisionConfig::canonical_key()
    std::shared_ptr<const vm::ExecutableImage> exec;
    instrument::InstrumentStats stats;
  };

  std::mutex mu_;
  instrument::IncrementalPatcher patcher_;
  std::size_t capacity_;
  std::list<CachedImage> images_;  // front = most recently used
};

/// Most images any TrialBuilder in this process has cached at once since
/// the last reset_image_cache_peak() (internally synchronised). Tests use
/// it to bound the images a search's builder keeps alive.
std::size_t image_cache_peak();
void reset_image_cache_peak();

}  // namespace fpmix::verify
