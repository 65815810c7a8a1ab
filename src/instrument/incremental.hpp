// Incremental trial construction: per-function variant caching.
//
// The search's breadth-first descent evaluates thousands of configurations
// that differ from a baseline in a single module/function/block/instruction
// subtree, yet the straightforward pipeline re-instruments and re-encodes
// the whole program for each of them. IncrementalPatcher keys each
// function's instrumented form by its *effective precision signature*
// (instrument::precision_signature) and re-runs splice/layout only for
// functions whose signature has not been seen before. Predecode results are
// cached the same way as shared vm::CodeSegments, which
// vm::ExecutableImage::build_spliced rebases into a full image without
// re-decoding or re-lowering.
//
// Equivalence: the signature *is* instrument_function's input for the
// function -- instrument() builds the same signature and patches from it --
// and layout_function + assemble is the exact code path relayout() takes,
// so an incrementally built image is bit-identical to a from-scratch
// instrument_image() by construction, which tests/incremental_test.cpp
// verifies differentially.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "config/config.hpp"
#include "config/structure.hpp"
#include "instrument/patch.hpp"
#include "program/image.hpp"
#include "program/layout.hpp"
#include "vm/exec_image.hpp"

namespace fpmix::instrument {

class IncrementalPatcher {
 public:
  /// One cached per-function result: the instrumented position-independent
  /// encoding, its stats, and (lazily, at first predecode) its segment.
  struct FuncVariant {
    program::FuncLayout layout;
    InstrumentStats stats;
    std::shared_ptr<const vm::CodeSegment> segment;
  };

  /// Result of patch(): the assembled image plus the variant references
  /// predecode() needs. The references are owned by the patcher's cache and
  /// are invalidated by the next patch() call -- finish predecode() (or drop
  /// the Build) before patching again.
  struct Build {
    program::Image image;
    InstrumentStats stats;
    std::size_t funcs_reused = 0;  // served from the variant cache
    std::size_t funcs_total = 0;

   private:
    friend class IncrementalPatcher;
    std::vector<FuncVariant*> variants;
  };

  /// Lifts `original` once. `index` must have been built from this image
  /// and must outlive the patcher.
  IncrementalPatcher(const program::Image& original,
                     const config::StructureIndex& index);

  /// Instruments + lays out only the functions whose effective precision
  /// signature under `cfg` is new, splicing cached layouts elsewhere, and
  /// assembles the full image. Bit-identical to
  /// instrument_image(original, index, cfg); throws ProgramError where it
  /// would (a stale index).
  Build patch(const config::PrecisionConfig& cfg);

  /// Predecodes `build` into an executable, building segments only for
  /// variants that have never been predecoded.
  std::shared_ptr<const vm::ExecutableImage> predecode(Build&& build);

 private:
  /// Per-function variant cap; a full cache is cleared wholesale (the
  /// search's locality makes thrashing here essentially impossible, the cap
  /// only bounds memory on adversarial workloads).
  static constexpr std::size_t kMaxVariantsPerFunc = 128;

  program::Program prog_;
  const config::StructureIndex& index_;
  std::vector<std::unordered_map<std::string, FuncVariant>> variants_;
};

}  // namespace fpmix::instrument
