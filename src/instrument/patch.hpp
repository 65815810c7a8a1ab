// Basic-block patching and binary rewriting (Section 2.4, Figure 7).
//
// For every floating-point instruction selected by the configuration, the
// patcher splits the containing basic block into (1) the instructions before
// it, (2) the instruction itself and (3) the instructions after it, then
// replaces the middle with the snippet chain produced by the mini-compiler
// and rewires the surrounding edges. The layout engine (program::relayout)
// finally emits a fresh executable image -- the analogue of Dyninst's binary
// rewriter producing a new executable.
//
// The generic splice engine is shared with the cancellation-detection
// instrumenter (instrument/cancellation.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "config/config.hpp"
#include "config/structure.hpp"
#include "instrument/snippet.hpp"
#include "program/image.hpp"
#include "program/program.hpp"

namespace fpmix::instrument {

struct InstrumentStats {
  std::size_t wrapped = 0;          // instructions replaced by snippets
  std::size_t replaced_single = 0;  // of which executed in single precision
  std::size_t ignored = 0;          // flagged `ignore` and left untouched
  std::size_t snippet_instrs = 0;   // total instructions across all snippets
  std::size_t checks_elided = 0;    // sentinel tests removed by dataflow

  /// Every counter is a per-instruction sum, so whole-program stats are the
  /// sum of per-function stats -- the invariant verify::TrialBuilder relies
  /// on.
  void add(const InstrumentStats& s) {
    wrapped += s.wrapped;
    replaced_single += s.replaced_single;
    ignored += s.ignored;
    snippet_instrs += s.snippet_instrs;
    checks_elided += s.checks_elided;
  }
};

struct InstrumentResult {
  program::Program patched;
  InstrumentStats stats;
};

/// Patches a lifted program according to `cfg`. The structure index must
/// have been built from this same program (instruction addresses are the
/// join key). Throws ProgramError when the program violates the
/// instrumentation preconditions (flags or scratch registers live across an
/// instrumented instruction) or does not match the index.
InstrumentResult instrument(const program::Program& prog,
                            const config::StructureIndex& index,
                            const config::PrecisionConfig& cfg);

/// End-to-end convenience: lift the image, patch it, rewrite it. This is the
/// paper's whole pipeline: binary in, mixed-precision binary out.
program::Image instrument_image(const program::Image& image,
                                const config::StructureIndex& index,
                                const config::PrecisionConfig& cfg,
                                InstrumentStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Per-function instrumentation.

/// The effective-precision signature of function `f` (`fn`, as lifted from
/// the program `index` was built from) under `cfg`: one precision flag
/// (config::precision_flag) per original instruction, in program order,
/// after aggregate overrides and the non-candidate demotion. It is the whole
/// per-function input of instrument_function, so equal signatures yield
/// identical instrumented functions. Throws ProgramError when `fn`'s
/// instructions are not the ones the index lists for `f` (stale index).
std::string precision_signature(const config::StructureIndex& index,
                                const config::PrecisionConfig& cfg,
                                std::size_t f, const program::Function& fn);

/// Patches ONE function from its precision_signature. Sentinel tests whose
/// outcome the intra-block tag-state dataflow decides statically (the
/// paper's Section 2.5) are elided or strength-reduced; the facts never
/// cross a block head, so functions patch independently. `*stats` receives
/// counters for this function alone.
program::Function instrument_function(const program::Function& fn,
                                      std::string_view signature,
                                      InstrumentStats* stats);

// ---------------------------------------------------------------------------
// Generic splice engine.

/// Returns the snippet chain replacing `ins`, or nullopt to keep the
/// instruction untouched. Called exactly once per instruction, in program
/// order; its answers also decide the flags-liveness check.
using SnippetFactory =
    std::function<std::optional<SnippetChain>(const arch::Instr& ins)>;

/// Rebuilds every function of `prog`, replacing instructions selected by
/// `factory` with their snippet chains (block split + edge rewire). Also
/// enforces that condition flags are not live across any wrapped
/// instruction.
program::Program splice_snippets(const program::Program& prog,
                                 const SnippetFactory& factory,
                                 InstrumentStats* stats,
                                 const std::function<void()>& on_block_start =
                                     nullptr);

/// Single-function core of splice_snippets. `on_block_start` runs before
/// the factory sees each original block's instructions. With build_snippet
/// and one explicit SnippetOptions as the factory, this is the unelided
/// reference that instrument_function is tested against.
program::Function splice_function(const program::Function& fn,
                                  const SnippetFactory& factory,
                                  InstrumentStats* stats,
                                  const std::function<void()>& on_block_start =
                                      nullptr);

}  // namespace fpmix::instrument
