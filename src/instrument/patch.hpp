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

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

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
  /// sum of per-function stats -- the invariant IncrementalPatcher relies
  /// on.
  void add(const InstrumentStats& s) {
    wrapped += s.wrapped;
    replaced_single += s.replaced_single;
    ignored += s.ignored;
    snippet_instrs += s.snippet_instrs;
    checks_elided += s.checks_elided;
  }
};

struct InstrumentOptions {
  SnippetOptions snippet;
  /// Intra-block tag-state dataflow (the paper's Section 2.5: "static data
  /// flow analysis could improve overheads by detecting instructions that
  /// never encounter replaced double-precision numbers"): when a register's
  /// boxed/plain state is statically known, the snippet's sentinel test for
  /// that operand is elided or strength-reduced.
  bool dataflow_optimize = false;
};

struct InstrumentResult {
  program::Program patched;
  InstrumentStats stats;
};

/// Patches a lifted program according to `cfg`. The structure index must
/// have been built from this same program (instruction addresses are the
/// join key). Throws ProgramError when the program violates the
/// instrumentation preconditions (flags or scratch registers live across an
/// instrumented instruction).
InstrumentResult instrument(const program::Program& prog,
                            const config::StructureIndex& index,
                            const config::PrecisionConfig& cfg,
                            const InstrumentOptions& options = {});

/// End-to-end convenience: lift the image, patch it, rewrite it. This is the
/// paper's whole pipeline: binary in, mixed-precision binary out.
program::Image instrument_image(const program::Image& image,
                                const config::StructureIndex& index,
                                const config::PrecisionConfig& cfg,
                                InstrumentStats* stats = nullptr,
                                const InstrumentOptions& options = {});

// ---------------------------------------------------------------------------
// Incremental patching.

/// Patches ONE function against a whole-program address -> effective
/// precision map (see PrecisionConfig::address_map; the map needs entries
/// only for this function's instructions). Per-instruction decisions are
/// identical to instrument()'s -- the tag-state dataflow is intra-block, so
/// patching functions independently is equivalent by construction. `*stats`
/// receives counters for this function alone.
program::Function instrument_function(
    const program::Function& fn,
    const std::map<std::uint64_t, config::Precision>& pmap,
    InstrumentStats* stats, const InstrumentOptions& options = {});

// ---------------------------------------------------------------------------
// Generic splice engine.

/// Returns the snippet chain replacing `ins`, or nullopt to keep the
/// instruction untouched. Called exactly once per instruction, in program
/// order within each block.
using SnippetFactory =
    std::function<std::optional<SnippetChain>(const arch::Instr& ins)>;

/// Predicate used for the flags-liveness precondition check ("would this
/// instruction be wrapped?").
using WrapPredicate = std::function<bool(const arch::Instr& ins)>;

/// Rebuilds every function of `prog`, replacing instructions selected by
/// `factory` with their snippet chains (block split + edge rewire). Also
/// enforces that condition flags are not live across any wrapped
/// instruction.
program::Program splice_snippets(const program::Program& prog,
                                 const WrapPredicate& would_wrap,
                                 const SnippetFactory& factory,
                                 InstrumentStats* stats,
                                 const std::function<void()>& on_block_start =
                                     nullptr);

/// Single-function core of splice_snippets: liveness precondition check for
/// the function's blocks, then the block split/splice rebuild.
program::Function splice_function(const program::Function& fn,
                                  const WrapPredicate& would_wrap,
                                  const SnippetFactory& factory,
                                  InstrumentStats* stats,
                                  const std::function<void()>& on_block_start =
                                      nullptr);

}  // namespace fpmix::instrument
