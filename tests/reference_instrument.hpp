// Reference instrumenter for differential tests and the snippet ablation:
// the public splice engine with one explicit SnippetOptions for every
// snippet, so no tag-state elision. With default options every wrapped
// instruction gets the full Figure 6 sentinel check, which production
// instrument_image() must match bit for bit.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "config/config.hpp"
#include "config/structure.hpp"
#include "instrument/patch.hpp"
#include "instrument/snippet.hpp"
#include "program/image.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"

namespace fpmix::reference {

/// instrument_image() without elision: each function is spliced from the
/// same precision_signature production uses. `*stats` receives the splice
/// counters (wrapped, snippet_instrs).
inline program::Image instrument_image(
    const program::Image& image, const config::StructureIndex& index,
    const config::PrecisionConfig& cfg,
    const instrument::SnippetOptions& options = {},
    instrument::InstrumentStats* stats = nullptr) {
  program::Program prog = program::lift(image);
  instrument::InstrumentStats total;
  for (std::size_t f = 0; f < prog.functions.size(); ++f) {
    const std::string sig =
        instrument::precision_signature(index, cfg, f, prog.functions[f]);
    std::size_t next = 0;
    const auto factory = [&](const arch::Instr& ins)
        -> std::optional<instrument::SnippetChain> {
      const config::Precision p = *config::precision_from_flag(sig[next++]);
      if (!instrument::needs_snippet(ins, p)) return std::nullopt;
      return instrument::build_snippet(ins, p, options);
    };
    prog.functions[f] =
        instrument::splice_function(prog.functions[f], factory, &total);
  }
  if (stats != nullptr) *stats = total;
  return program::relayout(prog);
}

}  // namespace fpmix::reference
