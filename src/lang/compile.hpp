// Code generation: ProgramModel -> structured Program (via the assembler).
//
// Storage model is Fortran-style: every scalar and array lives in static
// storage (data segment when baked, bss otherwise); functions communicate
// through globals, so there are no stack frames and no recursion. Expression
// evaluation uses a simple register pool (xmm2..xmm13 / r2..r13); r0/r1 and
// xmm14/xmm15 are never allocated (r0 and xmm14/xmm15 are the
// instrumentation snippets' scratch, see instrument/snippet.cpp).
#pragma once

#include "lang/ast.hpp"
#include "program/program.hpp"

namespace fpmix::lang {

/// Compiles the model. Mode::kSingle produces the manually-converted
/// single-precision twin: f32 storage, f32 arithmetic, f32 intrinsic
/// variants, with outputs widened to f64 for comparison.
program::Program compile(const ProgramModel& model, Mode mode);

}  // namespace fpmix::lang
