// fpmix — automatic mixed-precision adaptation of binaries.
//
// Umbrella header for downstream users; see README.md for the quickstart
// and DESIGN.md for the architecture. The typical pipeline is:
//
//   program::Image binary = ...;                       // an existing binary
//   auto index = config::StructureIndex::build(program::lift(binary));
//   verify::RelativeErrorVerifier verifier(reference, tolerance);
//   search::SearchResult best = search::run_search(binary, &index,
//                                                  verifier, {});
//   program::Image mixed = instrument::instrument_image(
//       binary, index, best.final_config);
//   vm::Machine(mixed).run();
#pragma once

// Virtual ISA: opcodes, operands, encoder/decoder, disassembler, and the
// 0x7FF4DEAD replaced-double representation.
#include "arch/disasm.hpp"
#include "arch/encode.hpp"
#include "arch/instr.hpp"
#include "arch/intrinsics.hpp"
#include "arch/opcode.hpp"
#include "arch/operand.hpp"
#include "arch/tag.hpp"

// Binaries: images, CFG recovery, layout/relocation.
#include "program/image.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"

// Building programs: assembler and the kernel mini-language.
#include "asm/assembler.hpp"
#include "lang/ast.hpp"
#include "lang/builder.hpp"
#include "lang/compile.hpp"

// Execution: the virtual machine and mini-MPI.
#include "vm/machine.hpp"
#include "vm/minimpi.hpp"

// Precision configurations and their exchange format.
#include "config/config.hpp"
#include "config/precision.hpp"
#include "config/structure.hpp"
#include "config/textio.hpp"

// Binary instrumentation: snippets, patching, cancellation detection.
#include "instrument/cancellation.hpp"
#include "instrument/patch.hpp"
#include "instrument/snippet.hpp"

// Verification and the automatic search.
#include "search/search.hpp"
#include "verify/evaluate.hpp"
#include "verify/verifier.hpp"

// Benchmark workloads and native numeric twins.
#include "kernels/workload.hpp"
#include "linalg/banded.hpp"
#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/matrix_market.hpp"
#include "linalg/refine.hpp"
#include "linalg/stencil_mg.hpp"

// Support utilities.
#include "support/error.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
