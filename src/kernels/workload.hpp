// Workloads: the benchmark programs the paper evaluates on, rebuilt in the
// kernel mini-language (see DESIGN.md section 2 for the substitution table).
//
// Every workload bundles a ProgramModel, the verification policy its suite
// prescribes, and problem-class metadata. NAS-style classes are scaled-down
// analogues (VM interpretation is orders of magnitude slower than native
// execution): S < W < A < C by problem size.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "lang/ast.hpp"
#include "program/image.hpp"
#include "verify/verifier.hpp"

namespace fpmix::kernels {

struct Workload {
  std::string name;  // e.g. "cg.W"
  lang::ProgramModel model;

  // Verification policy. Default: relative/absolute comparison of every
  // output against the unmodified double-precision run.
  double rel_tol = 1e-6;
  double abs_tol = 0.0;
  /// Per-output overrides: {index, rel_tol, abs_tol}.
  struct OutputTol {
    std::size_t index;
    double rel;
    double abs;
  };
  std::vector<OutputTol> output_tols;
  // SuperLU-style: the program reports an error metric; verify it against a
  // threshold instead of comparing outputs.
  bool threshold_mode = false;
  std::size_t error_output_index = 0;
  std::size_t expected_outputs = 0;
  double threshold = 0.0;

  std::uint64_t max_instructions = 1ull << 32;
};

/// Compiles and lays out the workload (Mode::kDouble = the "original"
/// binary; Mode::kSingle = the manual conversion twin).
program::Image build_image(const Workload& w,
                           lang::Mode mode = lang::Mode::kDouble);

/// Builds the workload's verifier. For relative-error workloads this runs
/// the original binary once to obtain the reference outputs.
std::unique_ptr<verify::Verifier> make_verifier(
    const Workload& w, const program::Image& original);

// ---- NAS Parallel Benchmark analogues -------------------------------------
// `cls` is one of 'S', 'W', 'A', 'C'. `ranks` > 1 builds the mini-MPI SPMD
// variant (only EP/CG/FT/MG, the Figure 8 set).
Workload make_ep(char cls, int ranks = 1);
Workload make_cg(char cls, int ranks = 1);
Workload make_ft(char cls, int ranks = 1);
Workload make_mg(char cls, int ranks = 1);
Workload make_bt(char cls);
Workload make_lu(char cls);
Workload make_sp(char cls);

// ---- ASC AMG microkernel analogue (Section 3.2) ----------------------------
Workload make_amg();

// ---- SuperLU analogue: banded solver on the memplus-like system ------------
/// `threshold` is the error bound the verification driver enforces
/// (Figure 11 sweeps it from 1e-3 down to 1e-6).
Workload make_superlu(double threshold);

/// The single-rank workload a command line names: "ep", "cg", "ft", "mg",
/// "bt", "lu", "sp" at class `cls`, or "amg" (which has no classes).
/// nullopt for any other name, and for a NAS name with a class outside
/// S, W, A, C (so remote or command-line input never reaches the kernels'
/// "unknown class" throw).
std::optional<Workload> make_workload(std::string_view name, char cls);

/// Every single-rank workload (used by test sweeps).
std::vector<Workload> all_serial_workloads();

}  // namespace fpmix::kernels
