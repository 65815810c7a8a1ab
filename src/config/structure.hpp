// StructureIndex: the static analysis that enumerates a program's
// module -> function -> basic block -> instruction hierarchy and the
// replacement-candidate set Pd.
//
// The paper: "The initial list of these structures is easily generated using
// a simple static analysis that traverses the program's control flow graph."
// Search units, configurations and the text format all reference structures
// through the stable ids assigned here (instructions are identified by their
// original-program address).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/instr.hpp"
#include "program/program.hpp"

namespace fpmix::config {

struct InstrEntry {
  std::uint64_t addr = 0;       // original-program address (stable id)
  arch::Instr instr;            // decoded form (for disassembly/validation)
  bool candidate = false;       // member of Pd (replaceable by single)
  bool fp_touching = false;     // must be wrapped once anything is replaced
  std::size_t func = 0;         // owning indices
  std::size_t block = 0;
  std::uint64_t exec_weight = 0;  // filled by profiling (0 = unknown)
};

struct BlockEntry {
  std::uint64_t head_addr = 0;  // address of first instruction
  std::size_t func = 0;
  std::vector<std::size_t> instrs;      // indices into instrs()
  std::vector<std::size_t> candidates;  // subset that is in Pd
};

struct FuncEntry {
  std::string name;
  std::size_t module = 0;
  std::uint64_t entry_addr = 0;
  std::vector<std::size_t> blocks;
  std::vector<std::size_t> candidates;
};

struct ModuleEntry {
  std::string name;
  std::vector<std::size_t> funcs;
  std::vector<std::size_t> candidates;
};

class StructureIndex {
 public:
  /// Builds the index from a lifted program. Instruction ids are the
  /// addresses the instructions currently have, which for a freshly lifted
  /// image equal original-binary addresses.
  static StructureIndex build(const program::Program& prog);

  const std::vector<ModuleEntry>& modules() const { return modules_; }
  const std::vector<FuncEntry>& funcs() const { return funcs_; }
  const std::vector<BlockEntry>& blocks() const { return blocks_; }
  const std::vector<InstrEntry>& instrs() const { return instrs_; }

  /// All candidate instruction indices, program order.
  const std::vector<std::size_t>& candidates() const { return candidates_; }

  /// Index of the instruction with original address `addr` (throws
  /// ConfigError if absent).
  std::size_t instr_at(std::uint64_t addr) const;
  bool has_instr_at(std::uint64_t addr) const;

  std::size_t func_named(std::string_view name) const;
  std::size_t module_named(std::string_view name) const;

  /// Records a profile (address -> execution count) onto exec_weight.
  void apply_profile(const std::map<std::uint64_t, std::uint64_t>& profile);

  /// Sum of exec_weight over a structure's candidate instructions.
  std::uint64_t candidate_weight_of_module(std::size_t m) const;
  std::uint64_t candidate_weight_of_func(std::size_t f) const;
  std::uint64_t candidate_weight_of_block(std::size_t b) const;

 private:
  std::vector<ModuleEntry> modules_;
  std::vector<FuncEntry> funcs_;
  std::vector<BlockEntry> blocks_;
  std::vector<InstrEntry> instrs_;
  std::vector<std::size_t> candidates_;
  std::map<std::uint64_t, std::size_t> by_addr_;
};

/// True when `ins` is a replacement candidate (Pd member): a double-precision
/// arithmetic/compare/convert instruction, or an FP intrinsic call with a
/// single-precision twin.
bool is_candidate_instr(const arch::Instr& ins);

/// True when `ins` interprets f64 data and must therefore be wrapped by the
/// instrumenter even when kept in double precision.
bool is_fp_touching_instr(const arch::Instr& ins);

}  // namespace fpmix::config
