// A loadable binary image: encoded code, initialized data, symbols.
//
// This is the framework's equivalent of an ELF executable. Everything the
// analysis system does -- CFG recovery, patching, rewriting, execution --
// starts from and returns to this byte-level representation, mirroring how
// the paper's tool consumes and emits real binaries.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fpmix::program {

/// Function symbol. `module` models the object file / library the function
/// came from; the search descends module -> function -> block -> instruction.
struct Symbol {
  std::string name;
  std::string module;
  std::uint64_t addr = 0;  // entry address in the code segment
  std::uint64_t size = 0;  // bytes of code
};

/// Provenance record emitted by the rewriter: instruction at `addr` in this
/// image derives from the instruction at `origin` in the original binary
/// (the analogue of a debug-info line table). Sorted by `addr`.
struct OriginEntry {
  std::uint64_t addr = 0;
  std::uint64_t origin = 0;
};

class Image {
 public:
  static constexpr std::uint64_t kDefaultCodeBase = 0x400000;  // 4 MiB
  static constexpr std::uint64_t kDefaultDataBase = 0x500000;  // 5 MiB
  static constexpr std::uint64_t kDefaultBssBase = 0xA00000;   // 10 MiB
  static constexpr std::uint64_t kDefaultMemorySize = 1ull << 24;  // 16 MiB

  std::uint64_t code_base = kDefaultCodeBase;
  std::vector<std::uint8_t> code;

  std::uint64_t data_base = kDefaultDataBase;
  std::vector<std::uint8_t> data;   // initialized data segment

  /// Zero-initialized region. When bss_base is 0, bss begins immediately
  /// after the data segment; the assembler places it at a fixed address so
  /// bss slots can be handed out while the data segment is still growing.
  std::uint64_t bss_base = 0;
  std::uint64_t bss_size = 0;

  std::uint64_t effective_bss_base() const {
    return bss_base != 0 ? bss_base : data_base + data.size();
  }

  std::uint64_t entry = 0;          // address of the program entry point
  std::uint64_t memory_size = kDefaultMemorySize;  // VM address-space size

  /// Sorted by address, non-overlapping, covering all of `code`.
  std::vector<Symbol> symbols;

  /// Optional provenance table (empty for images that were never patched).
  std::vector<OriginEntry> origins;

  /// Maps an address in this image to its original-program address; returns
  /// `addr` itself when no provenance is recorded.
  std::uint64_t origin_of(std::uint64_t addr) const;

  /// Returns the function containing `addr`, or nullptr.
  const Symbol* find_function_at(std::uint64_t addr) const;

  /// Returns the function named `name`, or nullptr.
  const Symbol* find_function(std::string_view name) const;

  /// End address of the code segment (exclusive).
  std::uint64_t code_end() const { return code_base + code.size(); }

  /// Bytes of one function's body.
  std::span<const std::uint8_t> function_bytes(const Symbol& sym) const;

  /// Validates structural invariants (symbol coverage, ordering, entry in
  /// range). Throws ProgramError on violation.
  void validate() const;
};

/// validate()'s checks once the symbols are known to abut and cover
/// [code_base, code_end): the entry lies in the code, and the data and bss
/// sections fit. `s` is an Image or a Program (the same section fields), so
/// a spliced image (vm::ExecutableImage::build_spliced) is checked exactly
/// like its assembled bytes would be, without assembling them. Throws
/// ProgramError.
template <typename Sections>
void validate_sections(const Sections& s, std::uint64_t code_end,
                       std::uint64_t entry);

}  // namespace fpmix::program
