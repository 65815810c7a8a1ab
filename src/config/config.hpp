// PrecisionConfig: a hierarchical precision assignment over a program's
// structure (Section 2.1).
//
// Flags may be set at module, function, block or instruction level. An
// aggregate's flag overrides all flags of its children, exactly as the
// paper's exchange format specifies. Unflagged candidates default to double
// precision; non-candidate instructions are never narrowed regardless of
// flags (they are still wrapped with tag checks by the instrumenter).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "config/precision.hpp"
#include "config/structure.hpp"

namespace fpmix::config {

class PrecisionConfig {
 public:
  PrecisionConfig() = default;

  /// Creates an all-default (double) configuration shaped like `index`.
  explicit PrecisionConfig(const StructureIndex& index);

  // ---- Flag setters (id spaces are the StructureIndex's) -----------------
  void set_module(std::size_t m, std::optional<Precision> p);
  void set_func(std::size_t f, std::optional<Precision> p);
  void set_block(std::size_t b, std::optional<Precision> p);
  void set_instr(std::size_t i, std::optional<Precision> p);

  std::optional<Precision> module_flag(std::size_t m) const;
  std::optional<Precision> func_flag(std::size_t f) const;
  std::optional<Precision> block_flag(std::size_t b) const;
  std::optional<Precision> instr_flag(std::size_t i) const;

  // ---- Resolution ---------------------------------------------------------
  /// Effective precision of instruction id `i`, applying aggregate
  /// overrides: module > function > block > instruction > default(double).
  Precision resolve(const StructureIndex& index, std::size_t i) const;

  /// The precision instruction `i` is instrumented with: resolve(), except
  /// that a `single` flag reaching a non-candidate (only an aggregate flag
  /// can) leaves it double. instrument::precision_signature is this, per
  /// instruction.
  Precision effective_precision(const StructureIndex& index,
                                std::size_t i) const;

  /// The instruction-level configuration that flags exactly the
  /// instructions whose effective precision is not double, each with that
  /// precision. It is all of this config that the instrumenter sees: two
  /// configs have equal effective configs exactly when their signature
  /// vectors are equal, and then they build bit-identical trial images.
  PrecisionConfig effective(const StructureIndex& index) const;

  /// One entry per function of `index`: true when a flag of this config
  /// reaches it (a flag on its module, on itself, or on one of its blocks
  /// or instructions). Every instruction of an unreached function resolves
  /// to the default. Flags on ids outside `index` reach nothing.
  std::vector<bool> reached_funcs(const StructureIndex& index) const;

  /// Candidate instruction ids that resolve to kSingle.
  std::vector<std::size_t> replaced_candidates(
      const StructureIndex& index) const;

  // ---- Composition --------------------------------------------------------
  /// Merges `other`'s single/ignore flags into this configuration (used to
  /// assemble the "final" configuration as the union of all individually
  /// passing configurations, Section 2.2).
  void merge_union(const PrecisionConfig& other);

  /// True when no structure is flagged single (the all-double baseline).
  bool is_all_double(const StructureIndex& index) const;

  // ---- Identity -----------------------------------------------------------
  /// Canonical, index-independent serialization of the flag stores:
  /// `m<id>=<flag>;f<id>=<flag>;b<id>=<flag>;i<id>=<flag>;` in ascending id
  /// order per level. Two configs have equal keys iff they set the same
  /// flags, so the key (and its hash) identifies a search trial across
  /// process runs -- the basis of the persistent trial cache.
  std::string canonical_key() const;

  /// Stable 64-bit digest of canonical_key() (FNV-1a, hex form via
  /// fpmix::hex_digest). Never hashed with std::hash: journal files persist
  /// these digests across runs and platforms.
  std::uint64_t stable_hash() const;

  /// Inverse of canonical_key(): rebuilds the flag stores from the
  /// serialization. Index-independent, so a configuration can cross a
  /// process boundary (the sandboxed trial runner ships configs this way).
  /// Returns false on malformed input, leaving *out unspecified. Round-trip
  /// invariant: from_canonical_key(c.canonical_key()) == c.
  static bool from_canonical_key(std::string_view key, PrecisionConfig* out);

  bool operator==(const PrecisionConfig&) const = default;

 private:
  // Sparse flag stores: id -> flag. Sparse because search configurations
  // flag a handful of nodes in programs with thousands of instructions.
  std::map<std::size_t, Precision> module_;
  std::map<std::size_t, Precision> func_;
  std::map<std::size_t, Precision> block_;
  std::map<std::size_t, Precision> instr_;
};

/// Statistics of a configuration against an index (Figure 10 columns).
struct ReplacementStats {
  std::size_t candidates = 0;          // |Pd|
  std::size_t replaced_static = 0;     // candidates resolving to single
  double static_pct = 0.0;             // replaced_static / candidates
  std::uint64_t exec_total = 0;        // profiled executions of candidates
  std::uint64_t exec_replaced = 0;     // ... of replaced candidates
  double dynamic_pct = 0.0;            // exec_replaced / exec_total
};

ReplacementStats replacement_stats(const StructureIndex& index,
                                   const PrecisionConfig& cfg);

}  // namespace fpmix::config
