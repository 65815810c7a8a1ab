// Persistent trial cache for the configuration search.
//
// Every evaluated configuration (a "trial") is identified by the stable
// digest of its PrecisionConfig serialization. Outcomes are held in an
// in-memory cache and appended to a JSONL journal, so that
//   * identical sub-configurations -- common under binary splitting and
//     composition refinement -- are evaluated exactly once, and
//   * a crashed or interrupted search resumes by replaying the journal:
//     the deterministic search re-traverses the same frontier, but every
//     already-journaled trial is served from cache at zero evaluation cost.
//
// Cache entries are only valid for one *search identity*: the verifier
// (its fingerprint covers tolerances and a digest of the reference data)
// plus the evaluation-affecting options. Journals carry that identity in
// meta records, and replay skips trials recorded under a different one.
//
// Journal format (one JSON object per line; see DESIGN.md). Version-2
// records are *sealed*: a per-session sequence number and a CRC32 of the
// line are spliced in before the closing brace (support/journal.hpp), so
// replay detects interior corruption, replayed lines and lost records and
// skips exactly the damaged ones. Version-1 (unsealed) lines stay readable.
//   {"type":"meta","version":2,"search_fp":"<16-hex>","seq":1,"crc":"<8-hex>"}
//   {"type":"trial","key":"<16-hex>","unit":"func cg","cand":12,
//    "passed":false,"class":"trap","failure":"...","eval_ns":18234987,
//    "img_hit":false,"seq":2,"crc":"<8-hex>"}
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "verify/evaluate.hpp"

namespace fpmix::search {

/// Outcome of one evaluated configuration, as persisted in the journal.
/// Pass/fail, the failure class and the failure reason are everything the
/// search's decision procedure consumes, so they are everything the cache
/// has to keep.
struct CachedTrial {
  bool passed = false;
  verify::FailureClass failure_class = verify::FailureClass::kNone;
  std::string failure;
  std::uint64_t eval_ns = 0;  // live evaluation cost when first computed
  /// Whether any attempt was served whole from the image cache when first
  /// computed. Informational (journal analysis); the search's decision
  /// procedure never reads it.
  bool image_cache_hit = false;
};

/// In-memory index of completed trials, keyed on the config digest.
class TrialCache {
 public:
  /// First insert wins (re-evaluating a config is deterministic, so a
  /// duplicate insert never carries new information).
  void insert(const std::string& key, CachedTrial trial);

  /// Returns the cached outcome, or nullptr on a miss.
  const CachedTrial* lookup(const std::string& key) const;

  std::size_t size() const { return trials_.size(); }

 private:
  std::unordered_map<std::string, CachedTrial> trials_;
};

/// Digest identifying a search's evaluation semantics: the verifier
/// fingerprint plus every option that can change a trial's outcome -- the
/// per-run instruction budget, the wall-clock deadline, and (when a fault
/// campaign is active) the campaign tag, so faulted journals never
/// contaminate clean runs. Options that only steer *which* configs get
/// tested (stop level, splitting, prioritisation, thread count) are
/// deliberately excluded so journals stay valid across them.
std::string search_fingerprint(const std::string& verifier_fingerprint,
                               std::uint64_t max_instructions_per_run,
                               std::uint64_t deadline_ms = 0,
                               const std::string& fault_tag = "");

/// Journal meta record announcing the search identity of subsequent trials.
std::string encode_meta_line(const std::string& search_fp);

/// Journal trial record.
std::string encode_trial_line(const std::string& key, const std::string& unit,
                              std::size_t candidates, const CachedTrial& t);

/// What journal replay saw, for logging and the recovery tests.
struct JournalReplayStats {
  std::size_t loaded = 0;         // trials inserted into the cache
  std::size_t foreign = 0;        // trials under a different search identity
  std::size_t malformed = 0;      // lines that do not parse as flat JSON
  std::size_t crc_mismatch = 0;   // sealed lines whose CRC failed
  std::size_t duplicate_seq = 0;  // sealed lines replaying an earlier seq
  std::size_t seq_gaps = 0;       // forward jumps in the sequence numbers
  std::size_t legacy = 0;         // accepted unsealed (version-1) records
};

/// Replays the journal at `path` into `cache`: trial records whose most
/// recent preceding meta record matches `search_fp` are inserted. Damaged
/// records self-identify -- a sealed line with a CRC mismatch, a replayed
/// sequence number, or a line that does not parse is skipped (with a
/// warning) and replay continues; one bad line never abandons the journal.
/// Returns the number of trials loaded; `stats` (optional) receives the
/// full breakdown. A missing file loads nothing.
std::size_t load_journal(const std::string& path,
                         const std::string& search_fp, TrialCache* cache,
                         JournalReplayStats* stats = nullptr);

}  // namespace fpmix::search
