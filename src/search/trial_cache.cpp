#include "search/trial_cache.hpp"

#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

namespace fpmix::search {

void TrialCache::insert(const std::string& key, CachedTrial trial) {
  trials_.try_emplace(key, std::move(trial));
}

const CachedTrial* TrialCache::lookup(const std::string& key) const {
  const auto it = trials_.find(key);
  return it == trials_.end() ? nullptr : &it->second;
}

std::string search_fingerprint(const std::string& verifier_fingerprint,
                               std::uint64_t max_instructions_per_run,
                               std::uint64_t deadline_ms,
                               const std::string& fault_tag) {
  std::uint64_t h = fnv1a64(verifier_fingerprint);
  h = fnv1a64_mix(h, max_instructions_per_run);
  // Folded only when set, so clean, deadline-free fingerprints are
  // byte-identical to the ones version-1 journals were recorded under.
  if (deadline_ms != 0) h = fnv1a64_mix(fnv1a64("deadline", h), deadline_ms);
  if (!fault_tag.empty()) h = fnv1a64(fault_tag, fnv1a64("faults", h));
  return hex_digest(h);
}

std::string encode_meta_line(const std::string& search_fp) {
  return strformat("{\"type\":\"meta\",\"version\":2,\"search_fp\":\"%s\"}",
                   json_escape(search_fp).c_str());
}

std::size_t load_journal(const std::string& path,
                         const std::string& search_fp, TrialCache* cache,
                         JournalReplayStats* stats) {
  JournalReplayStats local;
  JournalReplayStats& s = stats != nullptr ? *stats : local;
  s = JournalReplayStats{};
  bool fp_matches = false;    // until a meta record says otherwise
  std::uint64_t last_seq = 0;  // per journal session (reset by meta records)
  for (const std::string& line : Journal::read_lines(path)) {
    if (trim(line).empty()) continue;
    const SealCheck seal = check_seal(line);
    if (seal == SealCheck::kCorrupt) {
      ++s.crc_mismatch;
      continue;
    }
    JsonRecord rec;
    if (!parse_flat_json(line, &rec)) {
      ++s.malformed;
      continue;
    }
    std::uint64_t seq = 0;
    const bool sealed = seal == SealCheck::kOk;
    if (sealed) {
      const auto it = rec.find("seq");
      if (it == rec.end() || !parse_u64(it->second, &seq)) {
        ++s.malformed;
        continue;
      }
    }
    const auto type = rec.find("type");
    if (type == rec.end()) {
      ++s.malformed;
      continue;
    }
    if (type->second == "meta") {
      const auto fp = rec.find("search_fp");
      fp_matches = fp != rec.end() && fp->second == search_fp;
      // A meta record opens a new journal session; its writer restarted
      // sequence numbering, so the duplicate/gap tracker restarts too.
      last_seq = seq;
      continue;
    }
    if (sealed) {
      if (seq <= last_seq) {
        ++s.duplicate_seq;  // a replayed line (or an out-of-order splice)
        continue;
      }
      if (seq != last_seq + 1) ++s.seq_gaps;  // records were lost in between
      last_seq = seq;
    } else {
      ++s.legacy;
    }
    if (type->second != "trial") continue;  // future record types: ignore
    if (!fp_matches) {
      ++s.foreign;  // recorded under a different search identity
      continue;
    }
    std::string key;
    CachedTrial t;
    if (!verify::decode_trial_line(rec, &key, &t)) {
      ++s.malformed;
      continue;
    }
    cache->insert(key, std::move(t));
    ++s.loaded;
  }
  const std::size_t damaged = s.malformed + s.crc_mismatch + s.duplicate_seq;
  if (damaged > 0 || s.seq_gaps > 0) {
    log::warnf(
        "trial journal %s: skipped %zu damaged record(s)"
        " (%zu malformed, %zu CRC mismatch, %zu duplicate), %zu sequence"
        " gap(s); replay continued past the damage",
        path.c_str(), damaged, s.malformed, s.crc_mismatch, s.duplicate_seq,
        s.seq_gaps);
  }
  return s.loaded;
}

}  // namespace fpmix::search
