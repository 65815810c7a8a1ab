// ShardStore: the daemon's durable state layer.
//
// RunnerServer's replicated journal shards are the fleet's memory --
// `--adopt` failover and `--shard-cache` hits (served from the shard's trial
// lines) both depend on them -- but in RAM they die with the daemon. This
// module backs each per-search_fp shard with an append-only file under a
// state directory, reusing the sealed v2 record format and torn-tail healing from
// support/journal so the files are crash-safe by the same argument as the
// local journal: an interrupted append loses at most the line being
// written, and CRC seals let the reload skip exactly the damaged records.
//
// Layout under the state dir (one file per shard, named by the FNV-1a
// digest of the search fingerprint; the fingerprint itself lives in a
// sealed header line, seq 0, so reload never trusts the filename):
//
//   shard-<hex16>.jsonl   header + streamed journal lines, verbatim
//
// Any other file (a `cache-<hex16>.jsonl` verdict file from a protocol-v8
// daemon, say) is ignored.
//
// Appends are buffered-write + flush (+ optional fsync); compaction -- after
// reload-time damage or enough in-memory evictions -- rewrites a shard file
// through support::atomic_replace (tmp + fsync + rename + directory fsync).
//
// Failure policy: storage trouble must never cost a search. Any real or
// injected write failure (ENOSPC, unwritable dir) degrades the store to a
// no-op -- warned once, counted, surfaced to schedulers as `state_degraded`
// in the hello ack -- and the daemon keeps serving from memory. An
// unreadable file on reload costs only that shard. Deterministic disk
// faults (fault::DiskChaos) are injected at every file op so campaigns can
// prove all of this without a real failing disk.
//
// Single-threaded by design, like the server event loop that owns it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "support/fault.hpp"

namespace fpmix::net {

struct ShardStoreOptions {
  /// State directory (created if absent). Empty disables persistence.
  std::string dir;
  /// fsync(2) every append (power-loss durability, one disk round-trip per
  /// record). Off by default: the daemon's durability target is process
  /// death, and gossip heals what a power cut eats.
  bool fsync = false;
  /// Seeded deterministic disk-fault source; nullptr = no injection.
  const fault::DiskChaos* chaos = nullptr;
  bool verbose = false;
};

struct ShardStoreStats {
  std::uint64_t shards_reloaded = 0;    // files restored at startup
  std::uint64_t records_reloaded = 0;   // intact lines restored
  std::uint64_t records_discarded = 0;  // damaged/duplicate lines dropped
  std::uint64_t compactions = 0;        // atomic shard-file rewrites
  std::uint64_t disk_faults = 0;        // injected + real storage failures
  bool degraded = false;                // persistence abandoned, memory-only
};

class ShardStore {
 public:
  explicit ShardStore(const ShardStoreOptions& opts);
  ~ShardStore();
  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  /// Persistence is live: a directory was configured and no failure has
  /// degraded the store to memory-only operation.
  bool enabled() const { return !opts_.dir.empty() && !stats_.degraded; }

  /// Restores every persisted shard's journal lines into *journal (keyed by
  /// search_fp, then sealed seq). Damaged lines are skipped and counted; a
  /// file that lost lines is compacted in place so the damage is paid once.
  void load(std::map<std::string, std::map<std::uint64_t, std::string>>* journal);

  /// Appends one already-sealed streamed journal line to fp's shard file.
  void append_journal(const std::string& search_fp, const std::string& line);

  /// Records that `evicted` in-memory records were shed from fp's shard
  /// (max_shard_records) and compacts the file down to `by_seq` once enough
  /// staleness accumulates, so the file tracks the retained window instead
  /// of growing without bound.
  void note_evicted(const std::string& search_fp, std::uint64_t evicted,
                    const std::map<std::uint64_t, std::string>& by_seq);

  /// Deletes fp's shard file (whole-shard LRU eviction).
  void remove_journal(const std::string& search_fp);

  const ShardStoreStats& stats() const { return stats_; }

 private:
  struct FileState {
    std::string path;
    std::string chaos_key;  // stable basename, keys the DiskChaos stream
    std::FILE* f = nullptr;
    std::uint64_t ops = 0;    // per-file disk-fault op index (reload = 0)
    std::uint64_t stale = 0;  // evicted records still on disk
  };

  FileState* file_for(const std::string& search_fp);
  void append_line(FileState* fs, const std::string& line);
  void compact(const std::string& search_fp,
               const std::map<std::uint64_t, std::string>& by_seq);
  void degrade(const std::string& reason);
  void close_all();

  ShardStoreOptions opts_;
  ShardStoreStats stats_;
  std::map<std::string, FileState> journal_files_;  // by search_fp
  bool warned_ = false;
};

}  // namespace fpmix::net
