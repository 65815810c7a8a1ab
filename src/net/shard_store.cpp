#include "net/shard_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "support/hash.hpp"
#include "support/journal.hpp"
#include "support/log.hpp"
#include "support/strings.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FPMIX_STORE_POSIX 1
#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#else
#define FPMIX_STORE_POSIX 0
#endif

namespace fpmix::net {

namespace {

/// Stable shard file basename for a search fingerprint. The fingerprint is
/// free-form text, so the name is its FNV-1a digest; the fingerprint itself
/// is recorded in the file's sealed header, which is what reload trusts.
std::string shard_basename(const std::string& search_fp) {
  return strformat("shard-%s.jsonl", hex_digest(fnv1a64(search_fp)).c_str());
}

std::string head_record(const std::string& search_fp) {
  return strformat(
      "{\"type\":\"shard-head\",\"kind\":\"journal\",\"search_fp\":\"%s\"}",
      json_escape(search_fp).c_str());
}

#if FPMIX_STORE_POSIX
/// mkdir -p: creates every missing component of `dir`. EEXIST is success.
bool mkdir_p(const std::string& dir) {
  std::string partial;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    partial = slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (partial.empty()) continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  struct stat st{};
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}
#endif

}  // namespace

ShardStore::ShardStore(const ShardStoreOptions& opts) : opts_(opts) {
  if (opts_.dir.empty()) return;
#if FPMIX_STORE_POSIX
  if (!mkdir_p(opts_.dir)) {
    degrade(strformat("cannot create state dir %s: %s", opts_.dir.c_str(),
                      std::strerror(errno)));
    return;
  }
  // Probe writability up front so a read-only state dir is reported as
  // degraded in the very first hello ack, not on the first append.
  const std::string probe = opts_.dir + "/.probe";
  std::FILE* f = std::fopen(probe.c_str(), "wb");
  if (f == nullptr) {
    degrade(strformat("state dir %s is not writable: %s", opts_.dir.c_str(),
                      std::strerror(errno)));
    return;
  }
  std::fclose(f);
  std::remove(probe.c_str());
#else
  degrade("shard persistence unsupported on this platform");
#endif
}

ShardStore::~ShardStore() { close_all(); }

void ShardStore::close_all() {
  for (auto& [fp, fs] : journal_files_) {
    if (fs.f != nullptr) std::fclose(fs.f);
    fs.f = nullptr;
  }
}

void ShardStore::degrade(const std::string& reason) {
  ++stats_.disk_faults;
  if (stats_.degraded) return;
  stats_.degraded = true;
  close_all();
  if (!warned_) {
    warned_ = true;
    log::warnf("runner_serve: shard persistence degraded to in-memory "
               "operation: %s",
               reason.c_str());
  }
}

void ShardStore::load(
    std::map<std::string, std::map<std::uint64_t, std::string>>* journal) {
  if (!enabled()) return;
#if FPMIX_STORE_POSIX
  DIR* d = ::opendir(opts_.dir.c_str());
  if (d == nullptr) {
    degrade(strformat("cannot scan state dir %s: %s", opts_.dir.c_str(),
                      std::strerror(errno)));
    return;
  }
  std::vector<std::string> names;
  while (dirent* e = ::readdir(d)) names.emplace_back(e->d_name);
  ::closedir(d);
  // Deterministic reload order regardless of directory hash order.
  std::sort(names.begin(), names.end());

  for (const std::string& name : names) {
    if (name.rfind("shard-", 0) != 0 || name.size() < 7 ||
        name.substr(name.size() - 6) != ".jsonl") {
      continue;
    }
    const std::string path = opts_.dir + "/" + name;
    if (opts_.chaos != nullptr &&
        opts_.chaos->for_op(name, 0) == fault::DiskFault::kUnreadable) {
      // Injected EIO on open: this shard is lost to the reload (gossip or
      // the next adoption re-streams it); the store itself stays healthy.
      ++stats_.disk_faults;
      log::warnf("runner_serve: state file %s unreadable on reload (injected)",
                 path.c_str());
      continue;
    }
    const std::vector<std::string> lines = Journal::read_lines(path);
    // The sealed header (seq 0) is the file's identity; without an intact
    // one the records cannot be attributed, so the file is discarded and
    // removed (a later append recreates it with a fresh header).
    JsonRecord head;
    std::uint64_t head_seq = 1;
    if (lines.empty() || check_seal(lines[0]) != SealCheck::kOk ||
        !sealed_seq(lines[0], &head_seq) || head_seq != 0 ||
        !parse_flat_json(lines[0], &head) || head["type"] != "shard-head" ||
        head["kind"] != "journal" ||
        head.find("search_fp") == head.end()) {
      stats_.records_discarded += lines.size();
      std::remove(path.c_str());
      log::warnf("runner_serve: state file %s has no intact header; dropped",
                 path.c_str());
      continue;
    }
    const std::string fp = head["search_fp"];

    auto& by_seq = (*journal)[fp];
    std::uint64_t discarded = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      std::uint64_t seq = 0;
      if (check_seal(lines[i]) != SealCheck::kOk ||
          !sealed_seq(lines[i], &seq) || seq == 0 ||
          !by_seq.emplace(seq, lines[i]).second) {
        ++discarded;
        continue;
      }
      ++stats_.records_reloaded;
    }
    stats_.records_discarded += discarded;
    FileState fs;
    fs.path = path;
    fs.chaos_key = name;
    journal_files_.emplace(fp, std::move(fs));
    ++stats_.shards_reloaded;
    // Damage is paid once: rewrite the file down to the intact records so
    // the next reload (and every fetch of the file) starts clean.
    if (discarded > 0) compact(fp, by_seq);
    if (opts_.verbose) {
      log::infof("runner_serve: reloaded journal shard %s (%zu records, "
                 "%llu discarded)",
                 fp.c_str(), by_seq.size(),
                 static_cast<unsigned long long>(discarded));
    }
  }
#else
  (void)journal;
#endif
}

ShardStore::FileState* ShardStore::file_for(const std::string& search_fp) {
  auto it = journal_files_.find(search_fp);
  if (it != journal_files_.end()) return &it->second;
  FileState fs;
  fs.chaos_key = shard_basename(search_fp);
  fs.path = opts_.dir + "/" + fs.chaos_key;
  FileState* out =
      &journal_files_.emplace(search_fp, std::move(fs)).first->second;
  // New shard: the sealed header must precede any record.
  append_line(out, seal_record(head_record(search_fp), 0));
  return out;
}

void ShardStore::append_line(FileState* fs, const std::string& line) {
  if (!enabled()) return;
  const fault::DiskFault fault =
      opts_.chaos != nullptr
          ? opts_.chaos->for_op(fs->chaos_key, ++fs->ops)
          : fault::DiskFault::kNone;
  if (fault == fault::DiskFault::kEnospc) {
    degrade(strformat("write %s: injected ENOSPC", fs->path.c_str()));
    return;
  }
  if (fs->f == nullptr) {
    fs->f = std::fopen(fs->path.c_str(), "ab");
    if (fs->f == nullptr) {
      degrade(strformat("open %s: %s", fs->path.c_str(),
                        std::strerror(errno)));
      return;
    }
  }
  std::string_view bytes = line;
  bool newline = true;
  if (fault == fault::DiskFault::kShortWrite) {
    // A torn write: only a prefix reaches the file and no newline follows.
    // Reload's seal check drops the mangled record (and whatever the next
    // append glues onto it) exactly like a crash mid-append.
    bytes = bytes.substr(0, bytes.size() / 2);
    newline = false;
    ++stats_.disk_faults;
  } else if (fault == fault::DiskFault::kTornRecord) {
    newline = false;
    ++stats_.disk_faults;
  }
  const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), fs->f);
  if (newline) std::fputc('\n', fs->f);
  if (wrote != bytes.size() || std::fflush(fs->f) != 0 ||
      std::ferror(fs->f) != 0) {
    degrade(strformat("write %s: %s", fs->path.c_str(),
                      std::strerror(errno)));
    return;
  }
#if FPMIX_STORE_POSIX
  if (opts_.fsync) {
    if (fault == fault::DiskFault::kFsyncFail) {
      // The record sits in the page cache only; process death keeps it,
      // power loss may not. Counted so campaigns can audit the exposure.
      ++stats_.disk_faults;
    } else {
      ::fsync(::fileno(fs->f));
    }
  }
#endif
}

void ShardStore::append_journal(const std::string& search_fp,
                                const std::string& line) {
  if (!enabled()) return;
  append_line(file_for(search_fp), line);
}

void ShardStore::compact(const std::string& search_fp,
                         const std::map<std::uint64_t, std::string>& by_seq) {
  auto it = journal_files_.find(search_fp);
  if (it == journal_files_.end()) return;
  FileState& fs = it->second;
  if (fs.f != nullptr) {
    std::fclose(fs.f);
    fs.f = nullptr;
  }
  std::string contents = seal_record(head_record(search_fp), 0);
  contents += '\n';
  for (const auto& [seq, line] : by_seq) {
    contents += line;
    contents += '\n';
  }
  std::string error;
  if (!atomic_replace(fs.path, contents, &error)) {
    degrade(strformat("compact %s: %s", fs.path.c_str(), error.c_str()));
    return;
  }
  fs.stale = 0;
  ++stats_.compactions;
}

void ShardStore::note_evicted(const std::string& search_fp,
                              std::uint64_t evicted,
                              const std::map<std::uint64_t, std::string>& by_seq) {
  if (!enabled() || evicted == 0) return;
  auto it = journal_files_.find(search_fp);
  if (it == journal_files_.end()) return;
  it->second.stale += evicted;
  // Rewriting per eviction would be quadratic; let a bounded backlog of
  // shed records build up, then pay one atomic rewrite.
  if (it->second.stale > 256) compact(search_fp, by_seq);
}

void ShardStore::remove_journal(const std::string& search_fp) {
  auto it = journal_files_.find(search_fp);
  if (it == journal_files_.end()) return;
  if (it->second.f != nullptr) std::fclose(it->second.f);
  std::remove(it->second.path.c_str());
  journal_files_.erase(it);
}

}  // namespace fpmix::net
