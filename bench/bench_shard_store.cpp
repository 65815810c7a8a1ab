// Durable shard-store cost model (DESIGN.md section 4.9).
//
// Three columns answer the two questions --state-dir raises:
//
//   append    what does persisting each streamed journal record cost the
//             daemon's event loop, buffered-write + flush (the default)?
//   +fsync    and with --state-fsync, one disk round-trip per record?
//   reload    how long does a restarted daemon take to restore a shard of
//             N records (CRC check + seq dedupe per line)?
//
// The append columns bound the per-record overhead a scheduler's stream
// sees; the reload column bounds restart-to-serving latency. Rows sweep
// shard size so the linear scaling is visible.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "net/shard_store.hpp"
#include "support/journal.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"

using namespace fpmix;

namespace {

/// A sealed journal line shaped like a real streamed trial record.
std::string make_line(std::uint64_t seq) {
  const std::string body = strformat(
      "{\"type\":\"trial\",\"key\":\"bench-%llu\",\"passed\":true,"
      "\"score\":%llu}",
      static_cast<unsigned long long>(seq),
      static_cast<unsigned long long>(seq));
  return seal_record(body, seq);
}

void remove_tree(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

void run_row(std::size_t records) {
  const std::string fp = "bench-shard-fp";
  std::vector<std::string> lines;
  lines.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    lines.push_back(make_line(static_cast<std::uint64_t>(i + 1)));
  }

  double append_s = 0.0, fsync_s = 0.0, reload_s = 0.0;
  std::uint64_t reloaded = 0;
  std::string dir;
  for (int pass = 0; pass < 2; ++pass) {
    char tmpl[] = "/tmp/fpmix_bench_shard.XXXXXX";
    char* d = mkdtemp(tmpl);
    if (d == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::exit(1);
    }
    dir = d;
    net::ShardStoreOptions opts;
    opts.dir = dir;
    opts.fsync = pass == 1;
    {
      net::ShardStore store(opts);
      Timer t;
      for (const std::string& line : lines) store.append_journal(fp, line);
      (pass == 0 ? append_s : fsync_s) = t.elapsed_seconds();
    }
    if (pass == 0) {
      // Reload the un-fsynced shard: same bytes, fresh store.
      net::ShardStore store(opts);
      std::map<std::string, std::map<std::uint64_t, std::string>> journal;
      Timer t;
      store.load(&journal);
      reload_s = t.elapsed_seconds();
      reloaded = store.stats().records_reloaded;
    }
    remove_tree(dir);
  }

  const double us = 1e6 / static_cast<double>(records);
  std::printf("  %8zu %10.2fus %10.2fus %9.2fms %8llu %s\n", records,
              append_s * us, fsync_s * us, reload_s * 1e3,
              static_cast<unsigned long long>(reloaded),
              reloaded == records ? "intact" : "LOST RECORDS");
  std::fflush(stdout);
}

}  // namespace

int main() {
  std::printf("shard-store durability cost (per-record append, whole-shard "
              "reload)\n");
  std::printf("  %8s %12s %12s %11s %8s\n", "records", "append", "+fsync",
              "reload", "restored");
  for (const std::size_t n : {100u, 1000u, 10000u}) run_row(n);
  std::printf("\nappend/+fsync are per-record; reload is the full shard "
              "(restart-to-serving).\n");
  return 0;
}
