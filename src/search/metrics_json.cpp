// search::metrics_json: the one serializer of SearchMetrics (the
// `nas_search --metrics-json` file).
#include <map>
#include <string>

#include "search/search.hpp"
#include "support/journal.hpp"
#include "support/strings.hpp"
#include "vm/jit/jit.hpp"

namespace fpmix::search {

std::string metrics_json(const SearchResult& res) {
  const SearchMetrics& m = res.metrics;
  std::string j = "{\n";
  const auto num = [&j](const char* k, double v) {
    j += strformat("  \"%s\": %.6f,\n", k, v);
  };
  const auto uint = [&j](const char* k, unsigned long long v) {
    j += strformat("  \"%s\": %llu,\n", k, v);
  };
  const auto boolean = [&j](const char* k, bool v) {
    j += strformat("  \"%s\": %s,\n", k, v ? "true" : "false");
  };
  const auto census = [&j](const char* k,
                           const std::map<std::string, std::size_t>& counts) {
    j += strformat("  \"%s\": {", k);
    const char* sep = "";
    for (const auto& [name, n] : counts) {
      j += strformat("%s\"%s\": %zu", sep, json_escape(name).c_str(), n);
      sep = ", ";
    }
    j += "},\n";
  };
  uint("trials_total", m.trials_total);
  uint("trials_live", m.trials_live);
  uint("trials_cached", m.trials_cached);
  uint("trials_derived", m.trials_derived);
  num("cache_hit_rate", m.cache_hit_rate);
  num("wall_seconds", m.wall_seconds);
  num("eval_seconds", m.eval_seconds);
  num("trials_per_sec", m.trials_per_sec);
  num("patch_seconds", m.patch_seconds);
  num("predecode_seconds", m.predecode_seconds);
  num("setup_seconds", m.setup_seconds);
  num("jit_seconds", m.jit_seconds);
  num("run_seconds", m.run_seconds);
  num("verify_seconds", m.verify_seconds);
  num("driver_seconds", m.driver_seconds);
  num("profile_seconds", m.profile_seconds);
  num("unattributed_seconds", m.unattributed_seconds);
  uint("image_cache_hits", m.image_cache_hits);
  uint("image_cache_misses", m.image_cache_misses);
  uint("funcs_reused", m.funcs_reused);
  uint("funcs_patched", m.funcs_patched);
  census("failures_by_class", m.failures_by_class);
  uint("retries", m.retries);
  uint("quarantined", m.quarantined);
  boolean("profile_degraded", m.profile_degraded);
  uint("jit_downgraded", m.jit_downgraded);
  uint("isolated_trials", m.isolated_trials);
  uint("worker_crashes", m.worker_crashes);
  uint("worker_respawns", m.worker_respawns);
  uint("worker_timeouts", m.worker_timeouts);
  uint("protocol_errors", m.protocol_errors);
  uint("crash_quarantined", m.crash_quarantined);
  census("crashes_by_signal", m.crashes_by_signal);
  boolean("crash_storm", m.crash_storm);
  boolean("isolation_degraded", m.isolation_degraded);
  uint("delta_requests", m.delta_requests);
  uint("full_requests", m.full_requests);
  uint("delta_bytes", m.delta_bytes);
  uint("full_bytes", m.full_bytes);
  uint("remote_trials", m.remote_trials);
  uint("shard_cache_hits", m.shard_cache_hits);
  uint("endpoint_failovers", m.endpoint_failovers);
  uint("endpoint_reconnects", m.endpoint_reconnects);
  uint("endpoint_disconnects", m.endpoint_disconnects);
  uint("endpoints_lost", m.endpoints_lost);
  uint("remote_unserved", m.remote_unserved);
  boolean("remote_degraded", m.remote_degraded);
  uint("missed_beats", m.missed_beats);
  uint("lease_expiries", m.lease_expiries);
  uint("late_results", m.late_results);
  uint("redispatched", m.redispatched);
  uint("breaker_trips", m.breaker_trips);
  uint("adopted_records", m.adopted_records);
  uint("gossip_rounds", m.gossip_rounds);
  uint("records_repaired", m.records_repaired);
  uint("shards_reloaded", m.shards_reloaded);
  uint("disk_faults", m.disk_faults);
  uint("state_degraded", m.state_degraded);
  j += "  \"endpoints\": [";
  for (std::size_t i = 0; i < m.endpoints_used.size(); ++i) {
    const EndpointMetrics& e = m.endpoints_used[i];
    j += strformat(
        "%s{\"address\": \"%s\", \"workers\": %u, \"trials\": %zu, "
        "\"cache_hits\": %zu, \"failovers\": %zu, \"reconnects\": %zu, "
        "\"disconnects\": %zu, \"busy_seconds\": %.6f, \"lost\": %s, "
        "\"jit_downgraded\": %s, \"pings\": %zu, \"pongs\": %zu, "
        "\"missed_beats\": %zu, \"lease_expiries\": %zu, "
        "\"late_results\": %zu, \"redispatched\": %zu, "
        "\"breaker_trips\": %zu, \"rtt_p50_us\": %llu, "
        "\"rtt_p95_us\": %llu, \"rtt_max_us\": %llu, "
        "\"journal_records\": %llu, \"gossip_rounds\": %zu, "
        "\"records_repaired\": %zu, \"shards_reloaded\": %llu, "
        "\"disk_faults\": %llu, \"state_degraded\": %s}",
        i == 0 ? "" : ", ", json_escape(e.address).c_str(), e.workers,
        e.trials, e.cache_hits, e.failovers, e.reconnects, e.disconnects,
        1e-9 * static_cast<double>(e.busy_ns), e.lost ? "true" : "false",
        e.jit_downgraded ? "true" : "false", e.pings, e.pongs,
        e.missed_beats, e.lease_expiries, e.late_results, e.redispatched,
        e.breaker_trips, static_cast<unsigned long long>(e.rtt_p50_us),
        static_cast<unsigned long long>(e.rtt_p95_us),
        static_cast<unsigned long long>(e.rtt_max_us),
        static_cast<unsigned long long>(e.journal_records),
        e.gossip_rounds, e.records_repaired,
        static_cast<unsigned long long>(e.shards_reloaded),
        static_cast<unsigned long long>(e.disk_faults),
        e.state_degraded ? "true" : "false");
  }
  j += "],\n";
  j += "  \"workers\": [";
  for (std::size_t i = 0; i < m.worker_slots.size(); ++i) {
    const runner::SlotStats& s = m.worker_slots[i];
    j += strformat(
        "%s{\"slot\": %zu, \"requests\": %llu, \"respawns\": %llu, "
        "\"crashes\": %llu, \"timeouts\": %llu, \"quarantines\": %llu}",
        i == 0 ? "" : ", ", i, static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.respawns),
        static_cast<unsigned long long>(s.crashes),
        static_cast<unsigned long long>(s.timeouts),
        static_cast<unsigned long long>(s.quarantines));
  }
  j += "],\n";
  // Static uop counts across every compile_stream call in this process,
  // delta re-JITs included: how many lowered to inline native code vs an
  // out-of-line helper call, per op family.
  const vm::jit::LoweringStats lw = vm::jit::lowering_totals();
  j += "  \"jit_lowering\": {";
  for (int f = 0; f < vm::jit::LoweringStats::kNumFamilies; ++f) {
    j += strformat("%s\"%s\": {\"native\": %llu, \"helper\": %llu}",
                   f == 0 ? "" : ", ", vm::jit::lowering_family_name(f),
                   static_cast<unsigned long long>(lw.native[f]),
                   static_cast<unsigned long long>(lw.helper[f]));
  }
  j += strformat(
      ", \"fused_pairs\": %llu, \"region_branches\": %llu, "
      "\"reg_alloc_blocks\": %llu, \"reg_alloc_slots\": %llu},\n",
      static_cast<unsigned long long>(lw.fused_pairs),
      static_cast<unsigned long long>(lw.region_branches),
      static_cast<unsigned long long>(lw.reg_alloc_blocks),
      static_cast<unsigned long long>(lw.reg_alloc_slots));
  uint("configs_tested", res.configs_tested);
  boolean("refined", res.refined);
  j += strformat("  \"final_passed\": %s\n}\n",
                 res.final_passed ? "true" : "false");
  return j;
}

}  // namespace fpmix::search
