# Fleet: a search served by two real runner_serve daemons writes the
# in-process reference's config and journal bytes. The reference's lane
# count matches the fleet's capacity (2 endpoints x 2 workers), so the
# journals interleave identically.
. "$(dirname "$0")/lib.sh"

serve ep1
serve ep2
det clean ep S --threads 4
det dist ep S --connect "$(fleet)" --shard-cache \
  --metrics-json dist-metrics.json
same clean dist
grep -q '"remote_degraded": false' dist-metrics.json
nonzero remote_trials dist-metrics.json

# A repeat of that search is answered from the trial lines the first one
# streamed to the daemons' journal shards, and writes the same bytes.
det repeat ep S --connect "$(fleet)" --shard-cache \
  --metrics-json repeat-metrics.json
same clean repeat
nonzero shard_cache_hits repeat-metrics.json

# A hard-fault campaign carried to the daemons in the hello: their pools
# crash, respawn and retry workers, and the search still lands on the
# clean config.
"$NAS" ep S --connect "$(fleet)" --fault-seed 7 --max-crashes 6 \
  --out fleet-faulted.cfg --quiet
diff clean.cfg fleet-faulted.cfg

# Endpoint death: one daemon stops after 5 results, and the surviving
# shard absorbs its in-flight work without losing an accepted trial.
serve dying --exit-after 5
det death ep S --connect "$(cat dying.txt),$(cat ep1.txt)" \
  --metrics-json death-metrics.json
same clean death
grep -q '"remote_unserved": 0' death-metrics.json
