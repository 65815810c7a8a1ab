# Restart: daemon 1 dies after serving 5 trial results and restarts on the
# same port and --state-dir while the search still runs. It reloads its
# persisted shard, gossip re-streams whatever its death cost it, and the
# search finishes byte-identical to the in-process reference.
. "$(dirname "$0")/lib.sh"

serve ep1 --state-dir state1 --exit-after 5
serve ep2 --state-dir state2
det clean cg W --threads 4
"$NAS" cg W --connect "$(fleet)" --journal-deterministic \
  --journal restart.jsonl --heartbeat-ms 50 --gossip-ms 100 \
  --metrics-json restart-metrics.json --out restart.cfg --quiet &
echo $! > sched.pid
wait "$(cat ep1.pid)" 2>/dev/null || true
echo "daemon 1 died at $(wc -l < restart.jsonl) journal line(s)"
respawn ep1 --state-dir state1
wait "$(cat sched.pid)"
same clean restart
first_nonzero disconnects restart-metrics.json

# Then the whole fleet dies and restarts from disk, the only surviving copy
# of the history. A fresh scheduler with a fresh journal path adopts the
# reloaded shards and lands the reference's exact bytes.
for f in ep1.pid ep2.pid; do
  kill -9 "$(cat "$f")" 2>/dev/null || true
  wait "$(cat "$f")" 2>/dev/null || true
done
respawn ep1 --state-dir state1
respawn ep2 --state-dir state2
det adopt cg W --connect "$(fleet)" --adopt --heartbeat-ms 50 \
  --gossip-ms 100 --metrics-json adopt-metrics.json
same clean adopt
nonzero adopted_records adopt-metrics.json
first_nonzero shards_reloaded adopt-metrics.json
