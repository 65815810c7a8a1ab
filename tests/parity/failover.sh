# Failover: a fleet search whose scheduler is SIGKILLed once its journal
# shows progress. Every committed record was streamed to both daemons'
# replicated shards as it was sealed.
. "$(dirname "$0")/lib.sh"

serve ep1
serve ep2
det clean ep S --threads 4
"$NAS" ep S --connect "$(fleet)" --journal-deterministic \
  --journal killed.jsonl --heartbeat-ms 50 --quiet &
echo $! > sched.pid
for _ in $(seq 1 300); do
  kill -0 "$(cat sched.pid)" 2>/dev/null || break
  [ -f killed.jsonl ] && [ "$(wc -l < killed.jsonl)" -ge 3 ] && break
  sleep 0.1
done
kill -9 "$(cat sched.pid)" 2>/dev/null || true
wait "$(cat sched.pid)" 2>/dev/null || true
echo "journal at kill: $(wc -l < killed.jsonl) line(s)"

# A fresh scheduler with a fresh journal path (only the fleet's shards
# hold the dead scheduler's history) adopts, resumes and lands the
# reference's exact bytes.
det adopt ep S --connect "$(fleet)" --adopt --heartbeat-ms 50 \
  --metrics-json adopt-metrics.json
same clean adopt
nonzero adopted_records adopt-metrics.json
