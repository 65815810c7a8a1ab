# Supervision: a search with a per-trial deadline and majority-vote retries
# converges, then resumes from its own journal. nas_search exits 1 on a
# clean composite-fail and 3 on crash storms or internal-error trials, so
# a plain run is an assertion.
. "$(dirname "$0")/lib.sh"

for _ in 1 2; do
  "$NAS" ep S --deadline-ms 5000 --retries 1 --journal soak-smoke.jsonl \
    --out /dev/null --quiet
done

# Isolation: the same search through sandboxed workers lands on the
# journaled configs. Journal fingerprints are mode-compatible for clean
# campaigns, so the warm run replays entirely from cache.
"$NAS" ep S --deadline-ms 5000 --retries 1 --isolate --workers 2 \
  --journal soak-smoke.jsonl --metrics-json iso-smoke-metrics.json \
  --out /dev/null --quiet
grep -q '"trials_live": 0' iso-smoke-metrics.json
grep -q "\"jit_downgraded\": $SANITIZED," iso-smoke-metrics.json
python3 -m json.tool iso-smoke-metrics.json > /dev/null
