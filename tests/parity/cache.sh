# Cache: the warm caches never change the science. Two cached runs and one
# --no-image-cache run land on byte-identical configs, and the cached run
# (vote rounds repeat configs under --retries) hits the warm caches.
. "$(dirname "$0")/lib.sh"

"$NAS" ep S --retries 1 --metrics-json cache-metrics.json \
  --out cached-1.cfg --quiet
"$NAS" ep S --retries 1 --out cached-2.cfg --quiet
"$NAS" ep S --retries 1 --no-image-cache \
  --metrics-json nocache-metrics.json --out uncached.cfg --quiet
diff cached-1.cfg cached-2.cfg
diff cached-1.cfg uncached.cfg
nonzero 'image_cache_hits|funcs_reused' cache-metrics.json
grep -q '"image_cache_hits": 0' nocache-metrics.json
grep -q "\"jit_downgraded\": $SANITIZED," cache-metrics.json

# Both files are well-formed JSON. Both searches ran live trials, so their
# stage ledger times Machine setup and never exceeds the evaluation time it
# splits.
python3 - cache-metrics.json nocache-metrics.json <<'PY'
import json, sys
for f in sys.argv[1:]:
    m = json.load(open(f))
    assert m["trials_live"] > 0, m["trials_live"]
    assert m["setup_seconds"] > 0, m["setup_seconds"]
    staged = sum(m[k + "_seconds"] for k in
                 ("patch", "predecode", "setup", "jit", "run", "verify"))
    assert staged <= m["eval_seconds"], (staged, m["eval_seconds"])
PY
