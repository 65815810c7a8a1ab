# Engines: jit, micro-op and switch searches write byte-identical
# deterministic journals and configs; the engine never leaks into the
# science. The switch interpreter shares no execution path with the other
# two, so the three-way diff is an independent check.
. "$(dirname "$0")/lib.sh"

det micro ep S --engine microop
det jit ep S --engine jit --metrics-json jit-metrics.json
det switch ep S --engine switch
det default ep S --metrics-json default-metrics.json
same micro jit
same micro switch
same micro default
diff jit.jsonl default.jsonl
diff switch.jsonl default.jsonl

# mg S compiles the most internal (in-region) tag-test branches per image
# of the class-S suite.
det mg-default mg S
det mg-micro mg S --engine microop
det mg-switch mg S --engine switch
same mg-micro mg-default
same mg-micro mg-switch

# The default engine is the JIT, or a counted downgrade that compiles
# nothing in a sanitizer build.
grep -q "\"jit_downgraded\": $SANITIZED" jit-metrics.json
grep -q "\"jit_downgraded\": $SANITIZED" default-metrics.json
python3 - default-metrics.json "$SANITIZED" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
assert (m["jit_seconds"] > 0) == (sys.argv[2] == "0"), m["jit_seconds"]
PY
