# Shared by every parity group. ctest runs each group as
#   bash GROUP.sh NAS_SEARCH RUNNER_SERVE SANITIZED [EXTRA...]
# (tests/parity/CMakeLists.txt). The group works in a fresh scratch
# directory named after it under the build tree, and every daemon it
# started is stopped when it exits, pass or fail. SANITIZED is 1 in a
# sanitizer build, where the JIT cannot run: every default-engine search
# then counts one downgrade (jit_downgraded 1). Otherwise it is 0.
set -eu
NAS=$1 SERVE=$2 SANITIZED=$3
shift 3
work="$PWD/$(basename "$0" .sh)"
rm -rf "$work"
mkdir -p "$work"
cd "$work"

reap() {
  for f in *.pid; do
    [ -f "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
  done
  wait 2>/dev/null || true
}
trap reap EXIT

# det NAME ARGS...: a search whose deterministic journal and final config
# land in NAME.jsonl and NAME.cfg.
det() {
  local name=$1
  shift
  "$NAS" "$@" --journal-deterministic --journal "$name.jsonl" \
    --out "$name.cfg" --quiet
}

# same A B: runs A and B wrote byte-identical configs and journals.
same() {
  diff "$1.cfg" "$2.cfg"
  diff "$1.jsonl" "$2.jsonl"
}

# nonzero PATTERN FILE...: prints every PATTERN counter in the metrics
# files and fails unless at least one of them is non-zero.
nonzero() {
  local pattern=$1
  shift
  grep -hoE "\"($pattern)\": [0-9]+" "$@"
  grep -hoE "\"($pattern)\": [0-9]+" "$@" | grep -vq ': 0$'
}

# first_nonzero KEY FILE: the first KEY counter (the run total) is non-zero.
first_nonzero() {
  grep -oE "\"$1\": [0-9]+" "$2"
  grep -oE "\"$1\": [0-9]+" "$2" | head -1 | grep -vq ': 0$'
}

# expect_rc CODE CMD...: CMD exits with CODE.
expect_rc() {
  local want=$1 rc=0
  shift
  "$@" || rc=$?
  [ "$rc" -eq "$want" ] || { echo "exit $rc, want $want: $*"; return 1; }
}

# serve NAME ARGS...: a runner_serve daemon on a kernel-assigned port,
# written to NAME.txt (--port-file sidesteps port races).
serve() {
  local name=$1
  shift
  "$SERVE" --port 0 --port-file "$name.txt" --workers 2 --quiet "$@" &
  echo $! > "$name.pid"
  for _ in $(seq 1 200); do [ -s "$name.txt" ] && return; sleep 0.05; done
  echo "daemon failed to start: $name"
  return 1
}

# respawn NAME ARGS...: restarts daemon NAME on the port it had before,
# retrying while the old socket is still held.
respawn() {
  local name=$1 port
  shift
  port="$(cut -d: -f2 "$name.txt")"
  for _ in $(seq 1 100); do
    "$SERVE" --port "$port" --workers 2 --quiet "$@" &
    echo $! > "$name.pid"
    sleep 0.2
    kill -0 "$(cat "$name.pid")" 2>/dev/null && return
  done
  echo "daemon restart failed: $name"
  return 1
}

# fleet: the comma-separated endpoints of daemons ep1 and ep2.
fleet() { echo "$(cat ep1.txt),$(cat ep2.txt)"; }
