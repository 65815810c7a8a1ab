# Hard faults: a seeded campaign of process-destroying faults over
# sandboxed workers lands byte for byte on the fault-free config, and the
# crash census proves the campaign drew blood on at least one seed.
. "$(dirname "$0")/lib.sh"

"$NAS" ep S --out clean.cfg --quiet
for seed in 1 2 7; do
  "$NAS" ep S --isolate --workers 2 --fault-seed "$seed" --max-crashes 6 \
    --metrics-json "crash-$seed-metrics.json" --out "faulted-$seed.cfg" \
    --quiet
  diff clean.cfg "faulted-$seed.cfg"
done
nonzero 'worker_crashes|protocol_errors' crash-*-metrics.json
