# Executors: results commit in the order a 1-lane search pops them, so
# fresh searches with retries write byte-identical deterministic journals
# and configs at any lane count, in-process or in sandboxed workers.
. "$(dirname "$0")/lib.sh"

det threads1 ep S --retries 2 --threads 1
det threads4 ep S --retries 2 --threads 4
det iso3 ep S --retries 2 --isolate --workers 3
same threads1 threads4
same threads1 iso3
