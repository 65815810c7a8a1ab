# Executors: results commit in the order a 1-lane search pops them, so
# fresh searches with retries write byte-identical deterministic journals
# and configs at any lane count, in-process or in sandboxed workers. They
# also derive the same units from verdicts the search settled itself (ep S
# has two: a failing unit's child with its parent's candidate set).
. "$(dirname "$0")/lib.sh"

det threads1 ep S --retries 2 --threads 1 --metrics-json threads1.json
det threads4 ep S --retries 2 --threads 4 --metrics-json threads4.json
det iso3 ep S --retries 2 --isolate --workers 3 --metrics-json iso3.json
same threads1 threads4
same threads1 iso3
derived() { grep -oE '"trials_derived": [0-9]+' "$1.json"; }
derived threads1
derived threads1 | grep -vq ': 0$'
[ "$(derived threads1)" = "$(derived threads4)" ]
[ "$(derived threads1)" = "$(derived iso3)" ]
