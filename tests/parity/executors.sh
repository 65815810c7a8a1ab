# Executors: in-process threads and sandboxed workers run the same vote
# loop at the same lane count, so fresh searches with retries write
# byte-identical deterministic journals and configs.
. "$(dirname "$0")/lib.sh"

det threads ep S --retries 2 --threads 2
det iso ep S --retries 2 --isolate --workers 2
same threads iso
