# CLI: an unknown argument or workload class is a usage error (exit 2) in
# every CLI, so is a lane count past 256 (--threads, and --isolate without
# --workers, where --threads sizes the worker fleet), and a config that cannot be written is an internal failure
# (exit 3), never a silent success. Extra arguments: config_explorer,
# cancellation_report.
. "$(dirname "$0")/lib.sh"

expect_rc 2 "$NAS" --serve 1234
expect_rc 2 "$NAS" ep S --thread 2
expect_rc 2 "$SERVE" --serve
expect_rc 2 "$1" ep S --serch
expect_rc 2 "$2" cg S --min-bit 8
expect_rc 2 "$NAS" ep Q
expect_rc 2 "$NAS" ep S --threads 257
expect_rc 2 "$NAS" ep S --isolate --threads 257
expect_rc 2 "$NAS" ep S --isolate --workers 257
expect_rc 2 "$1" ep Q
expect_rc 2 "$2" mg 2
expect_rc 3 "$NAS" ep S --quiet --out /nonexistent_dir/x.cfg
