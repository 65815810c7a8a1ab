# Snippet ablation and inflation: bench_ablation_snippets must pass (every
# production verdict equals its reference's and never retires more), and
# the instructions each production row retires must equal the golden in
# snippet_retired.txt. Retired counts repeat exactly on every engine, so a
# changed count is a changed snippet shape; when that is intended,
# regenerate the golden with
#   bench_ablation_snippets | grep '^retired ' > tests/parity/snippet_retired.txt
# Extra argument: bench_ablation_snippets.
. "$(dirname "$0")/lib.sh"

"$1" > ablation.txt
grep '^retired ' ablation.txt > retired.txt
diff "$(dirname "$0")/snippet_retired.txt" retired.txt
