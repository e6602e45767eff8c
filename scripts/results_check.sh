#!/bin/sh
# Regenerates every committed results/*.md and results/*.csv file with
# the release binary that writes it, each binary into an empty results
# dir, and compares them with results/ byte for byte. Fails on any
# difference, on a committed file that no binary writes, and on a
# written file that is not committed. Build first:
#   cargo build --release --workspace --locked
set -eu
cd "$(dirname "$0")/.."
# The committed files are written at each binary's own budget.
unset SECSIM_INSTS

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

# regen NAME BINARY [ARGS...]: run one binary into $OUT/NAME.
regen() {
    name=$1
    shift
    mkdir "$OUT/$name"
    if ! SECSIM_RESULTS="$OUT/$name" "./target/release/$@" > "$OUT/$name.log" 2>&1; then
        echo "FAIL: $* exited non-zero:"
        cat "$OUT/$name.log"
        exit 1
    fi
}
regen all all --no-cache
regen stalls stalls --no-cache
regen faults faults
regen check secsim-check --no-cache
regen workloads workloads --no-cache

status=0
: > "$OUT/written"
for name in all stalls faults check workloads; do
    for f in "$OUT/$name"/*.md "$OUT/$name"/*.csv; do
        [ -e "$f" ] || continue
        file=$(basename "$f")
        echo "$file" >> "$OUT/written"
        if [ ! -e "results/$file" ]; then
            echo "FAIL: $name writes $file, which results/ does not hold"
            status=1
        elif ! cmp -s "$f" "results/$file"; then
            echo "FAIL: results/$file differs from what $name writes:"
            diff "results/$file" "$f" | head -20 || true
            status=1
        fi
    done
done
for f in results/*.md results/*.csv; do
    file=$(basename "$f")
    if ! grep -qxF "$file" "$OUT/written"; then
        echo "FAIL: results/$file is committed, but no binary writes it"
        status=1
    fi
done
twice=$(sort "$OUT/written" | uniq -d)
if [ -n "$twice" ]; then
    echo "FAIL: written by more than one binary: $twice"
    status=1
fi
[ "$status" -eq 0 ] && echo "results/: all $(wc -l < "$OUT/written") files regenerate byte-identical"
exit "$status"
