#!/bin/sh
# Benchmark smoke: one short, checked run of every perfbench workload.
# Fails unless each run's last line (the result JSON) reports
# "correct": true and "failed": 0. Timings are not gated here; make
# perf claims with perfbench/prove.py (see perfbench/README.md).
set -eu
cd "$(dirname "$0")/.."

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
for w in sim-memory sim-resident serve-open attack-rows; do
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 > "$OUT"
    tail -n 1 "$OUT" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("%s: correct=%s attempted=%s failed=%s" % (sys.argv[1], r["correct"], r["attempted"], r["failed"]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$w" || { echo "FAIL: perfbench $w run incorrect or failed ops"; exit 1; }
done
