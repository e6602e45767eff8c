#!/bin/sh
# SIGINT smoke: Ctrl-C drains secsim-serve cleanly. Starts the release
# binary on an ephemeral port with a fresh store, waits (bounded) for its
# `listening on` line, sends SIGINT, and fails unless the process exits 0
# within 5 s, logs `drained cleanly` and leaves server_status.json next
# to the store. Run after `cargo build --release --workspace`.
set -eu
cd "$(dirname "$0")/.."

D="$(mktemp -d)"
PID=
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$D"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $1"
    sed 's/^/  serve: /' "$D/serve.log"
    exit 1
}

./target/release/secsim-serve --addr 127.0.0.1:0 --store-dir "$D/store" 2> "$D/serve.log" &
PID=$!

i=0
until grep -q "listening on" "$D/serve.log"; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "no 'listening on' line within 10 s"
    kill -0 "$PID" 2>/dev/null || fail "secsim-serve exited before listening"
    sleep 0.1
done

kill -INT "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 50 ] || fail "still running 5 s after SIGINT"
    sleep 0.1
done
if wait "$PID"; then rc=0; else rc=$?; fi
PID=
[ "$rc" -eq 0 ] || fail "exit code $rc after SIGINT"
grep -q "drained cleanly" "$D/serve.log" || fail "no 'drained cleanly' line"
[ -s "$D/server_status.json" ] || fail "no server_status.json next to the store"
echo "SIGINT: exit 0, drained cleanly, server_status.json written"
