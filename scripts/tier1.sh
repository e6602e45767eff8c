#!/bin/sh
# Tier-1 gate: offline build + test + a cached-vs-fresh sweep smoke run.
# Must pass on a machine with no network access and no registry mirror.
set -eu
cd "$(dirname "$0")/.."

# Wall time per stage and in total, in ms, by `date +%s%3N` arithmetic
# (the container has no /usr/bin/time). `stage` prints the running
# stage's time, if any, and opens the next; `stage_close` prints the
# last one's.
T0=$(date +%s%3N)
T_STAGE=$T0
STAGE=""
stage_close() {
    now=$(date +%s%3N)
    if [ -n "$STAGE" ]; then echo "-- ${STAGE%%:*}: $((now - T_STAGE)) ms"; fi
    T_STAGE=$now
}
stage() {
    stage_close
    STAGE=$1
    echo "== $1 =="
}

stage "build (release, offline, Cargo.lock as committed)"
# --locked fails the gate when Cargo.lock no longer matches the manifests.
cargo build --release --workspace --locked

stage "test (workspace, offline)"
# A test file behind a cargo feature compiles to nothing unless a build
# turns that feature on, and none here does: refuse every such file.
gated=$(grep -rlE '^#!\[cfg\(feature' crates/*/tests tests || true)
if [ -n "$gated" ]; then
    echo "FAIL: test files behind a cargo feature no build enables:"
    echo "$gated"
    exit 1
fi
cargo test --workspace -q

stage "lint (clippy, warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

stage "docs (rustdoc, warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

stage "bench smoke: one short checked perfbench run per workload"
# Builds perfbench into .bench_build/ and runs each workload for 2 s in
# a scratch dir; fails on any incorrect op. Timings are not gated.
scripts/bench_smoke.sh

stage "sweep smoke: fresh run, then cache hit"
SMOKE_RESULTS="$(mktemp -d)"
trap 'rm -rf "$SMOKE_RESULTS"' EXIT
# Every stage below gets its own empty results dir; only the fig11 pair
# runs on a shortened instruction budget.
for stage in fig11 repro asm check oblivious faults serve serve-sigint chaos; do
    mkdir "$SMOKE_RESULTS/$stage"
done
FIG11="$SMOKE_RESULTS/fig11"
SECSIM_RESULTS="$FIG11" SECSIM_INSTS=20000 ./target/release/fig11 > "$SMOKE_RESULTS/fresh.txt"
[ "$(ls "$FIG11/cache" | wc -l)" -gt 0 ] || {
    echo "FAIL: fresh sweep wrote no cache entries"; exit 1; }
SECSIM_RESULTS="$FIG11" SECSIM_INSTS=20000 ./target/release/fig11 > "$SMOKE_RESULTS/cached.txt"
cmp "$SMOKE_RESULTS/fresh.txt" "$SMOKE_RESULTS/cached.txt" || {
    echo "FAIL: cached sweep output differs from fresh run"; exit 1; }
echo "cached output byte-identical to fresh run"

stage "reproduction gate: every paper claim, from an empty results dir"
# Fixed instruction budgets of its own; exits non-zero on any FAIL.
SECSIM_RESULTS="$SMOKE_RESULTS/repro" ./target/release/verify_repro

stage "asm smoke: assemble examples/*.sasm, diff vs golden .sprog, run baseline+commit"
SECSIM_RESULTS="$SMOKE_RESULTS/asm" ./target/release/asm --smoke

stage "check-smoke: differential co-sim batch + checkpoint determinism, all policies, fixed seed"
SECSIM_RESULTS="$SMOKE_RESULTS/check" ./target/release/secsim-check --smoke --seed 2006

stage "oblivious-smoke: two-run secret-independence oracle, all policies"
# Obfuscation must show zero address divergences; every other policy
# must demonstrably leak (the repros land under $SECSIM_RESULTS).
SECSIM_RESULTS="$SMOKE_RESULTS/oblivious" ./target/release/secsim-check oblivious --smoke --seed 2006

stage "fault-smoke: injected-tamper campaign, all policies"
SECSIM_RESULTS="$SMOKE_RESULTS/faults" ./target/release/faults --smoke

stage "serve-smoke: job server on an ephemeral port, 2 clients x 2-point grid"
# Asserts dedup fan-in (each unique point simulated exactly once for
# both clients), byte-identical reports, and a clean drain on shutdown.
SECSIM_RESULTS="$SMOKE_RESULTS/serve" ./target/release/secsim-serve --smoke

stage "serve-sigint: Ctrl-C drains secsim-serve, exit 0 within 5 s"
# The binary owns SIGINT and turns it into a wire `shutdown`.
SECSIM_RESULTS="$SMOKE_RESULTS/serve-sigint" scripts/serve_sigint_smoke.sh

stage "chaos-smoke: seeded fault-injecting proxy, 2 clients, forced reconnects"
# Fixed seed, 90% fault rate: at least one reconnect is guaranteed (and
# asserted), results must be byte-identical to a fault-free run, and the
# server must have simulated each unique point exactly once.
SECSIM_RESULTS="$SMOKE_RESULTS/chaos" ./target/release/chaos --smoke

stage_close
echo "== tier-1 OK: $(($(date +%s%3N) - T0)) ms in total =="
