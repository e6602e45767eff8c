#!/usr/bin/env python3
"""Repeat benchmark runs and report how steady each metric is.

    python3 perfbench/prove.py --runs 10 --first-seed 1
    python3 perfbench/prove.py --runs 5 --workloads serve-open --seconds 10
    python3 perfbench/prove.py --runs 3 --trace 1

Runs `perfbench/run.py` once per seed and workload (seeds first-seed,
first-seed+1, ...), then prints, per workload and metric, the median,
the first and third quartiles (Python's statistics.quantiles, n=4) and
the quartile spread as a share of the median, beside the metric's bound
from BENCHMARK.json. With --trace 1 it reports the per-layer metrics and
flags any exact work count that differs between runs. --json FILE also
writes every run's result. Exits non-zero if a run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-layer metrics that are exact counts and must repeat exactly.
EXACT_PREFIXES = ("sim.", "attack.trials.", "server.", "client.")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--json", help="also write every run's result to this file")
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    everything = {}
    bad = False
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            r = run_once(workload, seed, args.seconds, args.trace)
            results.append(r)
            if not r["correct"] or r["failed"]:
                bad = True
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        everything[workload] = results
        print(f"\n{workload}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
        print(f"  {'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = " > bound"
            elif bound is not None and spread > bound / 3:
                flag = " > bound/3"
            if args.trace and name.startswith(EXACT_PREFIXES) and len(set(values)) > 1:
                flag = " NOT EXACT"
                bad = True
            b = f"{bound:6.2f}" if bound is not None else "      "
            print(f"  {name:40} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {b} {unit}{flag}")
        print(flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
