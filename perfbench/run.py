#!/usr/bin/env python3
"""Build and run one workload of the secsim benchmark.

    python3 perfbench/run.py --workload sim-memory --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the harness package in this
directory (release, offline) into $CARGO_TARGET_DIR, or `.bench_build`
when unset, then runs it in a fresh scratch directory under
`.bench_work/` that is removed afterwards. Build output goes to stderr;
the harness prints its metrics, and as the last stdout line one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-memory", "sim-resident", "serve-open", "attack-rows"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {done.returncode}")

    exe = os.path.join(target, "release", "secsim-perfbench")
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work]
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: harness failed: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
