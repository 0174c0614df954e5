#!/usr/bin/env python3
"""Build and run the repo benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark executable is built from
source with dune into .bench_build/ (the shared dune cache is disabled,
so nothing is written outside the checkout), then run in a fresh
process so heap and GC state never carry over between workloads. Its
standard output is passed through; the last line is the JSON result.
Build failures and crashes exit non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["serve-wide", "serve-tenants", "batch-solve", "whatif-exact"]
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(build_dir, "cache")
    env["XDG_STATE_HOME"] = os.path.join(build_dir, "state")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "--build-dir", build_dir,
             "--profile", "release", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    proc = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace],
        cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
