#!/usr/bin/env python3
"""Build and run the SINTRA service benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune into .bench_build (the
shared dune cache is disabled, so nothing is written outside the
checkout), then runs it with the same arguments.  With --trace 1 the
recorded spans are written to .bench_build/perfbench/spans-NAME-N.tsv.
The last line of standard output is the benchmark's JSON result; the
exit code is non-zero on a build failure or on any correctness
violation.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--display", "quiet", "./perfbench/main.exe",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        return 2
    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        spans_dir = os.path.join(ROOT, BUILD_DIR, "perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"spans-{args.workload}-{args.seed}.tsv")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
