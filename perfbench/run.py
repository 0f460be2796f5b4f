#!/usr/bin/env python3
"""Run one workload of the placer benchmark from the repository root.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0

Builds the benchmark and the dpp_serve daemon with dune, then runs
perfbench/bench.exe.  The last line of stdout is the JSON result; build
output and the human-readable report go to stderr.  Generated inputs
live in perfbench/_work/<pid> and are removed on exit; traced runs leave
their span files in perfbench/_out.  See perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_suite", "xl_extract", "serve_eco")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["perfbench/bench.exe", "bin/dpp_serve_cli.exe"]
    build = subprocess.run(
        ["dune", "build", "--root", ".", *targets],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join("perfbench", "_work", str(os.getpid()))
    out = os.path.join("perfbench", "_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    cmd = [
        os.path.join("_build", "default", "perfbench", "bench.exe"), "run",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", work, "--out", out,
        "--serve-exe", os.path.join("_build", "default", "bin", "dpp_serve_cli.exe"),
    ]
    try:
        return subprocess.run(cmd, cwd=root).returncode
    finally:
        shutil.rmtree(os.path.join(root, work), ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(os.path.join(root, work)))
        except OSError:
            pass  # another run's inputs are still there


if __name__ == "__main__":
    sys.exit(main())
