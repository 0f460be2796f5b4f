#!/usr/bin/env python3
"""Self-test for the placer benchmark, run from the repository root:

    python3 perfbench/tests/selftest.py [workload ...]

Runs every workload (or the named ones) in short mode (--seconds 0: one
pass, one op, or one op per replay seed), twice untraced and twice
traced.  Asserts that the last stdout line is the result object, that
every metric BENCHMARK.json names prints with its declared unit, and that
the deterministic metrics (hpwl, extract_f1, every count) and the
failed/attempted counts match exactly between the two invocations.
Exits 1 on the first mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DETERMINISTIC_E2E = ("hpwl", "extract_f1")


def run(workload, trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} trace {trace}: exit {p.returncode}\n{p.stderr[-3000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    if not result["correct"]:
        sys.exit(f"FAIL {workload} trace {trace}: correct is false\n{p.stderr[-3000:]}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit(f"FAIL {workload} trace {trace}: metrics/units differ: "
                 f"{sorted(set(got.items()) ^ set(want.items()))}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            sys.exit(f"FAIL {workload}: {k} is not a number")
    return result


def deterministic(result, trace):
    keys = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] if trace \
        else list(DETERMINISTIC_E2E)
    picked = {k: result["metrics"][k]["value"] for k in keys}
    picked["attempted"], picked["failed"] = result["attempted"], result["failed"]
    return picked


def main():
    names = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace in (0, 1):
            a, b = (deterministic(run(workload, trace), trace) for _ in range(2))
            if a != b:
                diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
                sys.exit(f"FAIL {workload} trace {trace}: not reproducible: {diff}")
            print(f"ok   {workload} trace {trace}: {len(a)} deterministic values match", flush=True)


if __name__ == "__main__":
    main()
