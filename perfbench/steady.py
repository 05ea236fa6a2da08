#!/usr/bin/env python3
"""Steadiness check: run one workload N times back to back, each run on
its own seed, and print per end-to-end metric the median, the quartiles,
the spread (interquartile range over median) and the worst deviation
from the median, each against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload serve-miss --runs 10

Run i uses seed i. A spread above a third of its bound is flagged: two
sets of runs of the same code may then disagree by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    start = time.time()
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        sys.exit("run with seed %d failed (exit %d)" % (seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1]), time.time() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for seed in range(1, args.runs + 1):
        result, wall = run_once(args.workload, seed, bench["run_seconds"])
        if not result["correct"]:
            print("seed %d: %d of %d ops failed" % (seed, result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d (%.0f s): %s" % (seed, wall, " ".join("%s=%.6g" % (n, v[-1]) for n, v in values.items())),
              flush=True)
    print("%-20s %12s %12s %12s %8s %8s %8s  %s" %
          ("metric", "median", "q1", "q3", "spread", "worst", "bound", "verdict"))
    unsteady = 0
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], None, v[0])
        spread = (q3 - q1) / med if med else float("inf")
        worst = max(abs(x - med) for x in v) / med if med else float("inf")
        flag = spread > m["bound"] / 3
        unsteady += flag
        print("%-20s %12.6g %12.6g %12.6g %8.4f %8.4f %8.3f  %s" %
              (m["name"], med, q1, q3, spread, worst, m["bound"],
               "SPREAD > bound/3" if flag else "ok"))
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
