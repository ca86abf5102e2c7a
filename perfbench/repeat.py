#!/usr/bin/env python3
"""Run one perfbench workload several times and summarise each metric.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload varmail --runs 10
    python3 perfbench/repeat.py --workload fileserver --runs 10 --vary-seeds
    python3 perfbench/repeat.py --workload varmail --runs 5 --trace 1

Every run uses the same seed unless --vary-seeds is given (then run i uses
seed base+i).  For each metric the script prints the median, the first and
third quartiles, the quartile spread as a share of the median, and the
max/min ratio, the figures used to set and re-check the bounds in
BENCHMARK.json.  It exits non-zero if any run fails, reports
`correct: false` or a failed operation, or if the share of failed
operations differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml"), "--"]


def bounds():
    """End-to-end bounds from BENCHMARK.json, if it is there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vary-seeds", action="store_true")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json, else 10)")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    seconds = args.seconds
    if seconds is None:
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                seconds = json.load(f)["run_seconds"]
        except (OSError, ValueError, KeyError):
            seconds = 10

    results = []
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seeds else args.seed
        cmd = BENCH + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i} (seed {seed}) failed with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        print(f"run {i} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)

    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        print(f"failed-op share differs between runs: {sorted(shares)}")
        ok = False

    limit = bounds()
    print(f"{args.workload}: {args.runs} runs, seconds={seconds}, trace={args.trace}, "
          f"{'seeds varied' if args.vary_seeds else f'seed {args.seed}'}")
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'max/min':>8} {'bound':>6}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        lo = min(values)
        ratio = max(values) / lo if lo else float("inf")
        bound = limit.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <- spread above a third of the bound"
        print(f"{name:<40} {med:>12.3f} {q1:>12.3f} {q3:>12.3f} {spread:>8.3f} "
              f"{ratio:>8.3f} {bound if bound is not None else '':>6}{flag}  {first['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
