#!/usr/bin/env python3
"""Steadiness check: runs one workload over several seeds and prints, per
metric, the median and the interquartile range as a share of the median.

Usage (from the repository root):
    python3 perfbench/spread.py <workload> [--seeds N] [--first S] [--trace 0|1]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    values = {}
    for seed in range(args.first, args.first + args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        share = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:<28} median {med:>14.6g}  iqr/median {share:7.4f}  values {xs}")


if __name__ == "__main__":
    main()
