#!/usr/bin/env python3
"""Spread report: run one workload repeatedly and print each metric's
median and quartiles.

Runs the command named in BENCHMARK.json from the repository root, once
per seed, and reads the JSON result on the last line of each run. For every
metric it prints the median, the first and third quartile (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median. End-to-end
metrics are set against their bound: a spread under a third of the bound
is steady.

    python3 servebench/spread.py --workload many-queries --runs 10
    python3 servebench/spread.py --workload cold-start --runs 10 --save a.json
    python3 servebench/spread.py --workload cold-start --runs 10 --first-seed 101 \\
        --against a.json

``--against`` compares this set's medians with a saved earlier set and
fails when a metric got worse by more than its bound: the check that two
sets of runs of the same code agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs were wrong")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save", help="write the values to this JSON file")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(bench, args.workload, seed, args.trace))
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
              flush=True)
    values = {name: [r[name] for r in runs] for name in runs[0]}

    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    failed = False
    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  verdict")
    for name, vals in values.items():
        median, q1, q3, spread = summary(vals)
        verdict = ""
        m = bounds.get(name)
        if m is not None:
            bound = m["bound"]
            if name == "setup_s":
                verdict = "set-up (spread not gated)"
            elif spread <= bound / 3:
                verdict = f"steady (bound {bound})"
            elif spread <= bound:
                verdict = f"within bound {bound}, not steady"
            else:
                verdict = f"TOO WIDE for bound {bound}"
                failed = True
            if earlier is not None and name in earlier:
                before = statistics.median(earlier[name])
                change = (median - before) / abs(before) if before else 0.0
                worse = change if m["better"] == "lower" else -change
                verdict += f"; vs earlier median {before:.6g}: {change:+.1%}"
                if worse > bound:
                    verdict += " WORSE THAN BOUND"
                    failed = True
        print(f"{name:40} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%}  {verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
