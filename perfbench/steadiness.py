#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

Run from the root of a checkout:

    python3 perfbench/steadiness.py [--runs 5] [--seeds 1 101]

Runs two sets of untraced runs of every workload in BENCHMARK.json on the
current code: set A with seeds A, A+1, ... and set B with seeds B, B+1, ...
For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over median) and the shift of B's
median against A's (positive when B is worse), and whether the sets agree:
both spreads within the metric's bound, and the shift within the bound in
either direction. setup_s is judged by its shift alone: the acceptance rule
for BENCHMARK.json exempts its spread, because a run measures set-up only a
few times. Exits 1 if any pair disagrees or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} failed, "
                           f"correct={result['correct']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload (default 5)")
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 101),
                        metavar=("A", "B"), help="first seed of each set")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values = {}  # (set, workload) -> list of metric dicts
    for i in range(args.runs):
        for name, first in zip("AB", args.seeds):
            for workload in workloads:
                seed = first + i
                m = run_once(workload, seed, bench["run_seconds"])
                values.setdefault((name, workload), []).append(m)
                print(f"run {name} {workload} seed {seed}: " +
                      ", ".join(f"{k}={v:.4g}" for k, v in m.items()),
                      file=sys.stderr)
    all_agree = True
    print(f"{'workload':<12} {'metric':<20} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'spreadA':>8} {'spreadB':>8} "
          f"{'shift':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = [m[name] for m in values[("A", workload)]]
            b = [m[name] for m in values[("B", workload)]]
            qa, qb = spread(a), spread(b)
            sign = 1 if metric["better"] == "lower" else -1
            shift = sign * (qb[1] - qa[1]) / qa[1]
            steady = name == "setup_s" or (qa[3] <= bound and qb[3] <= bound)
            agree = steady and abs(shift) <= bound
            all_agree = all_agree and agree
            print(f"{workload:<12} {name:<20} "
                  f"{qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(64) +
                  f"{qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".rjust(30) +
                  f" {qa[3]:>8.3f} {qb[3]:>8.3f} {shift:>+7.3f} {bound:>6.2f}"
                  f"  {'agree' if agree else 'DISAGREE'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
