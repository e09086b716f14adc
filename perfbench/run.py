#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload hunt_paper --seed 1 --seconds 10 --trace 0

Every run configures and builds perfbench/ (the library sources under src/
plus the driver) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; only the first run compiles everything. The
benchmark's own arithmetic tests run before the driver. The last line of
stdout is the driver's JSON result. Build output and diagnostics go to
stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hunt_paper", "query_mix", "live_ingest")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(out):
    generator = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    subprocess.run([os.path.join(out, "perfbench_metrics_test")], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    command = [os.path.join(out, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            out, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: driver exited with {run.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
