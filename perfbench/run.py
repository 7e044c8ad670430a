#!/usr/bin/env python3
"""Builds the benchmark driver from this source tree and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload nscaching --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload nscaching --probe

The driver and the nscaching library are compiled in Release mode into
.bench_build/perfbench (incremental after the first run). Build output goes
to stderr; the driver's report is the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics. --probe instead
prints the closed-loop capacity sweep the workloads' rates are based on.
See README.md here for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

RUN_LIMIT_S = 170  # Hard cap on the measured run itself.
BUILD_LIMIT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the driver; returns its path."""
    source = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"{root} is not an nscaching source tree (no CMakeLists.txt/src)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    driver = build(root, build_dir)
    if args.probe:
        sys.exit(subprocess.run(
            [driver, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--probe", "1"],
            cwd=root, timeout=RUN_LIMIT_S).returncode)

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_LIMIT_S, cwd=root)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"driver exited with code {done.returncode}")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no JSON report")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver report has unexpected keys")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
