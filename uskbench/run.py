#!/usr/bin/env python3
"""Build and run the usk benchmark from the root of a source checkout.

    python3 uskbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: web-plain, web-cosy, postmark-memfs, postmark-store (see
uskbench/README.md). The first run configures and compiles the repository's
src/ libraries and usk_bench under $CARGO_TARGET_DIR/uskbench (default
.bench_build/uskbench); later runs rebuild only what changed. Build output
goes to stderr. The last stdout line is usk_bench's JSON result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

Exit status is non-zero, with no result, if the sources are missing, the
build fails, usk_bench refuses to run (an observer or fault injector is
armed by the environment) or it does not finish in time.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("web-plain", "web-cosy", "postmark-memfs", "postmark-store")
BUILD_DEADLINE_S = 880  # a first run includes the full build
RUN_DEADLINE_S = 175


def fail(msg, code=2):
    print("uskbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure (once) and build usk_bench; returns True on a first build."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
        if not configured:
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "uskbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target", "usk_bench"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        return not configured


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "uskbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a usk checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "uskbench")
    try:
        first = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}", 1)

    cmd = [os.path.join(build_dir, "usk_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "out")]
    budget = (BUILD_DEADLINE_S if first else RUN_DEADLINE_S) - (time.monotonic() - start)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("usk_bench did not finish in time", 1)
    if proc.returncode != 0:
        fail(f"usk_bench exited with status {proc.returncode}", 1)

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("usk_bench printed no result", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("usk_bench result has unexpected keys", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
