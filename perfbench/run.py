#!/usr/bin/env python3
"""Build and run the qr3d benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which builds the library
from the repository's own CMakeLists.txt) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only rebuild what changed.  The
driver binary's output is passed through, and its last line -- one JSON
object with "correct", "attempted", "failed" and "metrics" -- is printed
last.  Any failure (build, run, timeout, malformed result) exits non-zero
without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {cmd[:2]} exited with {r.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-file", os.path.join(build_dir, f"trace-{args.workload}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    if r.returncode != 0:
        fail(f"benchmark exited with {r.returncode}")
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark printed no result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
