#!/usr/bin/env python3
"""End-to-end benchmark of the vScale simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, runs one workload and prints its result as one JSON
object on the last stdout line. With --trace 1 it also runs bench_core's
event-engine micro loops for sim.schedule_fire_ns and sim.cancel_ns.

Exits non-zero without printing a result when the build fails, and with the
result when any correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("npb_grid", "web_open_loop", "fuzz_pinned", "traced_testbed")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def run(cmd, timeout=None):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def build():
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "-j", str(min(os.cpu_count() or 1, 4))]):
        proc = run(cmd)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def engine_micro():
    """bench_core's schedule/fire and cancel loops, in host ns per operation."""
    path = os.path.join(OUT, "bench_core.json")
    proc = run([os.path.join(BUILD, "bench_core"), "--quick", "--out", path],
               RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("bench_core failed")
    with open(path) as f:
        m = json.load(f)["metrics"]
    return {"sim.schedule_fire_ns": m["event_schedule_fire_ns"],
            "sim.cancel_ns": m["event_cancel_ns"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    proc = run([os.path.join(BUILD, "vsbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--data", os.path.join(HERE, "data"),
                "--out", OUT], RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("vsbench printed no result (exit %d)" % proc.returncode)
    if args.trace:
        for name, value in engine_micro().items():
            result["metrics"][name] = {"value": value, "unit": "ns"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
