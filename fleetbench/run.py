#!/usr/bin/env python3
"""Builds and runs the fleet benchmark (fleetbench/harness, see README.md).

    python3 fleetbench/run.py --workload fleet_hits|miss_storm|vehicle_replan \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The first run configures and builds the evvo
libraries and the harness, optimized, under $CARGO_TARGET_DIR (default
.bench_build) and holds a file lock while doing so; later runs only check
that the build is current. The harness prints the host/build descriptor and
then, as the last line of stdout, the JSON result. With --trace 1 the spans
are written to <build dir>/fleetbench/traces/<workload>-seed<N>.jsonl.

Exit codes: the harness's (0 ok, 1 wrong output, 2 usage), 1 when the
source tree is missing or the build fails, 124 when the harness overruns.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_hits", "miss_storm", "vehicle_replan")
HARNESS_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "fleetbench")


def build(bdir):
    """Configures (once) and builds fleet_bench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no evvo source tree next to fleetbench/", file=sys.stderr)
        return None
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "fleet_bench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
                return None
    return os.path.join(bdir, "fleet_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: fleet_bench overran {HARNESS_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
