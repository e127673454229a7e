#!/usr/bin/env python3
"""Smoke test of the fleet benchmark itself, at tiny input sizes.

    python3 fleetbench/smoke_test.py

Runs every workload of BENCHMARK.json through fleetbench/run.py with
--tiny --seconds 1, untraced and traced, and checks that the last stdout
line is a result object with exactly the expected keys, that every
end-to-end (untraced) or per-layer (traced) metric named in BENCHMARK.json
appears with its unit and a finite value, that the run was correct with
no failures, and that the descriptor line names the host and build.
Exits 0 when every check holds, 1 otherwise.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DESCRIPTOR_KEYS = ("nproc", "simd", "dp_batch_lanes", "build", "thp", "stripe_threads",
                   "batch_threads", "workload", "why", "seed")


def check_run(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"exit {proc.returncode}, {len(lines)} stdout lines; stderr tail: "
                f"{proc.stderr[-400:]}"]
    result = json.loads(lines[-1])
    descriptor = json.loads(lines[-2]).get("descriptor", {})
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing metric {m['name']}")
        elif got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{m['name']}: value {got.get('value')}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append(f"unlisted metrics {sorted(extra)}")
    for key in DESCRIPTOR_KEYS:
        if key not in descriptor:
            errors.append(f"descriptor lacks {key}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_run(workload, trace, spec)
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
