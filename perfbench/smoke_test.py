#!/usr/bin/env python3
"""Smoke test of the repository benchmark: one short op per workload.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, runs run.py with --seconds 0 (the
reference round, the warm-up ops, then a single timed op, or one untraced and
one traced op with --trace 1) and asserts that the last stdout line is the
result object, that every output check passed, and that every end-to-end
metric (--trace 0) and per-layer metric (--trace 1) named in BENCHMARK.json
is reported with its unit. Exits non-zero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    assert proc.returncode == 0, (
        f"{workload} trace={trace}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    assert lines, f"{workload} trace={trace}: no output"
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True, f"{workload} trace={trace}: output check failed"
    assert result["failed"] == 0, f"{workload} trace={trace}: {result['failed']} failed ops"
    assert result["attempted"] >= 1 + trace
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in expected), (
        f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']} != {m['unit']}"
        assert math.isfinite(got["value"]), f"{m['name']}: {got['value']}"
        if trace == 0:
            assert got["value"] > 0, f"{workload}: end-to-end {m['name']} reads 0"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            check_run(workload["name"], trace, expected)
            print(f"ok {workload['name']} trace={trace}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
