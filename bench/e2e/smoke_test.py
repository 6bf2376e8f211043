#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark harness (ctest e2e_smoke).

usage: smoke_test.py MEMFP_E2E_BINARY

Runs every workload BENCHMARK.json lists at --scale 0.02 three ways: the
correctness checks (--verify), a timed run and a traced run (--trace). Each
run must pass its checks, and its result line must carry exactly the metrics
BENCHMARK.json lists for that mode, with the listed units and names made of
[A-Za-z0-9_.-]. Scratch files go to e2e_smoke/ under the working directory.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCALE = "0.02"


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(label, stdout, listed, errors):
    lines = stdout.strip().splitlines()
    if not lines:
        errors.append(f"{label}: no output")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys are {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{label}: checks failed ({result['failed']} ops)")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted is {result['attempted']!r}")
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in listed}
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"{label}: missing {missing}, unlisted {extra}")
    for name, metric in metrics.items():
        if not NAME.fullmatch(name):
            errors.append(f"{label}: bad metric name {name!r}")
        if name in expected and metric.get("unit") != expected[name]:
            errors.append(f"{label}: {name} unit {metric.get('unit')!r}, "
                          f"BENCHMARK.json says {expected[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    with open(BENCHMARK) as f:
        bench = json.load(f)
    work = os.path.join(os.getcwd(), "e2e_smoke")
    shutil.rmtree(work, ignore_errors=True)
    errors = []
    for entry in bench["workloads"] + bench["end_to_end"] + bench["per_layer"]:
        if not NAME.fullmatch(entry["name"]):
            errors.append(f"BENCHMARK.json: bad name {entry['name']!r}")
    for workload in (w["name"] for w in bench["workloads"]):
        base = [binary, "--workload", workload, "--scale", SCALE,
                "--work-dir", work]
        code, _, stderr = run(base + ["--verify"])
        if code != 0:
            errors.append(f"{workload} --verify exited {code}: {stderr[-500:]}")
        for mode, listed, extra in (
                ("timed", bench["end_to_end"], ["--seconds", "0"]),
                ("trace", bench["per_layer"], ["--seconds", "0", "--trace"])):
            code, stdout, stderr = run(base + extra)
            label = f"{workload} {mode}"
            if code != 0:
                errors.append(f"{label} exited {code}: {stderr[-500:]}")
            check_result(label, stdout, listed, errors)
        print(f"{workload}: ok" if not any(e.startswith(workload)
                                           for e in errors)
              else f"{workload}: FAIL")
    shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print("FAIL:", error)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
