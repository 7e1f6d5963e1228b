#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced with ``--size tiny`` and checks that
the result line has the contract's keys, that each run emits exactly the
metrics BENCHMARK.json lists (names, units), that every name matches
``[A-Za-z0-9_.-]+``, that the traced runs together record spans in all six
modules, and that a directory holding only BENCHMARK.json and the benchmark
fails without printing a result. Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

from layers import MODULES
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"FAIL {message}", file=sys.stderr)
    sys.exit(1)


def run(cwd, workload, trace):
    argv = [sys.executable, str(Path(cwd) / BENCH_DIR.name / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    every = names + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in every:
        if not NAME.fullmatch(name):
            fail(f"bad name {name!r}")
    if len(set(every)) != len(every):
        fail("a name is used twice")
    if "setup_s" not in {m["name"] for m in spec["end_to_end"]}:
        fail("setup_s missing")


def check_result(completed, expected, label):
    if completed.returncode != 0:
        fail(f"{label}: exit {completed.returncode}\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}\n{completed.stderr}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{label}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
             f"units {[(n, got[n], expected[n]) for n in got if n in expected and got[n] != expected[n]]}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not NAME.fullmatch(name) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{label}: bad metric {name!r}: {value!r}")
    return lines


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    covered = dict.fromkeys(MODULES, 0)
    for workload in sorted(WORKLOADS):
        check_result(run(ROOT, workload, 0), end_to_end, f"{workload} trace 0")
        lines = check_result(run(ROOT, workload, 1), per_layer, f"{workload} trace 1")
        spans = next(line for line in lines if line.startswith("spans "))
        for item in spans.split()[1:]:
            module, count = item.split("=")
            covered[module] += int(count)
        if "absent none" not in lines:
            fail(f"{workload}: functions reported absent")
        print(f"ok {workload}: {spans}")
    if not all(covered.values()):
        fail(f"traced runs miss modules: {covered}")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        completed = run(bare, "exp1-screen", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    if completed.returncode == 0 or '"metrics"' in completed.stdout:
        fail("a directory without the program must fail without a result")
    print("ok bare directory fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
