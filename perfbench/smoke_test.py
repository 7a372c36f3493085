#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny flow scale, untraced and
traced, and checks that the result line has exactly the contract's keys,
that the correctness gate passed, that the host block is printed and that
every named metric is emitted with its catalogue unit. Then checks that a
directory holding only BENCHMARK.json and perfbench/ (no simulator
sources) makes run.py fail without printing a result. Exit status 0 means
all checks passed.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_FLOWS = 20000
HOST_KEYS = {"git_rev", "compiler", "flags", "build_type", "nproc",
             "cpu_model"}


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--set", f"workload.flows={SMOKE_FLOWS}"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(bench, workload, trace, r):
    problems = []
    if r.returncode != 0:
        problems.append(f"exit {r.returncode}: {r.stderr.strip()[-500:]}")
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return problems + ["no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correctness gate failed")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1 and result.get("failed") == 0):
        problems.append(f"attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    host = [ln for ln in r.stdout.splitlines() if ln.startswith("host: ")]
    if not host or not HOST_KEYS <= set(json.loads(host[-1][6:])):
        problems.append("no host block with " + ", ".join(sorted(HOST_KEYS)))
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append("metric names differ from the catalogue: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{m['name']}: value {v!r}")
    return [f"{workload} --trace {trace}: {p}" for p in problems]


def check_no_program():
    """run.py must refuse a tree without the simulator's sources."""
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        r = run(bare, "paper_steady", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if r.returncode == 0:
        problems.append("bare tree: run.py exited 0")
    if r.stdout.strip():
        problems.append(f"bare tree: printed {r.stdout.strip()[:200]!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            found = check_result(bench, w["name"], trace,
                                 run(ROOT, w["name"], trace))
            print(f"{w['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAIL'}")
            problems += found
    found = check_no_program()
    print(f"bare tree refused: {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
