#!/usr/bin/env python3
"""Repo benchmark entry point: builds the simulator and runs one workload.

    python3 perfbench/run.py --workload paper_steady --seed 7 --seconds 15 --trace 0

Builds perfbench/ (the simulator library from src/ plus the perfbench
program) into .bench_build/perfbench, runs the workload's spec from
perfbench/workloads/ in its own single-threaded process, and prints:

  * on stderr, every metric with its unit and direction;
  * a `host:` line with build and machine provenance;
  * as the last line, one JSON object with `correct`, `attempted`,
    `failed` and `metrics` (each metric with value and unit). `--trace 0`
    reports the end-to-end metrics of BENCHMARK.json, `--trace 1` the
    per-layer ones.

`--set section.key=value` (repeatable) applies a spec override, e.g.
`--set config.fib.layout=linear` for the known-slowdown probe or
`--set workload.flows=20000` for a smoke run. Exit status is 0 only when
every correctness check passed.
"""

import argparse
import fcntl
import glob
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_DIR = os.path.join(HERE, "workloads")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_catalogue():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def source_files():
    """The files a result depends on: the simulator and the benchmark."""
    out = []
    for base in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            out += [os.path.join(dirpath, n) for n in sorted(filenames)
                    if n.endswith((".cpp", ".h", ".txt", ".scn", ".py"))]
    return out


def build_env():
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds once per checkout; later calls are no-op builds."""
    if not glob.glob(os.path.join(SRC, "**", "*.cpp"), recursive=True):
        fail(f"no simulator sources under {SRC}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = build_env()
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, env=env, text=True)
            if r.returncode != 0:
                sys.stderr.write(r.stdout)
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           env=env, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_block(build_info):
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return {
        "git_rev": git_rev(),
        "source_sha256": digest.hexdigest()[:16],
        "compiler": build_info.get("compiler", "unknown"),
        "flags": build_info.get("flags", "").strip(),
        "build_type": build_info.get("build_type", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--set", action="append", default=[], dest="overrides",
                    metavar="SECTION.KEY=VALUE")
    args = ap.parse_args()

    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    spec = os.path.join(WORKLOAD_DIR, args.workload + ".scn")
    binary = build()

    cmd = [binary, "--spec", spec, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for o in args.overrides:
        cmd += ["--set", o]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=build_env(),
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    try:
        out = json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail(f"perfbench exited {r.returncode} without a result")

    wanted = catalogue["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    problems = list(out["errors"])
    for m in wanted:
        value = out["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"perfbench: {args.workload}: {m['name']} = {value:.6g} "
              f"{m['unit']} ({m['better']} is better)", file=sys.stderr)
    correct = bool(out["ok"]) and r.returncode == 0 and not problems
    for p in problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)

    print("host: " + json.dumps(host_block(out.get("build", {}))))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"] or (0 if correct else 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
