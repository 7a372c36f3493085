#!/usr/bin/env python3
"""Spread and A/B tools over perfbench/run.py.

Steadiness of the end-to-end metrics over seeds: IQR as a share of the
median, next to each metric's bound (WIDE when not below a third of it),
then every run's value:

    python3 perfbench/compare.py spread --workload paper_steady --seeds 1-10

Known-slowdown probe: interleaved legs of the plain benchmark and the
benchmark with spec overrides, on the same seeds. A metric is flagged
WORSE when the probe's median is worse than the base median by more than
its bound; `unresolved` or `better` when the shift exceeds the base's own
IQR but not the bound; `same` otherwise; `identical` when every run
matched:

    python3 perfbench/compare.py probe --workload synthetic_x10 \\
        --seeds 1-3 --set config.fib.layout=linear

Both subcommands take --seconds (default: BENCHMARK.json run_seconds) and
--trace 0|1; per-layer metrics (--trace 1) have no bound and are only
listed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace, overrides):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    for o in overrides:
        cmd += ["--set", o]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if r.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} {overrides}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def iqr_share(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def catalogue(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return b, b["per_layer" if trace else "end_to_end"]


def cmd_spread(args, metrics_def):
    runs = [run_once(args.workload, s, args.seconds, args.trace, args.set)
            for s in args.seeds]
    print(f"{args.workload}: {len(runs)} seeds")
    for m in metrics_def:
        vals = [r[m["name"]] for r in runs]
        bound = m.get("bound")
        spread = iqr_share(vals) if len(vals) >= 2 else 0.0
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else "WIDE"
        print(f"  {m['name']:30s} median {statistics.median(vals):14.6g} "
              f"{m['unit']:12s} spread {spread:7.2%}"
              + (f" bound {bound:.2f} {verdict}" if bound is not None
                 else ""))
        print("    " + " ".join(f"{v:.6g}" for v in vals))


def cmd_probe(args, metrics_def):
    base, probe = [], []
    for i, s in enumerate(args.seeds):
        # Alternate which leg runs first so drift hits both equally.
        legs = [(base, []), (probe, args.set)]
        for sink, overrides in (legs if i % 2 == 0 else legs[::-1]):
            sink.append(run_once(args.workload, s, args.seconds, args.trace,
                                 overrides))
    print(f"{args.workload}: probe {' '.join(args.set)} vs base, "
          f"{len(args.seeds)} seeds")
    for m in metrics_def:
        b = [r[m["name"]] for r in base]
        p = [r[m["name"]] for r in probe]
        mb, mp = statistics.median(b), statistics.median(p)
        change = (mp - mb) / mb if mb else 0.0
        worse = change if m["better"] == "lower" else -change
        bound = m.get("bound")
        noise = iqr_share(b) if len(b) >= 2 else 0.0
        if b == p:
            verdict = "identical"
        elif bound is None:
            verdict = ""
        elif worse > bound:
            verdict = "WORSE"
        elif abs(change) > noise:
            verdict = "unresolved" if worse > 0 else "better"
        else:
            verdict = "same"
        print(f"  {m['name']:30s} base {mb:14.6g} probe {mp:14.6g} "
              f"{m['unit']:12s} {change:+8.2%} {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("spread", "probe"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", action="append", default=[])
    args = ap.parse_args()
    b, metrics_def = catalogue(args.trace)
    if args.seconds is None:
        args.seconds = b["run_seconds"]
    if args.mode == "spread":
        cmd_spread(args, metrics_def)
    else:
        if not args.set:
            sys.exit("probe needs at least one --set override")
        cmd_probe(args, metrics_def)


if __name__ == "__main__":
    main()
