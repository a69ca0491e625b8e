#!/usr/bin/env python3
"""Runs the benchmark over a seed range and reports each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload W ...] [--trace 1] [--out FILE]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

The first form runs `run.py` once per (workload, seed) for the
`run_seconds` in BENCHMARK.json and prints, per end-to-end metric, the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread, (Q3 - Q1) / median, next to the metric's bound. `--out` saves it
all as JSON. The second form compares the medians of two saved sets: the
second may be worse than the first by at most the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from refs import parse_seeds
import run


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def sweep(workloads, seeds, trace, spec):
    result = {"nproc": os.cpu_count(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "trace": trace, "workloads": {}}
    for workload in workloads:
        per_metric = {}
        for seed in seeds:
            cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                sys.exit(f"{workload} seed {seed} incorrect:\n{done.stderr}")
            for name, metric in line["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        result["workloads"][workload] = {n: summarize(v) for n, v in per_metric.items()}
    return result


def report(result, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload, metrics in result["workloads"].items():
        for name, s in metrics.items():
            bound = bounds.get(name)
            mark = "" if bound is None else (
                "ok" if s["spread"] < bound / 3 else "within bound" if s["spread"] <= bound
                else "TOO WIDE")
            print(f"{workload:18} {name:28} median {s['median']:12.5g}  "
                  f"q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}  spread {s['spread']:.4f}  "
                  f"bound {bound}  {mark}")


def compare(first, second, spec):
    worse = 0
    for m in spec["end_to_end"]:
        for workload, metrics in first["workloads"].items():
            a = metrics[m["name"]]["median"]
            b = second["workloads"][workload][m["name"]]["median"]
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = change <= m["bound"]
            worse += not ok
            print(f"{workload:18} {m['name']:12} first {a:10.5g} second {b:10.5g} "
                  f"worse by {change:+.4f} (bound {m['bound']}) {'ok' if ok else 'REGRESSION'}")
    return worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(open(p).read()) for p in args.compare)
        return 1 if compare(first, second, spec) else 0
    if not args.seeds:
        parser.error("--seeds is required without --compare")
    result = sweep(args.workload or list(run.WORKLOADS), args.seeds, args.trace, spec)
    report(result, spec)
    if args.out:
        with open(args.out, "w") as f:
            f.write(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
