#!/usr/bin/env python3
"""Benchmark runner: runs one workload for a fixed time and reports medians.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the pass executor (`perfbench/src/main.rs`) from source, then starts
one process per pass until `--seconds` have elapsed. Each pass runs the
workload once and writes its outputs; this script digests them, checks
them and deletes them. With `--trace 0` the last stdout line reports the
end-to-end metrics as medians over the untraced passes; with `--trace 1`
it alternates untraced and traced passes and reports the per-layer
metrics (medians over the traced passes) plus the tracing overhead.
`peak_rss_mb` is the largest of the untraced passes' peaks.

An operation fails when the program reports it failed, when one of its
output files is missing or empty, when its digest differs between passes
of the run (same seed, same bytes), or, for a seed listed in
`reference/digests.json`, when its digest differs from the reference.

Everything is read and written inside the checkout: the build goes to
`$CARGO_TARGET_DIR` (default `.bench_build`), pass outputs to `.bench_work`.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "reference" / "digests.json"
WORKLOADS = ("paper_reproduce", "conformance_sweep", "dirty_export")
# Untraced passes a run makes at least, so each median has three samples.
MIN_PASSES = 3
# A pass that runs longer than this is killed; a run stops starting passes
# once another one could end past RUN_LIMIT_S.
PASS_TIMEOUT_S = 150.0
RUN_LIMIT_S = 165.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def build():
    """Builds the pass executor and returns its path."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return target / "release" / "perfbench"


def run_pass(cmd, cwd, timeout=PASS_TIMEOUT_S):
    """Runs one pass process and returns its stdout with its own rusage.

    `os.wait4` reports the resources of exactly this child, so CPU time and
    peak RSS belong to one pass, never to this script or another pass.
    """
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "pid": proc.pid,
        "returncode": proc.returncode,
        "stdout": out.decode(errors="replace"),
        "wall_s": time.monotonic() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


# `Tree::variable_importance` sums a HashMap's values, so its percentages
# (the conformance report's `driver_importance` quartiles) can differ in the
# last bit from process to process. These files are digested with every
# float rounded to 12 significant digits; all others byte for byte.
ROUNDED = {"conformance.json"}


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def file_digest(path):
    data = path.read_bytes()
    if path.name in ROUNDED:
        data = json.dumps(_rounded(json.loads(data)), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def check_ops(ops, pass_dir, reference, seen):
    """Counts attempted and failed work units of one pass.

    `reference` maps file name to digest for a shipped seed (or is None);
    `seen` maps file name to the digest of the run's first pass and is
    updated in place. Returns (attempted, failed, problems).
    """
    digests = {}
    problems = []
    attempted = failed = 0
    for op in ops:
        bad = None
        for name in op["files"]:
            if name not in digests:
                path = pass_dir / name
                if not path.is_file() or path.stat().st_size == 0:
                    digests[name] = None
                else:
                    digests[name] = file_digest(path)
            digest = digests[name]
            if digest is None:
                bad = f"{name} missing or empty"
            elif reference is not None and reference.get(name) != digest:
                bad = f"{name} digest {digest} differs from reference {reference.get(name)}"
            elif seen.setdefault(name, digest) != digest:
                bad = f"{name} digest {digest} differs from the first pass's {seen[name]}"
        op_failed = op["attempted"] if bad else op["failed"]
        if bad:
            problems.append(f"{op['name']}: {bad}")
        elif op["failed"]:
            problems.append(f"{op['name']}: {op['detail']}")
        attempted += op["attempted"]
        failed += op_failed
    return attempted, failed, problems


def failed_ratio(attempted, failed):
    """Failed operations over attempted ones (0 when nothing was attempted)."""
    return failed / attempted if attempted else 0.0


def load_references(workload, seed):
    if not REFERENCES.is_file():
        return None
    refs = json.loads(REFERENCES.read_text())
    return refs.get(workload, {}).get(str(seed))


def measure(binary, workload, seed, seconds, trace, reference):
    """Runs passes for `seconds` and returns the per-pass records."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    seen = {}
    passes = []
    longest = 0.0
    try:
        while True:
            for traced in ([False, True] if trace else [False]):
                pass_dir = work / f"pass-{len(passes)}"
                cmd = [str(binary), workload, "--seed", str(seed), "--out", str(pass_dir)]
                if traced:
                    cmd.append("--trace")
                result = run_pass(cmd, ROOT)
                if result["returncode"] != 0:
                    raise BenchError(f"pass exited with code {result['returncode']}: {cmd}")
                lines = result["stdout"].strip().splitlines()
                if not lines:
                    raise BenchError(f"pass printed nothing: {cmd}")
                record = json.loads(lines[-1])
                attempted, failed, problems = check_ops(record["ops"], pass_dir, reference, seen)
                shutil.rmtree(pass_dir, ignore_errors=True)
                for problem in problems:
                    print(f"perfbench: pass {len(passes)}: {problem}", file=sys.stderr)
                record.update(result, traced=traced, attempted=attempted, failed=failed)
                del record["stdout"], record["ops"]
                passes.append(record)
                longest = max(longest, result["wall_s"])
            elapsed = time.monotonic() - start
            untraced = sum(1 for p in passes if not p["traced"])
            if elapsed + longest > RUN_LIMIT_S:
                break
            if elapsed >= seconds and untraced >= (1 if trace else MIN_PASSES):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return passes


def end_to_end(passes, spec):
    plain = [p for p in passes if not p["traced"]]
    values = {
        "total_s": statistics.median(p["total_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        # The largest, not the median: with two workers, a conformance pass
        # peaks at 28 or 34 MB depending on how the seed runs overlap.
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def per_layer(passes, spec):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    derived = {
        "obs.trace_overhead_ratio": statistics.median(p["total_s"] for p in traced)
        / statistics.median(p["total_s"] for p in plain),
        "parallel.cores_used": statistics.median(p["cpu_s"] / p["wall_s"] for p in plain),
    }
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in derived:
            value = derived[name]
        else:
            # A layer the workload never calls reads 0 (see README.md).
            value = statistics.median(p["layers"].get(name) or 0.0 for p in traced)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        binary = build()
        reference = load_references(args.workload, args.seed)
        passes = measure(binary, args.workload, args.seed, args.seconds, bool(args.trace),
                         reference)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = per_layer(passes, spec["per_layer"])
    else:
        metrics = end_to_end(passes, spec["end_to_end"])
    plain = [p for p in passes if not p["traced"]]
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(plain)} untraced and "
        f"{len(passes) - len(plain)} traced passes, reference "
        f"{'checked' if reference else 'not shipped'}, failed_ratio "
        f"{failed_ratio(attempted, failed):.6f} ({failed}/{attempted}); total_s per pass "
        + " ".join(f"{p['total_s']:.3f}" for p in plain),
        file=sys.stderr,
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
