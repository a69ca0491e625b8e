#!/usr/bin/env python3
"""Records the reference digests `run.py` checks shipped seeds against.

    python3 perfbench/refs.py --seeds 0-15 [--workload W ...]

Runs one untraced pass per (workload, seed), refuses to record a pass with
a failed operation, and merges the digests of its output files into
`reference/digests.json`. Re-record only when a change is meant to alter
the program's outputs, and say so in that change.
"""

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="N or LO-HI")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args()
    binary = run.build()
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    for workload in args.workload or run.WORKLOADS:
        for seed in args.seeds:
            pass_dir = run.ROOT / ".bench_work" / f"refs-{workload}-{seed}"
            cmd = [str(binary), workload, "--seed", str(seed), "--out", str(pass_dir)]
            result = run.run_pass(cmd, run.ROOT)
            try:
                if result["returncode"] != 0:
                    sys.exit(f"{workload} seed {seed}: pass exited {result['returncode']}")
                ops = json.loads(result["stdout"].strip().splitlines()[-1])["ops"]
                attempted, failed, problems = run.check_ops(ops, pass_dir, None, {})
                if failed:
                    sys.exit(f"{workload} seed {seed}: {failed}/{attempted} failed: {problems}")
                files = sorted({name for op in ops for name in op["files"]})
                refs.setdefault(workload, {})[str(seed)] = {
                    name: run.file_digest(pass_dir / name) for name in files
                }
            finally:
                shutil.rmtree(pass_dir, ignore_errors=True)
            print(f"{workload} seed {seed}: {len(files)} files", file=sys.stderr)
    run.REFERENCES.parent.mkdir(parents=True, exist_ok=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
