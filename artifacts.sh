#!/usr/bin/env sh
# Regenerates the artifacts that results/artifacts.sha256 pins into DIR,
# with the release `rainshine` binary at THREADS workers, and prints one
# `sha256sum` line per file (paths relative to DIR, in byte order):
# - experiments/ and experiments-corrupt/: `experiments --scale paper
#   --seed 42`, clean and `--corrupt 0.06`: the 27 CSVs, stdout.txt (the
#   previews) and report.json (`--report`);
# - simulate-corrupt/: `simulate --scale paper --seed 42 --corrupt 0.06`:
#   fleet.csv, tickets.csv, environment.csv, manifest.json and report.json.
# Every output is bit-identical at any thread count, so the lines do not
# depend on THREADS; ci.sh checks them at 1 and auto with `sha256sum -c`.
# After an intentional change to an artifact, rewrite the manifest with
#   cargo build --release && ./artifacts.sh "$(mktemp -d)" 1 > results/artifacts.sha256
# and name every changed file in CHANGES.md.
#
# Usage: ./artifacts.sh DIR THREADS   (run from the repository root)
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: ./artifacts.sh DIR THREADS" >&2
    exit 2
fi
dir=$1
threads=$2
# The release binary, wherever cargo builds it.
bin=$(cd "${CARGO_TARGET_DIR:-target}" && pwd)/release/rainshine
paper="--scale paper --seed 42 --threads $threads"

mkdir -p "$dir"
cd "$dir"
rm -rf experiments experiments-corrupt simulate-corrupt stderr.log
mkdir experiments experiments-corrupt
# Runs the binary with its stderr (wall times, summaries) kept out of the
# pinned files, and shows that stderr if the run fails.
run() {
    "$bin" "$@" 2>>stderr.log || {
        cat stderr.log >&2
        exit 1
    }
}
# shellcheck disable=SC2086 # $paper is a list of flags
run experiments $paper --out experiments --report experiments/report.json \
    >experiments/stdout.txt
# shellcheck disable=SC2086
run experiments $paper --corrupt 0.06 --out experiments-corrupt \
    --report experiments-corrupt/report.json >experiments-corrupt/stdout.txt
# shellcheck disable=SC2086
run simulate $paper --corrupt 0.06 --out simulate-corrupt --report simulate-corrupt/report.json
find experiments experiments-corrupt simulate-corrupt -type f | LC_ALL=C sort |
    xargs sha256sum
