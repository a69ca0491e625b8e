#!/usr/bin/env sh
# Local CI gate: formatting, release build, the examples, full test suite,
# the dirty-pipeline e2e gate, lint-clean clippy, the benchmark quick tier.
# Run from the repository root.
# Fails fast on the first broken step.
set -eu

cargo fmt --check
# Panic-site ratchet: lines before the first `#[cfg(test)]` of each library
# source file that call `expect`/`unwrap` or `panic!`/`assert!` may not grow
# past MAX_PANIC_SITES. Comment and doc lines (first non-blank characters
# `//`) are not code, so they do not count. Lower it when a change removes
# sites.
MAX_PANIC_SITES=46
panic_sites=$(find crates/*/src -name '*.rs' -exec sed '/#\[cfg(test)\]/,$d' {} \; |
    grep -vE '^[[:space:]]*//' |
    grep -cE '\.(expect|unwrap)\(|\b(panic|assert)!\(' || true)
if [ "$panic_sites" -gt "$MAX_PANIC_SITES" ]; then
    echo "ci: $panic_sites non-test panic sites, above the ratchet of $MAX_PANIC_SITES" >&2
    exit 1
fi
# Serde boundary: the scenario spec is the one input format, so no library
# source outside crates/conformance/src/scenario.rs names `Deserialize` in
# code (a derive, an impl or an import). Comment and doc lines do not count.
deserialize_sites=$(grep -rnw 'Deserialize' crates/*/src --include='*.rs' |
    grep -v '^crates/conformance/src/scenario\.rs:' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$deserialize_sites" ]; then
    echo "ci: Deserialize outside the scenario spec:" >&2
    echo "$deserialize_sites" >&2
    exit 1
fi
cargo build --release --workspace
# The examples are callers of the library API, so every one under
# examples/ must run to completion, not just compile (about 1 s for all of
# them in release).
for example in examples/*.rs; do
    example=${example#examples/}
    cargo run --release -q --example "${example%.rs}" >/dev/null
done
# Paper-scale differential oracles for the μ engine, the provisioned-rack
# μ scope and the hoisted hazard (about 1 s, 3 s and 3 s in release; too
# slow for the debug suite, so they are #[ignore]d there).
cargo test --release -q --test mu_engine -- --ignored
cargo test --release -q --test provision_scope -- --ignored
cargo test --release -q --test hazard_prefix -- --ignored
# The sort-and-sweep sanitizer against the map-based one on the paper
# fleet's clean and dirty streams, seeds 1, 2, 11 (about 5 s in release).
cargo test --release -q --test sanitizer_oracle -- --ignored
# The radix-presort CART fitter against the per-node-sort reference on
# every tree the experiments fit at paper scale: f15's MF tree, f18's
# control and environment trees clean and dirty, and P1's two
# classification trees (about 2 s and 1 s in release).
cargo test --release -q --test cart_oracle -- --ignored
cargo test --release -q -p rainshine-core --lib -- --ignored p1_trees_match
# The disk rack-day table the experiments derive from the all-hardware one
# against a fresh build, column for column, on the paper fleet clean and
# dirty, seed 42 (about 1 s in release).
cargo test --release -q --test derived_table -- --ignored
# Every FleetAnalyses memo entry against a fresh public call on the medium
# fleet, clean and dirty, at strides 1 and 2 (under a second in release).
cargo test --release -q --test fleet_analyses -- --ignored
cargo test --workspace -q
# Fast-tier statistical conformance gate: 3-seed prefix of the calibrated
# full-scenario sweep plus the differential oracle suite, byte-compared
# against the committed baseline report (regenerate with the same flags
# plus --report results/conformance.json after an intentional change).
cargo run --release -q -p rainshine-bench -- conformance \
    --scenario scenarios/full.json --seeds 3 --baseline results/conformance.json
cargo test -q --test determinism run_report_bytes_do_not_depend_on_thread_count
# Every experiment's CSV and preview under Sequential, Threads(2) and Auto,
# clean and dirty: pins the fan-out inside t4, f13, f15, f18, p1 and the
# FleetAnalyses memo they share (about 2 s in release).
cargo test --release -q --test determinism experiment_artifacts_do_not_depend_on_thread_count
cargo clippy --workspace --all-targets -- -D warnings
# The benchmark package (perfbench/) builds against the public library API
# the same way perfbench/run.py builds it, so an API change that breaks the
# benchmark fails here; then its Python self-tests run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench/tests
# Quick tier of the benchmark: one untraced and one traced pass per
# workload, each digest-checked against perfbench/reference/digests.json.
# It gates on correctness only, never on time (about 6 s).
for workload_seed in "dirty_export 1" "paper_reproduce 2"; do
    set -- $workload_seed
    result=$(python3 perfbench/run.py --workload "$1" --seed "$2" --seconds 0 --trace 1 |
        tail -n 1)
    case "$result" in
    '{"correct": true,'*) ;;
    *)
        echo "ci: perfbench $1 --seed $2 is not correct: $result" >&2
        exit 1
        ;;
    esac
done
# Rustdoc must build warning-free (broken intra-doc links fail the gate).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "ci: all green"
