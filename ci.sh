#!/usr/bin/env sh
# Local CI gate: formatting, release build, full test suite, the dirty-
# pipeline e2e gate, lint-clean clippy. Run from the repository root.
# Fails fast on the first broken step.
set -eu

cargo fmt --check
cargo build --release --workspace
cargo test --workspace -q
# Fast-tier statistical conformance gate: 3-seed prefix of the calibrated
# full-scenario sweep plus the differential oracle suite, byte-compared
# against the committed baseline report (regenerate with the same flags
# plus --report results/conformance.json after an intentional change).
cargo run --release -q -p rainshine-bench -- conformance \
    --scenario scenarios/full.json --seeds 3 --baseline results/conformance.json
cargo test -q --test determinism run_report_bytes_do_not_depend_on_thread_count
cargo clippy --workspace --all-targets -- -D warnings
# The benchmark package (perfbench/) builds against the public library API
# the same way perfbench/run.py builds it, so an API change that breaks the
# benchmark fails here; then its Python self-tests run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench/tests
# Rustdoc must build warning-free (broken intra-doc links fail the gate).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "ci: all green"
