#!/usr/bin/env sh
# Local CI gate: formatting, release build, the examples, full test suite,
# the dirty-pipeline e2e gate, lint-clean clippy. Run from the repository root.
# Fails fast on the first broken step.
set -eu

cargo fmt --check
# Panic-site ratchet: lines before the first `#[cfg(test)]` of each library
# source file that call `expect`/`unwrap` or `panic!`/`assert!` may not grow
# past MAX_PANIC_SITES. Lower it when a change removes sites.
MAX_PANIC_SITES=81
panic_sites=$(find crates/*/src -name '*.rs' -exec sed '/#\[cfg(test)\]/,$d' {} \; |
    grep -cE '\.(expect|unwrap)\(|\b(panic|assert)!\(' || true)
if [ "$panic_sites" -gt "$MAX_PANIC_SITES" ]; then
    echo "ci: $panic_sites non-test panic sites, above the ratchet of $MAX_PANIC_SITES" >&2
    exit 1
fi
cargo build --release --workspace
# The examples are callers of the library API, so each must run to
# completion, not just compile (about 1 s for all six in release).
for example in climate_control fleet_explorer lifetime_analysis quickstart \
    spare_provisioning vendor_selection; do
    cargo run --release -q --example "$example" >/dev/null
done
# Paper-scale differential oracle for the μ engine (about 1 s to simulate in
# release; too slow for the debug suite, so it is #[ignore]d there).
cargo test --release -q --test mu_engine -- --ignored
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
