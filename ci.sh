#!/usr/bin/env sh
# Local CI gate: formatting, release build, the examples, the artifact
# manifest, full test suite, the dirty-pipeline e2e gate, lint-clean clippy,
# the benchmark quick tier.
# Run from the repository root.
# Fails fast on the first broken step.
set -eu

cargo fmt --check
# Panic-site ratchet: library source lines that call `expect`/`unwrap` or
# `panic!`/`assert!` may not grow past MAX_PANIC_SITES. Each file is cut at
# the `#[cfg(test)]` whose next code line (after blank, comment and
# attribute lines) opens a `mod`: its test module. A `#[cfg(test)]` on any
# other item cuts nothing, so the library code after it still counts.
# Comment and doc lines (first non-blank characters `//`) are not code, so
# they do not count. Lower it when a change removes sites.
MAX_PANIC_SITES=19
panic_sites=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { cut = 0; held = "" }
    cut { next }
    held != "" && /^[[:space:]]*(\/\/.*|#\[.*)?$/ { held = held $0 "\n"; next }
    held != "" && /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]/ { cut = 1; next }
    held != "" { printf "%s", held; held = "" }
    /^[[:space:]]*#\[cfg\(test\)\]/ { held = $0 "\n"; next }
    { print }' {} + |
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
# Rack lookups go by position (`RackId::position`, through
# `Fleet::index_of` or `FleetManifest::get`), so no code line of
# crates/*/src names a hash map keyed by rack id, a hash set of spatial
# keys, or a hash or ordered map from a rack id to its `RackRecord`.
# Comment and doc lines do not count.
rack_map_sites=$(grep -rnE 'HashMap<RackId|HashSet<SpatialKey>|(Hash|BTree)Map<(RackId|u32), *RackRecord>' \
    crates/*/src --include='*.rs' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$rack_map_sites" ]; then
    echo "ci: rack-keyed map lookup in crates/*/src (index by RackId::position):" >&2
    echo "$rack_map_sites" >&2
    exit 1
fi
# One canonical ticket order: `rma::sort_canonical` is the only code that
# orders tickets on (opened, location.rack, device), so no code line of
# crates/*/src outside crates/telemetry/src/rma.rs names that key. Comment
# and doc lines do not count.
ticket_sort_sites=$(grep -rnE 'opened, *[a-z_]+\.location\.rack, *[a-z_]+\.device' crates/*/src \
    --include='*.rs' |
    grep -v '^crates/telemetry/src/rma\.rs:' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$ticket_sort_sites" ]; then
    echo "ci: ticket stream ordered outside rma::sort_canonical:" >&2
    echo "$ticket_sort_sites" >&2
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
# Artifact manifest: the paper-scale experiment CSVs, stdout and run
# reports (clean and --corrupt 0.06) and the dirty simulate files must
# match results/artifacts.sha256 byte for byte, at --threads 1 and auto
# (about 2 s). artifacts.sh says how to rewrite the manifest after an
# intentional change.
artifacts=$(mktemp -d)
trap 'rm -rf "$artifacts"' EXIT
manifest=$(pwd)/results/artifacts.sha256
for threads in 1 auto; do
    ./artifacts.sh "$artifacts/$threads" "$threads" >/dev/null
    (cd "$artifacts/$threads" && sha256sum -c --quiet "$manifest") || {
        echo "ci: artifacts at --threads $threads differ from results/artifacts.sha256" >&2
        exit 1
    }
done
# Paper-scale differential oracles, too slow for the debug suite, so they
# are #[ignore]d there and run here in release in one call:
# - mu_engine, provision_scope, hazard_prefix: the μ engine, the
#   provisioned-rack μ scope, and the hoisted hazard and burst rates with
#   the paper fleet's ticket-stream pins (about 1 s, 3 s and 6 s);
# - sanitizer_oracle: the in-place sanitizer (dedup bucketed by resolved
#   hour, final order by rma::sort_canonical) against the map-based one
#   on the paper fleet's clean and dirty streams, seeds 1, 2, 11, and its
#   fixed point on the clean streams (about 5 s);
# - cart_oracle: the presort CART fitter against the per-node-sort
#   reference on the paper-scale trees the presort path grows: f15's MF
#   tree, f18's control and environment trees clean and dirty (about 2 s);
#   the rainshine-core line after it does the same for P1's two
#   classification trees (about 1 s). Q1's MF cluster trees (a nominal
#   feature and inexact sums) are grown by the reference itself;
# - derived_table: the disk rack-day table the experiments derive from the
#   all-hardware one against a fresh build, and the columnar all-hardware
#   table against a row-by-row rebuild, column for column, on the paper
#   fleet clean and dirty, seed 42 (about 1 s);
# - fleet_analyses: every FleetAnalyses memo entry against a fresh public
#   call on the medium fleet, clean and dirty, at strides 1 and 2 (under a
#   second).
cargo test --release -q --test mu_engine --test provision_scope --test hazard_prefix \
    --test sanitizer_oracle --test cart_oracle --test derived_table --test fleet_analyses \
    -- --ignored
cargo test --release -q -p rainshine-core --lib -- --ignored p1_trees_match
# The full suite in debug; this includes tests/determinism.rs, which pins
# every experiment's CSV and preview under Sequential, Threads(2) and Auto,
# clean and dirty (the fan-out inside t4, f13, f15, f18, p1 and the
# FleetAnalyses memo they share).
cargo test --workspace -q
# Fast-tier statistical conformance gate: 3-seed prefix of the calibrated
# full-scenario sweep, byte-compared against the committed baseline report
# (regenerate with the same flags plus --report results/conformance.json
# after an intentional change).
cargo run --release -q -p rainshine-bench -- conformance \
    --scenario scenarios/full.json --seeds 3 --baseline results/conformance.json
cargo clippy --workspace --all-targets -- -D warnings
# The benchmark package (perfbench/) builds against the public library API
# the same way perfbench/run.py builds it, so an API change that breaks the
# benchmark fails here; then its Python self-tests run.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml
python3 -m unittest discover -s perfbench/tests
# Quick tier of the benchmark: one untraced and one traced pass per
# workload, each digest-checked against perfbench/reference/digests.json.
# It gates on correctness only, never on time (about 5 s).
for workload_seed in "dirty_export 1" "paper_reproduce 2" "conformance_sweep 2"; do
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
