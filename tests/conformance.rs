//! Conformance harness integration: the deterministic report section must
//! be byte-identical across thread counts, a real scenario must recover
//! every claim, and every checked-in scenario spec must round-trip through
//! serde.

use rainshine_conformance::report::ConformanceReport;
use rainshine_conformance::{run_scenario, Obs, Parallelism, Scenario};

fn load(name: &str) -> Scenario {
    let path = format!("{}/scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Scenario::from_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Builds the report of a 3-seed sweep of `smoke` at the given thread
/// count.
fn smoke_report(threads: Parallelism) -> ConformanceReport {
    let scenario = load("smoke");
    let seeds = scenario.seeds(3).expect("seed sweep");
    let obs = Obs::enabled();
    let outcome = run_scenario(&scenario, &seeds, threads, &obs).expect("sweep");
    ConformanceReport::new(vec![outcome], Vec::new(), &obs.snapshot())
}

#[test]
fn smoke_report_is_byte_identical_across_thread_counts() {
    let sequential = smoke_report(Parallelism::Sequential);
    let threaded = smoke_report(Parallelism::Threads(4));
    assert_eq!(
        sequential.deterministic_json(),
        threaded.deterministic_json(),
        "deterministic report section must not depend on the thread count"
    );
}

#[test]
fn smoke_scenario_recovers_every_claim() {
    let report = smoke_report(Parallelism::Auto);
    assert!(report.violations().is_empty(), "violations: {:?}", report.violations());
}

#[test]
fn every_checked_in_scenario_round_trips() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut count = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        count += 1;
        let text = std::fs::read_to_string(&path).expect("read scenario");
        let scenario =
            Scenario::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        scenario.validate().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let reparsed = Scenario::from_json(&scenario.to_json())
            .unwrap_or_else(|e| panic!("{} re-parse: {e}", path.display()));
        assert_eq!(reparsed, scenario, "{} does not round-trip", path.display());
        // The file name matches the scenario's own name.
        assert_eq!(
            path.file_stem().and_then(|s| s.to_str()),
            Some(scenario.name.as_str()),
            "scenario file name should match its `name` field"
        );
    }
    assert!(count >= 9, "expected the full scenario catalog, found {count} files");
}
