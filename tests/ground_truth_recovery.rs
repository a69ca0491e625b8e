//! Ground-truth recovery: the simulator plants known multi-factor effects
//! (DESIGN.md §3); these tests assert the *analysis stack* recovers them —
//! something the paper could not check on production data, and the main
//! scientific payoff of reproducing a measurement study on a synthetic
//! substrate.
//!
//! The claims and their tolerance envelopes live in `scenarios/full.json`,
//! calibrated from 20-seed power sweeps (each claim's `derivation` field
//! records the measured quartiles). The tests here run a 3-seed prefix of
//! the same sweep, so a regression that narrows an effect below its
//! power-derived envelope fails with the per-seed detail attached.

use std::sync::OnceLock;

use rainshine_conformance::{run_scenario, Obs, Parallelism, Scenario, ScenarioOutcome};

/// Seeds per claim sweep. Every gated claim in `full.json` recovers in
/// 20/20 calibration seeds, so any prefix is deterministic-green; 3 keeps
/// the debug-profile test fast.
const SEEDS: usize = 3;

fn outcome() -> &'static ScenarioOutcome {
    static OUTCOME: OnceLock<ScenarioOutcome> = OnceLock::new();
    OUTCOME.get_or_init(|| {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/full.json"))
                .expect("read scenarios/full.json");
        let scenario = Scenario::from_json(&text).expect("parse full scenario");
        let seeds = scenario.seeds(SEEDS).expect("seed sweep");
        run_scenario(&scenario, &seeds, Parallelism::Auto, &Obs::disabled()).expect("sweep")
    })
}

#[track_caller]
fn assert_claim(name: &str) {
    let outcome = outcome();
    let claim = outcome
        .claims
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("claim `{name}` missing from scenarios/full.json"));
    assert!(
        claim.pass,
        "claim `{name}` recovered {}/{} seeds (need {:.0}%): {:?}",
        claim.recovered,
        claim.seeds,
        claim.min_recovery * 100.0,
        claim.failures
    );
}

#[test]
fn fig2_dc1_regions_fail_more_than_dc2() {
    assert_claim("region_gap");
}

#[test]
fn fig3_weekday_effect_recovered() {
    assert_claim("weekday_spread");
}

#[test]
fn fig4_second_half_of_year_elevated() {
    assert_claim("seasonal_lift");
}

#[test]
fn fig5_low_humidity_elevated() {
    assert_claim("low_humidity_lift");
}

#[test]
fn fig6_workload_ordering_w2_highest_w3_lowest() {
    assert_claim("workload_extremes");
}

#[test]
fn fig9_infant_mortality_visible() {
    assert_claim("age_bathtub");
}

#[test]
fn fig18_temperature_threshold_discovered() {
    assert_claim("temp_threshold");
}

#[test]
fn cart_importance_ranks_planted_drivers_over_noise() {
    assert_claim("driver_importance");
}

#[test]
fn burst_prone_cohorts_have_heavier_mu_tails() {
    assert_claim("burst_lot_tails");
}

#[test]
fn mf_sku_ratio_within_power_envelope() {
    assert_claim("mf_sku_ratio");
}

#[test]
fn every_full_scenario_claim_recovers() {
    let outcome = outcome();
    assert!(outcome.pass, "scenario `full` failed claims: {:?}", outcome.failed_claims());
}
