//! Multi-seed recovery power runner.
//!
//! Re-simulating a scenario under many seeds and re-evaluating every claim
//! turns a single pass/fail assertion into a *recovery rate*: the fraction
//! of seeds on which the analysis finds (or correctly fails to find) the
//! planted effect. Tolerances stop being per-seed magic constants — a
//! scenario instead states "this effect is recovered in ≥ 90 % of seeds"
//! and documents the sweep that derived its envelope.
//!
//! Seeds fan out via `rainshine-parallel`; every per-seed simulation runs
//! sequentially inside its worker, so the aggregate is bit-identical for
//! any `Parallelism`.

use rainshine_obs::Obs;
use rainshine_parallel::{par_map, Parallelism};
use rainshine_stats::ecdf::quantile_interpolated;

use crate::eval::{Measurement, SeedRun};
use crate::scenario::{Expect, Scenario};
use crate::Result;

/// One claim aggregated across the seed sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ClaimOutcome {
    /// Claim name from the scenario spec.
    pub name: String,
    /// Whether the effect was expected present or absent.
    pub expect: Expect,
    /// Required recovery rate from the spec.
    pub min_recovery: f64,
    /// Seeds evaluated.
    pub seeds: usize,
    /// Seeds on which the claim was recovered (condition held iff expected).
    pub recovered: usize,
    /// Seeds on which evaluation errored (never counted as recovered).
    pub errors: usize,
    /// `recovered / seeds`.
    pub recovery_rate: f64,
    /// First quartile of the finite effect-size measurements.
    pub effect_q1: f64,
    /// Median effect size.
    pub effect_q2: f64,
    /// Third quartile.
    pub effect_q3: f64,
    /// Whether `recovery_rate >= min_recovery`.
    pub pass: bool,
    /// Per-seed detail for every non-recovered seed, in seed order.
    pub failures: Vec<String>,
}

/// A full scenario evaluated across a seed sweep.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Seeds swept, in order.
    pub seeds: Vec<u64>,
    /// One outcome per claim, in scenario order.
    pub claims: Vec<ClaimOutcome>,
    /// Whether every claim met its recovery envelope.
    pub pass: bool,
}

impl ScenarioOutcome {
    /// Names of claims that missed their envelope.
    pub fn failed_claims(&self) -> Vec<&str> {
        self.claims.iter().filter(|c| !c.pass).map(|c| c.name.as_str()).collect()
    }
}

/// Evaluates every claim of `scenario` on every seed and aggregates
/// per-claim recovery rates and effect-size quartiles.
///
/// Parallelism applies *across* seeds; each seed's simulation and analyses
/// run sequentially in their worker, so the outcome (and the observability
/// counters recorded on `obs`) are independent of `parallelism`.
///
/// # Errors
///
/// Returns [`crate::ConformanceError`] if the scenario's fleet config fails
/// validation. Per-claim analysis errors do not abort the sweep; they are
/// reported in the affected claim's `errors` count and `failures` list.
pub fn run_scenario(
    scenario: &Scenario,
    seeds: &[u64],
    parallelism: Parallelism,
    obs: &Obs,
) -> Result<ScenarioOutcome> {
    // Surface config errors once, before fanning out workers.
    scenario.fleet_config()?;
    let mut span = obs.span_owned(format!("conformance.sweep.{}", scenario.name));
    span.add_items(seeds.len() as u64);

    let per_seed: Vec<Vec<Measurement>> =
        par_map(parallelism, seeds, |&seed| match SeedRun::new(scenario, seed) {
            Ok(run) => scenario.claims.iter().map(|spec| run.evaluate(&spec.claim)).collect(),
            Err(e) => {
                let m = Measurement {
                    value: f64::NAN,
                    pass: false,
                    error: true,
                    detail: format!("seed run failed: {e}"),
                };
                vec![m; scenario.claims.len()]
            }
        });
    drop(span);

    let mut claims = Vec::with_capacity(scenario.claims.len());
    for (idx, spec) in scenario.claims.iter().enumerate() {
        let mut recovered = 0usize;
        let mut errors = 0usize;
        let mut values = Vec::with_capacity(seeds.len());
        let mut failures = Vec::new();
        for (seed, measurements) in seeds.iter().zip(&per_seed) {
            let m = &measurements[idx];
            if m.value.is_finite() {
                values.push(m.value);
            }
            if m.error {
                errors += 1;
                failures.push(format!("seed {seed}: error: {}", m.detail));
                continue;
            }
            let want_present = spec.expect == Expect::Present;
            if m.pass == want_present {
                recovered += 1;
            } else {
                failures.push(format!("seed {seed}: {}", m.detail));
            }
        }
        let recovery_rate =
            if seeds.is_empty() { 0.0 } else { recovered as f64 / seeds.len() as f64 };
        let quartile = |q: f64| quantile_interpolated(&values, q).unwrap_or(f64::NAN);
        let pass = recovery_rate >= spec.min_recovery;
        claims.push(ClaimOutcome {
            name: spec.name.clone(),
            expect: spec.expect,
            min_recovery: spec.min_recovery,
            seeds: seeds.len(),
            recovered,
            errors,
            recovery_rate,
            effect_q1: quartile(0.25),
            effect_q2: quartile(0.50),
            effect_q3: quartile(0.75),
            pass,
            failures,
        });
    }

    let pass = claims.iter().all(|c| c.pass);
    obs.incr("conformance.seeds", seeds.len() as u64);
    obs.incr("conformance.claims", claims.len() as u64);
    obs.incr("conformance.claims_recovered", claims.iter().map(|c| c.recovered as u64).sum());
    obs.incr("conformance.claim_errors", claims.iter().map(|c| c.errors as u64).sum());
    Ok(ScenarioOutcome { scenario: scenario.name.clone(), seeds: seeds.to_vec(), claims, pass })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Claim, ClaimSpec, EffectToggles};

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "power-unit".into(),
            description: "power runner unit tests".into(),
            scale: "small".into(),
            day_stride: 4,
            seed_base: 11,
            effects: EffectToggles::all_on(),
            claims: vec![
                ClaimSpec {
                    name: "region_gap".into(),
                    claim: Claim::RegionGap { min_dc1_over_dc2: 0.2 },
                    expect: Expect::Present,
                    min_recovery: 0.5,
                    derivation: "unit".into(),
                },
                ClaimSpec {
                    name: "mix_software".into(),
                    claim: Claim::MixShare { category: "software".into(), lo: 0.0, hi: 1.0 },
                    expect: Expect::Present,
                    min_recovery: 1.0,
                    derivation: "unit".into(),
                },
            ],
        }
    }

    #[test]
    fn sweep_is_identical_across_parallelism() {
        let scenario = tiny_scenario();
        let seeds: Vec<u64> = scenario.seeds(3).unwrap();
        let seq = run_scenario(&scenario, &seeds, Parallelism::Sequential, &Obs::disabled())
            .expect("sequential sweep");
        let par = run_scenario(&scenario, &seeds, Parallelism::Threads(3), &Obs::disabled())
            .expect("threaded sweep");
        assert_eq!(seq, par);
        assert_eq!(seq.seeds, seeds);
        assert_eq!(seq.claims.len(), 2);
        for claim in &seq.claims {
            assert_eq!(claim.seeds, 3);
            assert!(claim.effect_q1 <= claim.effect_q3);
        }
    }

    #[test]
    fn quartiles_and_rates_come_from_measurements() {
        let scenario = tiny_scenario();
        let outcome =
            run_scenario(&scenario, &[11], Parallelism::Sequential, &Obs::disabled()).unwrap();
        let mix = &outcome.claims[1];
        assert_eq!(mix.recovered, 1);
        assert_eq!(mix.errors, 0);
        assert!((mix.recovery_rate - 1.0).abs() < 1e-12);
        // With one seed, all three quartiles collapse onto the measurement.
        assert_eq!(mix.effect_q1, mix.effect_q2);
        assert_eq!(mix.effect_q2, mix.effect_q3);
        assert!(mix.pass);
    }
}
