//! The serializable conformance report.
//!
//! Mirrors the deterministic/wall split of [`rainshine_obs::RunReport`]:
//! scenario outcomes and run counters are pure functions of (scenario,
//! seeds) and land in [`ConformanceDeterministic`] — the bytes `rainshine
//! conformance` writes with `--report` and gates with `--baseline`.
//! Wall-clock stage timings stay in the human summary.

use rainshine_obs::{Collector, DeterministicReport, RunReport, WallTimes};

use crate::power::ScenarioOutcome;
use crate::{ConformanceError, Result};

/// Schema version written into every conformance report.
pub const SCHEMA_VERSION: u32 = 1;

/// How much two paired executions may diverge.
///
/// Kept, with [`OracleReport`], only because the report's `oracles` field
/// is part of its bytes (`"oracles": []`), which perfbench's reference
/// digest of `conformance.json` covers. The differential oracles run as
/// tests, so nothing fills the field.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub enum DivergenceBound {
    /// Every cell must be bit-identical.
    BitIdentical,
    /// Numeric cells may differ by at most this absolute amount.
    MaxAbs(f64),
}

/// Outcome of one differential oracle (see [`DivergenceBound`] for why it
/// stays).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OracleReport {
    /// Oracle name.
    pub name: String,
    /// Bound the oracle asserts.
    pub bound: DivergenceBound,
    /// Cells (or bytes, for serialized comparisons) compared.
    pub cells: usize,
    /// Largest per-cell divergence observed (0 when bit-identical).
    pub max_divergence: f64,
    /// Whether the bound was exceeded.
    pub violation: bool,
    /// Deterministic detail (first differing location, or "identical").
    pub detail: String,
}

/// The byte-stable section: identical across thread counts for the same
/// scenarios and seeds.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ConformanceDeterministic {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// One outcome per scenario, in run order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Always empty; see [`DivergenceBound`] for why the field stays.
    pub oracles: Vec<OracleReport>,
    /// Deterministic observability section (counters, stage call/item
    /// counts) from the run's collector.
    pub run: DeterministicReport,
}

/// A full conformance report.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// The byte-stable section.
    pub deterministic: ConformanceDeterministic,
    /// Wall-clock stage timings (human summary only).
    pub wall: WallTimes,
}

impl ConformanceReport {
    /// Assembles a report from outcomes, oracle results (empty at every
    /// caller; see [`DivergenceBound`]), and the collector snapshot of the
    /// run.
    pub fn new(
        scenarios: Vec<ScenarioOutcome>,
        oracles: Vec<OracleReport>,
        collector: &Collector,
    ) -> Self {
        let run = RunReport::from_collector(collector);
        ConformanceReport {
            deterministic: ConformanceDeterministic {
                schema_version: SCHEMA_VERSION,
                scenarios,
                oracles,
                run: run.deterministic,
            },
            wall: run.wall,
        }
    }

    /// The deterministic section as pretty-printed JSON — the exact bytes
    /// `--report` and `--baseline` compare.
    pub fn deterministic_json(&self) -> String {
        serde_json::to_string_pretty(&self.deterministic).expect("report is serializable")
    }

    /// Every violation in the report: the claims that missed their
    /// recovery envelope.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.deterministic.scenarios {
            for c in &s.claims {
                if !c.pass {
                    out.push(format!(
                        "scenario `{}` claim `{}`: recovered {}/{} (need {:.0}%){}",
                        s.scenario,
                        c.name,
                        c.recovered,
                        c.seeds,
                        c.min_recovery * 100.0,
                        c.failures.first().map(|f| format!(" — {f}")).unwrap_or_default(),
                    ));
                }
            }
        }
        out
    }

    /// Compares the deterministic section against baseline bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConformanceError::Parse`] with the first differing line
    /// when the report drifted from the baseline.
    pub fn check_baseline(&self, baseline: &str) -> Result<()> {
        let current = self.deterministic_json();
        if current.trim_end() == baseline.trim_end() {
            return Ok(());
        }
        let diff = current
            .lines()
            .zip(baseline.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: `{a}` vs baseline `{b}`", i + 1))
            .unwrap_or_else(|| "reports differ in length".to_string());
        Err(ConformanceError::Parse(format!("deterministic report drifted from baseline: {diff}")))
    }

    /// Multi-line human summary (includes wall times; stderr only).
    pub fn human_summary(&self) -> String {
        let mut out = String::new();
        for s in &self.deterministic.scenarios {
            out.push_str(&format!(
                "scenario {}: {} ({} seeds)\n",
                s.scenario,
                if s.pass { "PASS" } else { "FAIL" },
                s.seeds.len()
            ));
            for c in &s.claims {
                out.push_str(&format!(
                    "  {} {:24} {:>3}/{:<3} recovered (need {:>3.0}%)  effect q1/q2/q3 = {:.3}/{:.3}/{:.3}\n",
                    if c.pass { "ok " } else { "FAIL" },
                    c.name,
                    c.recovered,
                    c.seeds,
                    c.min_recovery * 100.0,
                    c.effect_q1,
                    c.effect_q2,
                    c.effect_q3,
                ));
            }
        }
        if self.wall.total_nanos > 0 {
            out.push_str(&format!("wall: {:.2}s\n", self.wall.total_nanos as f64 / 1e9));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::ClaimOutcome;
    use crate::scenario::Expect;

    fn sample() -> ConformanceReport {
        let claim = ClaimOutcome {
            name: "region_gap".into(),
            expect: Expect::Present,
            min_recovery: 0.9,
            seeds: 2,
            recovered: 2,
            errors: 0,
            recovery_rate: 1.0,
            effect_q1: 1.1,
            effect_q2: 1.2,
            effect_q3: 1.3,
            pass: true,
            failures: vec![],
        };
        let scenario = ScenarioOutcome {
            scenario: "unit".into(),
            seeds: vec![1, 2],
            claims: vec![claim],
            pass: true,
        };
        ConformanceReport::new(vec![scenario], Vec::new(), &Collector::new())
    }

    #[test]
    fn clean_report_has_no_violations_and_matches_its_own_baseline() {
        let report = sample();
        assert!(report.violations().is_empty());
        let baseline = report.deterministic_json();
        report.check_baseline(&baseline).expect("self-comparison");
        // Trailing newline differences don't count as drift.
        report.check_baseline(&format!("{baseline}\n")).expect("newline-insensitive");
    }

    #[test]
    fn violations_and_baseline_drift_are_reported() {
        let mut report = sample();
        report.deterministic.scenarios[0].claims[0].pass = false;
        report.deterministic.scenarios[0].claims[0].recovered = 1;
        let v = report.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("region_gap"));

        let clean = sample();
        let err = report.check_baseline(&clean.deterministic_json()).unwrap_err();
        assert!(err.to_string().contains("drifted"));
    }
}
