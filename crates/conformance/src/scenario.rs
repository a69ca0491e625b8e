//! Declarative scenario specs.
//!
//! A [`Scenario`] is a checked-in JSON document (`scenarios/*.json`) that
//! says (a) which planted ground-truth effects are on or off, and (b) what
//! each analysis must — or must not — recover, with explicit tolerance
//! envelopes. The envelopes are *derived* from multi-seed sweeps of the
//! power runner (see DESIGN.md §11); each [`ClaimSpec::derivation`] field
//! documents the sweep that produced its band.

use rainshine_cart::params::CartParams;
use rainshine_dcsim::corruption::CorruptionConfig;
use rainshine_dcsim::FleetConfig;
use rainshine_telemetry::ids::Workload;
use serde::{Deserialize, Serialize, Value};

use crate::{ConformanceError, Result};

/// Which planted effects the scenario leaves on.
///
/// All fields are required in the JSON (the serde shim would silently turn
/// a missing number into NaN; [`Scenario::validate`] rejects that).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EffectToggles {
    /// Bathtub age hazard (infant mortality + wear-out, Fig. 9).
    pub age_bathtub: bool,
    /// Environmental effects (T slope, hot step, dry steps — Figs. 5/17/18).
    pub environment: bool,
    /// Weekday and seasonal cycles (Figs. 3/4).
    pub calendar: bool,
    /// Correlated failure bursts (Section V's simultaneous failures).
    pub bursts: bool,
    /// Spread of per-SKU intrinsic reliability: 1.0 = catalog (S2 = 4× S4),
    /// 0.0 = every SKU identical (ablates the Q2 effect).
    pub sku_spread: f64,
    /// Shift applied to the planted 78 °F disk hot threshold (°F); the Q3
    /// claims' envelopes must follow the shift.
    pub hot_threshold_shift_f: f64,
    /// Dirty-data corruption rate (0.0 = pristine; see
    /// [`CorruptionConfig::with_total_rate`]).
    pub corruption_rate: f64,
}

impl EffectToggles {
    /// All effects on, clean data — the simulator defaults.
    pub fn all_on() -> Self {
        EffectToggles {
            age_bathtub: true,
            environment: true,
            calendar: true,
            bursts: true,
            sku_spread: 1.0,
            hot_threshold_shift_f: 0.0,
            corruption_rate: 0.0,
        }
    }
}

/// CART parameters embedded in a claim (the former hand-tuned `cp` /
/// min-size constants, now part of the scenario contract).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CartSpec {
    /// Minimum rows to attempt a split.
    pub min_split: usize,
    /// Minimum rows per leaf.
    pub min_leaf: usize,
    /// Complexity-pruning threshold.
    pub cp: f64,
}

impl CartSpec {
    /// The equivalent [`CartParams`].
    pub fn params(&self) -> CartParams {
        CartParams::default().with_min_sizes(self.min_split, self.min_leaf).with_cp(self.cp)
    }
}

/// Whether the claim's condition should hold or fail on this scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Expect {
    /// The effect is planted; the analysis must find it.
    Present,
    /// The effect is ablated; the analysis must *not* find it.
    Absent,
}

/// One measurable recovery condition.
///
/// Each variant mirrors one assertion the repo's tests used to hard-code;
/// the numeric fields are the tolerance envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Claim {
    /// Fig. 9: mean rate of the `<5` months age bin exceeds the `25-30`
    /// bin by at least this ratio. Measures young/mid.
    AgeBathtub {
        /// Minimum young/mid-life ratio.
        min_young_over_mid: f64,
    },
    /// Fig. 2: every DC1 region's mean exceeds every DC2 region's by at
    /// least this ratio. Measures min(DC1)/max(DC2).
    RegionGap {
        /// Minimum DC1-min over DC2-max ratio.
        min_dc1_over_dc2: f64,
    },
    /// Fig. 3: max/min across day-of-week means lies inside `[lo, hi]`,
    /// and every weekday mean exceeds every weekend mean when
    /// `weekdays_over_weekends`. Measures max/min.
    WeekdaySpread {
        /// Lower envelope for the spread.
        lo: f64,
        /// Upper envelope for the spread.
        hi: f64,
        /// Additionally require Mon–Fri ≻ Sat/Sun pointwise.
        weekdays_over_weekends: bool,
    },
    /// Fig. 4: mean of Jul–Dec over mean of Jan–Jun. Measures H2/H1.
    SeasonalLift {
        /// Minimum second-half lift.
        min_h2_over_h1: f64,
    },
    /// Fig. 5: the `20-30` RH bin mean exceeds the `40-50` bin.
    /// Measures dry/mid.
    LowHumidityLift {
        /// Minimum dry/mid ratio.
        min_dry_over_mid: f64,
    },
    /// Fig. 6: the named workloads are the extremes of the by-workload
    /// means. Measures highest/lowest ratio.
    WorkloadExtremes {
        /// Workload expected to top the ranking (paper: W2).
        highest: String,
        /// Workload expected to bottom it (paper: W3).
        lowest: String,
    },
    /// CART variable importance ranks the planted drivers (SKU, workload,
    /// datacenter) above noise (week-of-year). Measures the planted
    /// drivers' combined share.
    DriverImportance {
        /// Tree settings.
        cart: CartSpec,
        /// Minimum combined SKU+workload+datacenter importance.
        min_planted_share: f64,
        /// Maximum week-of-year importance.
        max_week_share: f64,
    },
    /// Bad-lot cohorts have heavier per-rack peak-μ tails than quiet
    /// cohorts. Measures lot/quiet mean-peak ratio.
    BurstLotTails {
        /// Minimum lot/quiet ratio.
        min_lot_over_quiet: f64,
    },
    /// Q2 (Fig. 15): the MF-estimated `sku_hi`/`sku_lo` intrinsic ratio
    /// lies inside `[lo, hi]` (ground truth plants 4×). Measures the
    /// ratio.
    MfSkuRatio {
        /// Control-tree settings.
        cart: CartSpec,
        /// Day stride of the rack-day table the control tree fits on.
        table_stride: usize,
        /// Numerator SKU label.
        sku_hi: String,
        /// Denominator SKU label.
        sku_lo: String,
        /// Lower envelope.
        lo: f64,
        /// Upper envelope.
        hi: f64,
    },
    /// Q3 (Fig. 18): the environment tree discovers a temperature rule in
    /// `dc` with a threshold inside `[lo_f, hi_f]` and a hot/cool step of
    /// at least `min_hot_over_cool`. Measures the discovered threshold.
    TempThreshold {
        /// Tree settings for control + environment trees.
        cart: CartSpec,
        /// Day stride of the disk-failure rack-day table.
        table_stride: usize,
        /// Datacenter label to analyze.
        dc: String,
        /// Lower envelope for the discovered threshold, °F.
        lo_f: f64,
        /// Upper envelope, °F.
        hi_f: f64,
        /// Minimum hot-group over cool-group mean ratio.
        min_hot_over_cool: f64,
    },
    /// Q3 negative control: the environment tree finds at least
    /// `min_rules` environmental split rules in `dc`. Use with
    /// [`Expect::Absent`] to require *no* discovery. Measures the rule
    /// count.
    EnvRules {
        /// Tree settings.
        cart: CartSpec,
        /// Day stride of the disk-failure rack-day table.
        table_stride: usize,
        /// Datacenter label to analyze.
        dc: String,
        /// Rule-count threshold.
        min_rules: usize,
    },
    /// Q1 (Fig. 10): the SF overprovision percentage for a workload lies
    /// inside `[lo_pct, hi_pct]`. Measures the percentage.
    SfOverprovision {
        /// Workload label (W1–W7).
        workload: String,
        /// Availability SLA.
        sla: f64,
        /// Lower envelope, percent.
        lo_pct: f64,
        /// Upper envelope, percent.
        hi_pct: f64,
    },
    /// Q1: the SF-minus-MF overprovision gap (what clustering recovers)
    /// is at least `min_gap_pct` points. Measures the gap.
    MfSfGap {
        /// Workload label.
        workload: String,
        /// Availability SLA.
        sla: f64,
        /// Minimum gap in percentage points.
        min_gap_pct: f64,
    },
    /// Table II gate: the ticket share of a fault category lies inside
    /// `[lo, hi]`. Measures the share.
    MixShare {
        /// `software`, `hardware`, or `boot`.
        category: String,
        /// Lower envelope (fraction).
        lo: f64,
        /// Upper envelope (fraction).
        hi: f64,
    },
    /// Table IV gate: relative TCO savings of MF over SF for a workload
    /// lies inside `[lo, hi]` (fractions). Measures the savings.
    TcoSavings {
        /// Workload label.
        workload: String,
        /// Availability SLA.
        sla: f64,
        /// Lower envelope (fraction).
        lo: f64,
        /// Upper envelope (fraction).
        hi: f64,
    },
}

/// A named claim with its expectation and required recovery power.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClaimSpec {
    /// Stable identifier (shows up in reports and CI output).
    pub name: String,
    /// The measurable condition.
    pub claim: Claim,
    /// Whether the condition must hold ([`Expect::Present`]) or fail
    /// ([`Expect::Absent`]) on this scenario.
    pub expect: Expect,
    /// Minimum fraction of seeds that must recover the expectation.
    pub min_recovery: f64,
    /// How the envelope was derived (sweep seeds, measured quartiles) —
    /// documentation carried with the spec.
    pub derivation: String,
}

/// A full scenario: fleet scale, effect toggles, and claims.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Stable scenario name.
    pub name: String,
    /// What the scenario exercises.
    pub description: String,
    /// Fleet scale: `small`, `medium`, or `paper`.
    pub scale: String,
    /// Day stride of the default (all-hardware) rack-day table the
    /// evidence claims read.
    pub day_stride: usize,
    /// First seed of the sweep; seed `i` of `n` is `seed_base + i`.
    pub seed_base: u64,
    /// Which planted effects are on.
    pub effects: EffectToggles,
    /// The recovery claims.
    pub claims: Vec<ClaimSpec>,
}

impl Scenario {
    /// Parses and validates a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`ConformanceError::Parse`] on malformed JSON and
    /// [`ConformanceError::InvalidScenario`] on validation failures.
    pub fn from_json(text: &str) -> Result<Scenario> {
        let scenario: Scenario =
            serde_json::from_str(text).map_err(|e| ConformanceError::Parse(e.to_string()))?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// The scenario serialized as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario is serializable")
    }

    /// Validates the scenario: known scale, positive stride, claims
    /// well-formed, and **no non-finite number anywhere** — the serde shim
    /// deserializes a missing numeric field as NaN, so a NaN here almost
    /// always means a typo'd or missing field in the JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ConformanceError::InvalidScenario`] describing the first
    /// problem found.
    pub fn validate(&self) -> Result<()> {
        if Self::base_config(&self.scale).is_none() {
            return Err(ConformanceError::InvalidScenario {
                what: format!("unknown scale `{}` (want small|medium|paper)", self.scale),
            });
        }
        if self.day_stride == 0 {
            return Err(ConformanceError::InvalidScenario {
                what: "day_stride must be ≥ 1".into(),
            });
        }
        if self.claims.is_empty() {
            return Err(ConformanceError::InvalidScenario { what: "no claims".into() });
        }
        for spec in &self.claims {
            if !(0.0..=1.0).contains(&spec.min_recovery) {
                return Err(ConformanceError::InvalidScenario {
                    what: format!("claim `{}`: min_recovery outside [0, 1]", spec.name),
                });
            }
            if let Claim::MixShare { category, .. } = &spec.claim {
                if !matches!(category.as_str(), "software" | "hardware" | "boot") {
                    return Err(ConformanceError::InvalidScenario {
                        what: format!("claim `{}`: unknown category `{category}`", spec.name),
                    });
                }
            }
            for w in claim_workloads(&spec.claim) {
                if parse_workload(w).is_none() {
                    return Err(ConformanceError::InvalidScenario {
                        what: format!("claim `{}`: unknown workload `{w}`", spec.name),
                    });
                }
            }
        }
        check_finite(&serde_json::to_value(self), "scenario")?;
        Ok(())
    }

    /// Builds the fleet configuration with the scenario's effects applied.
    ///
    /// # Errors
    ///
    /// Returns [`ConformanceError::Sim`] if the resulting config fails the
    /// simulator's validation.
    pub fn fleet_config(&self) -> Result<FleetConfig> {
        let mut config = Self::base_config(&self.scale).ok_or_else(|| {
            ConformanceError::InvalidScenario { what: format!("unknown scale `{}`", self.scale) }
        })?;
        let e = &self.effects;
        if !e.age_bathtub {
            config.hazard.ablate_age_bathtub();
        }
        if !e.environment {
            config.hazard.ablate_environment();
        }
        if !e.calendar {
            config.hazard.ablate_calendar();
        }
        if !e.bursts {
            config.hazard.ablate_bursts();
        }
        config.hazard.sku_spread = e.sku_spread;
        config.hazard.disk_hot_threshold_f += e.hot_threshold_shift_f;
        if e.corruption_rate > 0.0 {
            config.corruption = CorruptionConfig::with_total_rate(e.corruption_rate);
        }
        config.validate()?;
        Ok(config)
    }

    /// The seed sweep for an `n`-seed run: `seed_base .. seed_base + n`.
    ///
    /// # Errors
    ///
    /// Returns [`ConformanceError::InvalidScenario`] if the sweep would run
    /// past `u64::MAX`.
    pub fn seeds(&self, n: usize) -> Result<Vec<u64>> {
        (0..n as u64)
            .map(|i| {
                self.seed_base.checked_add(i).ok_or_else(|| ConformanceError::InvalidScenario {
                    what: format!("seed_base {} + {n} seeds overflows u64", self.seed_base),
                })
            })
            .collect()
    }

    fn base_config(scale: &str) -> Option<FleetConfig> {
        match scale {
            "small" => Some(FleetConfig::small()),
            "medium" => Some(FleetConfig::medium()),
            "paper" => Some(FleetConfig::paper_scale()),
            _ => None,
        }
    }
}

/// Workload labels referenced by a claim, for validation.
fn claim_workloads(claim: &Claim) -> Vec<&str> {
    match claim {
        Claim::SfOverprovision { workload, .. }
        | Claim::MfSfGap { workload, .. }
        | Claim::TcoSavings { workload, .. } => vec![workload.as_str()],
        Claim::WorkloadExtremes { highest, lowest } => {
            vec![highest.as_str(), lowest.as_str()]
        }
        _ => Vec::new(),
    }
}

/// Parses a `W1`–`W7` label.
pub fn parse_workload(label: &str) -> Option<Workload> {
    Workload::ALL.into_iter().find(|w| w.to_string() == label)
}

/// Rejects any non-finite number in a serialized value tree.
fn check_finite(value: &Value, path: &str) -> Result<()> {
    match value {
        Value::F64(v) if !v.is_finite() => Err(ConformanceError::InvalidScenario {
            what: format!("non-finite number at {path} (missing or misspelled field?)"),
        }),
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                check_finite(item, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        Value::Object(pairs) => {
            for (key, item) in pairs {
                check_finite(item, &format!("{path}.{key}"))?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> Scenario {
        Scenario {
            name: "t".into(),
            description: "d".into(),
            scale: "small".into(),
            day_stride: 1,
            seed_base: 1,
            effects: EffectToggles::all_on(),
            claims: vec![ClaimSpec {
                name: "region_gap".into(),
                claim: Claim::RegionGap { min_dc1_over_dc2: 1.0 },
                expect: Expect::Present,
                min_recovery: 1.0,
                derivation: "unit test".into(),
            }],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let s = minimal();
        let text = s.to_json();
        let back = Scenario::from_json(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn default_toggles_reproduce_base_config() {
        let s = minimal();
        let config = s.fleet_config().unwrap();
        assert_eq!(config, FleetConfig::small());
    }

    #[test]
    fn ablations_and_shifts_apply() {
        let mut s = minimal();
        s.effects.age_bathtub = false;
        s.effects.sku_spread = 0.0;
        s.effects.hot_threshold_shift_f = -5.0;
        s.effects.corruption_rate = 0.02;
        let config = s.fleet_config().unwrap();
        assert_eq!(config.hazard.infant_scale, 0.0);
        assert_eq!(config.hazard.sku_spread, 0.0);
        assert_eq!(config.hazard.disk_hot_threshold_f, 73.0);
        assert!(config.corruption.is_enabled());
    }

    #[test]
    fn validation_rejects_nan_and_unknowns() {
        let mut s = minimal();
        s.effects.sku_spread = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = minimal();
        s.scale = "galactic".into();
        assert!(s.validate().is_err());
        let mut s = minimal();
        s.claims[0].min_recovery = 1.5;
        assert!(s.validate().is_err());
        let mut s = minimal();
        s.claims[0].claim = Claim::MixShare { category: "quantum".into(), lo: 0.0, hi: 1.0 };
        assert!(s.validate().is_err());
    }

    #[test]
    fn missing_numeric_field_is_caught() {
        // Drop `sku_spread` from the JSON: the serde shim yields NaN, and
        // validation must catch it rather than silently flattening SKUs.
        let text = minimal().to_json().replace("\"sku_spread\": 1.0,", "");
        let err = Scenario::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn seed_sweep_overflow_is_an_error() {
        let mut s = minimal();
        s.seed_base = u64::MAX;
        assert_eq!(s.seeds(1).unwrap(), vec![u64::MAX]);
        assert!(matches!(s.seeds(2), Err(ConformanceError::InvalidScenario { .. })));
    }

    #[test]
    fn workload_labels_parse() {
        assert_eq!(parse_workload("W6"), Some(Workload::W6));
        assert_eq!(parse_workload("W9"), None);
    }
}
