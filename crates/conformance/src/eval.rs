//! Per-seed claim evaluation.
//!
//! A [`SeedRun`] owns one simulation output and lazily caches the analysis
//! tables the scenario's claims read; [`SeedRun::evaluate`] turns a
//! [`Claim`] into a [`Measurement`] — an effect-size value plus pass/fail
//! against the claim's envelope. Everything here is a pure function of
//! (scenario, seed), so the power runner can fan seeds out across threads
//! and still aggregate deterministically.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rainshine_core::dataset::{rack_day_table, FaultFilter};
use rainshine_core::q1::{provision_servers, ProvisionParams, ServerProvisioning};
use rainshine_core::q3::{dc_subset, env_analysis, EnvAnalysis};
use rainshine_core::tco::TcoModel;
use rainshine_core::{evidence, q1, q2};
use rainshine_dcsim::{Simulation, SimulationOutput};
use rainshine_telemetry::frame::Frame;
use rainshine_telemetry::ids::Workload;
use rainshine_telemetry::metrics::{self, SpatialGranularity};
use rainshine_telemetry::rma::{FaultKind, HardwareFault};
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::TimeGranularity;

use crate::scenario::{parse_workload, Claim, Scenario};
use crate::Result;

/// One claim evaluated on one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The claim's effect-size measurement (NaN when unmeasurable).
    pub value: f64,
    /// Whether the claim's condition held.
    pub pass: bool,
    /// Whether evaluation errored (an errored seed never counts as
    /// recovered, for either expectation).
    pub error: bool,
    /// Deterministic human-readable detail.
    pub detail: String,
}

impl Measurement {
    fn ok(value: f64, pass: bool, detail: String) -> Self {
        Measurement { value, pass, error: false, detail }
    }

    fn err(detail: String) -> Self {
        Measurement { value: f64::NAN, pass: false, error: true, detail }
    }
}

/// Rack-day table cache key: fault filter × day stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TableKind {
    AllHardware(usize),
    Disk(usize),
}

/// Environment-analysis memo key: DC label, table stride, and the control
/// tree's `min_split`, `min_leaf` and `cp` bits.
type EnvKey = (String, usize, usize, usize, u64);

/// One simulated seed with lazily built analysis tables, and the analyses
/// several claims share computed once.
pub struct SeedRun {
    /// The seed that produced [`Self::output`].
    pub seed: u64,
    /// The simulation output all claims read.
    pub output: SimulationOutput,
    day_stride: usize,
    tables: RefCell<BTreeMap<TableKind, Rc<Frame>>>,
    env: RefCell<BTreeMap<EnvKey, Rc<EnvAnalysis>>>,
    provisioning: RefCell<BTreeMap<(Workload, u64), Rc<ServerProvisioning>>>,
}

impl SeedRun {
    /// Simulates `scenario` at `seed`. The per-run simulation is forced
    /// sequential — the power runner parallelizes across seeds instead.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ConformanceError`] if the scenario's config is
    /// invalid.
    pub fn new(scenario: &Scenario, seed: u64) -> Result<SeedRun> {
        let mut config = scenario.fleet_config()?;
        config.parallelism = rainshine_parallel::Parallelism::Sequential;
        let output = Simulation::new(config, seed).run();
        Ok(SeedRun::from_output(seed, output, scenario.day_stride))
    }

    /// Wraps an existing simulation output (the caller picked the stride).
    pub fn from_output(seed: u64, output: SimulationOutput, day_stride: usize) -> SeedRun {
        SeedRun {
            seed,
            output,
            day_stride,
            tables: RefCell::new(BTreeMap::new()),
            env: RefCell::new(BTreeMap::new()),
            provisioning: RefCell::new(BTreeMap::new()),
        }
    }

    fn table(&self, kind: TableKind) -> std::result::Result<Rc<Frame>, String> {
        if let Some(t) = self.tables.borrow().get(&kind) {
            return Ok(Rc::clone(t));
        }
        let (filter, stride) = match kind {
            TableKind::AllHardware(s) => (FaultFilter::AllHardware, s),
            TableKind::Disk(s) => (FaultFilter::Component(HardwareFault::Disk), s),
        };
        let table = rack_day_table(&self.output, filter, stride)
            .map(Rc::new)
            .map_err(|e| format!("table build failed: {e}"))?;
        self.tables.borrow_mut().insert(kind, Rc::clone(&table));
        Ok(table)
    }

    fn hw_table(&self) -> std::result::Result<Rc<Frame>, String> {
        self.table(TableKind::AllHardware(self.day_stride))
    }

    /// Evaluates one claim against this seed's output.
    pub fn evaluate(&self, claim: &Claim) -> Measurement {
        match self.try_evaluate(claim) {
            Ok(m) => m,
            Err(detail) => Measurement::err(detail),
        }
    }

    fn try_evaluate(&self, claim: &Claim) -> std::result::Result<Measurement, String> {
        match claim {
            Claim::AgeBathtub { min_young_over_mid } => {
                let table = self.hw_table()?;
                let rows = evidence::by_age(&table).map_err(|e| e.to_string())?;
                let young = series_mean(&rows, "<5")?;
                let mid = series_mean(&rows, "25-30")?;
                let value = young / mid;
                Ok(Measurement::ok(
                    value,
                    value > *min_young_over_mid,
                    format!("young/mid = {value:.3} (young {young:.4}, mid {mid:.4})"),
                ))
            }
            Claim::RegionGap { min_dc1_over_dc2 } => {
                let table = self.hw_table()?;
                let rows = evidence::by_region(&table).map_err(|e| e.to_string())?;
                let dc1_min = rows
                    .iter()
                    .filter(|r| r.label.starts_with("DC1"))
                    .map(|r| r.mean)
                    .fold(f64::INFINITY, f64::min);
                let dc2_max = rows
                    .iter()
                    .filter(|r| r.label.starts_with("DC2"))
                    .map(|r| r.mean)
                    .fold(0.0f64, f64::max);
                if !dc1_min.is_finite() || dc2_max <= 0.0 {
                    return Err("missing DC1 or DC2 regions".into());
                }
                let value = dc1_min / dc2_max;
                Ok(Measurement::ok(
                    value,
                    value > *min_dc1_over_dc2,
                    format!("DC1 min / DC2 max = {value:.3}"),
                ))
            }
            Claim::WeekdaySpread { lo, hi, weekdays_over_weekends } => {
                let table = self.hw_table()?;
                let rows = evidence::by_day_of_week(&table, 0).map_err(|e| e.to_string())?;
                let max = rows.iter().map(|r| r.mean).fold(0.0f64, f64::max);
                let min = rows.iter().map(|r| r.mean).fold(f64::INFINITY, f64::min);
                if !min.is_finite() || min <= 0.0 {
                    return Err("empty day-of-week series".into());
                }
                let value = max / min;
                let mut pass = (*lo..=*hi).contains(&value);
                if *weekdays_over_weekends {
                    let mean_of = |label: &str| series_mean(&rows, label);
                    for weekday in ["Mon", "Tue", "Wed", "Thu", "Fri"] {
                        for weekend in ["Sun", "Sat"] {
                            pass &= mean_of(weekday)? > mean_of(weekend)?;
                        }
                    }
                }
                Ok(Measurement::ok(value, pass, format!("weekday spread max/min = {value:.3}")))
            }
            Claim::SeasonalLift { min_h2_over_h1 } => {
                let table = self.hw_table()?;
                let rows = evidence::by_month(&table, 0).map_err(|e| e.to_string())?;
                let half = |months: &[&str]| {
                    let vals: Vec<f64> = rows
                        .iter()
                        .filter(|r| months.contains(&r.label.as_str()))
                        .map(|r| r.mean)
                        .collect();
                    vals.iter().sum::<f64>() / vals.len().max(1) as f64
                };
                let h1 = half(&["Jan", "Feb", "Mar", "Apr", "May", "Jun"]);
                let h2 = half(&["Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]);
                if h1 <= 0.0 {
                    return Err("empty first-half month series".into());
                }
                let value = h2 / h1;
                Ok(Measurement::ok(value, value > *min_h2_over_h1, format!("H2/H1 = {value:.3}")))
            }
            Claim::LowHumidityLift { min_dry_over_mid } => {
                let table = self.hw_table()?;
                let rows = evidence::by_rh_bin(&table).map_err(|e| e.to_string())?;
                let dry = series_mean(&rows, "20-30")?;
                let mid = series_mean(&rows, "40-50")?;
                if mid <= 0.0 {
                    return Err("empty 40-50 RH bin".into());
                }
                let value = dry / mid;
                Ok(Measurement::ok(
                    value,
                    value > *min_dry_over_mid,
                    format!("dry/mid RH ratio = {value:.3}"),
                ))
            }
            Claim::WorkloadExtremes { highest, lowest } => {
                let table = self.hw_table()?;
                let rows = evidence::by_workload(&table).map_err(|e| e.to_string())?;
                let hi = series_mean(&rows, highest)?;
                let lo = series_mean(&rows, lowest)?;
                let is_max = rows.iter().all(|r| r.label == *highest || hi >= r.mean);
                let is_min = rows.iter().all(|r| r.label == *lowest || lo <= r.mean);
                if lo <= 0.0 {
                    return Err(format!("{lowest} has zero mean"));
                }
                let value = hi / lo;
                Ok(Measurement::ok(
                    value,
                    is_max && is_min,
                    format!("{highest}/{lowest} = {value:.3}, extremes hold: {}", is_max && is_min),
                ))
            }
            Claim::DriverImportance { cart, min_planted_share, max_week_share } => {
                let table = self.hw_table()?;
                let ds = rainshine_cart::dataset::CartDataset::regression(
                    &table,
                    columns::FAILURE_RATE,
                    &[
                        columns::SKU,
                        columns::WORKLOAD,
                        columns::DATACENTER,
                        columns::AGE_MONTHS,
                        columns::TEMPERATURE_F,
                        columns::RATED_POWER_KW,
                        columns::WEEK,
                    ],
                )
                .map_err(|e| e.to_string())?;
                let tree = rainshine_cart::tree::Tree::fit(&ds, &cart.params())
                    .map_err(|e| e.to_string())?;
                let importance = tree.variable_importance();
                let score = |name: &str| {
                    importance.iter().find(|(n, _)| n == name).map(|(_, s)| *s).unwrap_or(0.0)
                };
                let planted =
                    score(columns::SKU) + score(columns::WORKLOAD) + score(columns::DATACENTER);
                let week = score(columns::WEEK);
                Ok(Measurement::ok(
                    planted,
                    planted > *min_planted_share && week < *max_week_share,
                    format!("planted share {planted:.1}, week share {week:.1}"),
                ))
            }
            Claim::BurstLotTails { min_lot_over_quiet } => {
                let out = &self.output;
                let hw = out.hardware_tickets();
                let mu = metrics::mu(
                    &hw,
                    SpatialGranularity::Rack,
                    TimeGranularity::Daily,
                    out.config.start,
                    out.config.end,
                );
                let windows = &out.config.hazard.burst_bad_lot_windows;
                let in_lot = |day: i64| windows.iter().any(|&(lo, hi)| (lo..=hi).contains(&day));
                let mut lot_peaks = Vec::new();
                let mut quiet_peaks = Vec::new();
                for rack in &out.fleet.racks {
                    let key = SpatialGranularity::Rack.key(&rack.server_location(0));
                    let peak =
                        mu.get(&key).map(|s| s.max() as f64).unwrap_or(0.0) / rack.servers as f64;
                    if in_lot(rack.commissioned_day) {
                        lot_peaks.push(peak);
                    } else {
                        quiet_peaks.push(peak);
                    }
                }
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
                let quiet = mean(&quiet_peaks);
                if quiet <= 0.0 {
                    return Err("quiet cohorts have zero peak".into());
                }
                let value = mean(&lot_peaks) / quiet;
                Ok(Measurement::ok(
                    value,
                    value > *min_lot_over_quiet,
                    format!("lot/quiet peak ratio = {value:.3}"),
                ))
            }
            Claim::MfSkuRatio { cart, table_stride, sku_hi, sku_lo, lo, hi } => {
                let table = self.table(TableKind::AllHardware(*table_stride))?;
                let mf = q2::mf_comparison(&self.output, &table, &cart.params())
                    .map_err(|e| e.to_string())?;
                let value = mf
                    .avg_ratio(sku_hi, sku_lo)
                    .ok_or_else(|| format!("{sku_hi} or {sku_lo} missing from MF levels"))?;
                Ok(Measurement::ok(
                    value,
                    (*lo..=*hi).contains(&value),
                    format!("MF {sku_hi}/{sku_lo} = {value:.3}"),
                ))
            }
            Claim::TempThreshold { cart, table_stride, dc, lo_f, hi_f, min_hot_over_cool } => {
                let r = self.env_analysis_for(dc, *table_stride, cart)?;
                // The tree may split on a spurious shallow temperature rule
                // before the planted one, so scan every discovered
                // temperature rule: prefer the strongest one inside the
                // envelope, falling back to the strongest overall so the
                // failure detail still names a threshold.
                let temp_rules: Vec<_> = r
                    .discovered
                    .iter()
                    .filter(|rule| rule.feature == columns::TEMPERATURE_F)
                    .collect();
                let best = |in_band: bool| {
                    temp_rules
                        .iter()
                        .filter(|rule| !in_band || (*lo_f..=*hi_f).contains(&rule.threshold))
                        .max_by(|a, b| a.improvement.total_cmp(&b.improvement))
                        .copied()
                };
                let Some(rule) = best(true).or_else(|| best(false)) else {
                    return Ok(Measurement::ok(
                        f64::NAN,
                        false,
                        format!("no temperature rule discovered in {dc}"),
                    ));
                };
                let value = rule.threshold;
                let disk = self.table(TableKind::Disk(*table_stride))?;
                let step = hot_cool_step(&disk, dc, value)?;
                Ok(Measurement::ok(
                    value,
                    (*lo_f..=*hi_f).contains(&value) && step >= *min_hot_over_cool,
                    format!("threshold {value:.1}F, hot/cool step {step:.2}"),
                ))
            }
            Claim::EnvRules { cart, table_stride, dc, min_rules } => {
                let r = self.env_analysis_for(dc, *table_stride, cart)?;
                let value = r.discovered.len() as f64;
                Ok(Measurement::ok(
                    value,
                    r.discovered.len() >= *min_rules,
                    format!("{} environmental rule(s) in {dc}", r.discovered.len()),
                ))
            }
            Claim::SfOverprovision { workload, sla, lo_pct, hi_pct } => {
                let r = self.provision(workload, *sla)?;
                let value = r.sf.overprovision_pct;
                Ok(Measurement::ok(
                    value,
                    (*lo_pct..=*hi_pct).contains(&value),
                    format!("SF overprovision {value:.1}% for {workload}"),
                ))
            }
            Claim::MfSfGap { workload, sla, min_gap_pct } => {
                let r = self.provision(workload, *sla)?;
                let value = r.sf.overprovision_pct - r.mf.overprovision_pct;
                Ok(Measurement::ok(
                    value,
                    value >= *min_gap_pct,
                    format!(
                        "SF-MF gap {value:.1} points (SF {:.1}, MF {:.1})",
                        r.sf.overprovision_pct, r.mf.overprovision_pct
                    ),
                ))
            }
            Claim::MixShare { category, lo, hi } => {
                let tp = self.output.true_positives();
                let total = tp.len() as f64;
                if total == 0.0 {
                    return Err("no true-positive tickets".into());
                }
                let matched = tp
                    .iter()
                    .filter(|t| match category.as_str() {
                        "software" => matches!(t.fault, FaultKind::Software(_)),
                        "hardware" => t.fault.is_hardware(),
                        _ => matches!(t.fault, FaultKind::Boot(_)),
                    })
                    .count() as f64;
                let value = matched / total;
                Ok(Measurement::ok(
                    value,
                    (*lo..=*hi).contains(&value),
                    format!("{category} share {value:.3}"),
                ))
            }
            Claim::TcoSavings { workload, sla, lo, hi } => {
                let r = self.provision(workload, *sla)?;
                let value = q1::tco_savings(&r, &TcoModel::default());
                Ok(Measurement::ok(
                    value,
                    (*lo..=*hi).contains(&value),
                    format!("TCO savings {value:.3} for {workload}"),
                ))
            }
        }
    }

    /// Fig. 18's analysis of `dc` on the disk table at `stride`, computed
    /// once per (DC, stride, control-tree settings) and shared by the claims
    /// that read it.
    fn env_analysis_for(
        &self,
        dc: &str,
        stride: usize,
        cart: &crate::scenario::CartSpec,
    ) -> std::result::Result<Rc<EnvAnalysis>, String> {
        let key = (dc.to_owned(), stride, cart.min_split, cart.min_leaf, cart.cp.to_bits());
        if let Some(r) = self.env.borrow().get(&key) {
            return Ok(Rc::clone(r));
        }
        // The DC subset is dropped once the analysis is done; claims that
        // need the DC's rows again read them from the cached disk table.
        let disk = self.table(TableKind::Disk(stride))?;
        let subset = dc_subset(&disk, dc).map_err(|e| e.to_string())?;
        let analysis =
            Rc::new(env_analysis(dc, &subset, &cart.params()).map_err(|e| e.to_string())?);
        self.env.borrow_mut().insert(key, Rc::clone(&analysis));
        Ok(analysis)
    }

    /// Daily server provisioning for `workload` at `sla`, computed once per
    /// (workload, SLA) and shared by the claims that read it.
    fn provision(
        &self,
        workload: &str,
        sla: f64,
    ) -> std::result::Result<Rc<ServerProvisioning>, String> {
        let workload = parse_workload(workload).ok_or_else(|| format!("bad label {workload}"))?;
        let key = (workload, sla.to_bits());
        if let Some(r) = self.provisioning.borrow().get(&key) {
            return Ok(Rc::clone(r));
        }
        let params = ProvisionParams::new(sla, TimeGranularity::Daily);
        let r =
            Rc::new(provision_servers(&self.output, workload, &params).map_err(|e| e.to_string())?);
        self.provisioning.borrow_mut().insert(key, Rc::clone(&r));
        Ok(r)
    }
}

/// Mean of the labelled series row, or an error naming the missing label.
fn series_mean(rows: &[evidence::SeriesRow], label: &str) -> std::result::Result<f64, String> {
    rows.iter()
        .find(|r| r.label == label)
        .map(|r| r.mean)
        .ok_or_else(|| format!("series label `{label}` missing"))
}

/// Raw hot/cool failure-rate step of `dc`'s rows of the rack-day `table`
/// at `threshold_f`, mirroring the Fig. 18 grouping in
/// `q3::env_analysis` but at an arbitrary threshold so the step can be
/// checked for whichever discovered rule the claim selected.
fn hot_cool_step(table: &Frame, dc: &str, threshold_f: f64) -> std::result::Result<f64, String> {
    let dc_code = table
        .dictionary(columns::DATACENTER)
        .map_err(|e| e.to_string())?
        .code_of(dc)
        .ok_or_else(|| format!("no rows for {dc}"))?;
    let dcs = table.nominal_codes(columns::DATACENTER).map_err(|e| e.to_string())?;
    let y = table.continuous(columns::FAILURE_RATE).map_err(|e| e.to_string())?;
    let temp = table.continuous(columns::TEMPERATURE_F).map_err(|e| e.to_string())?;
    let (mut cool_sum, mut cool_n, mut hot_sum, mut hot_n) = (0.0_f64, 0u64, 0.0_f64, 0u64);
    for i in 0..table.rows() {
        if dcs[i] != dc_code || !temp[i].is_finite() || !y[i].is_finite() {
            continue;
        }
        if temp[i] <= threshold_f {
            cool_sum += y[i];
            cool_n += 1;
        } else {
            hot_sum += y[i];
            hot_n += 1;
        }
    }
    if cool_n == 0 || hot_n == 0 {
        return Err(format!("threshold {threshold_f:.1}F leaves an empty hot or cool group"));
    }
    Ok((hot_sum / hot_n as f64) / (cool_sum / cool_n as f64).max(1e-12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CartSpec, Claim, EffectToggles, Scenario};
    use crate::scenario::{ClaimSpec, Expect};

    fn small_scenario() -> Scenario {
        Scenario {
            name: "unit".into(),
            description: "eval unit tests".into(),
            scale: "small".into(),
            day_stride: 2,
            seed_base: 5,
            effects: EffectToggles::all_on(),
            claims: vec![ClaimSpec {
                name: "region_gap".into(),
                claim: Claim::RegionGap { min_dc1_over_dc2: 1.0 },
                expect: Expect::Present,
                min_recovery: 1.0,
                derivation: "unit".into(),
            }],
        }
    }

    #[test]
    fn evaluates_cheap_claims_on_a_small_fleet() {
        let run = SeedRun::new(&small_scenario(), 5).unwrap();
        let m = run.evaluate(&Claim::RegionGap { min_dc1_over_dc2: 0.5 });
        assert!(!m.error, "{}", m.detail);
        assert!(m.value.is_finite());
        let m = run.evaluate(&Claim::MixShare { category: "software".into(), lo: 0.0, hi: 1.0 });
        assert!(!m.error && m.pass, "{}", m.detail);
        // Bad workload label surfaces as an error, not a panic.
        let m = run.evaluate(&Claim::SfOverprovision {
            workload: "W99".into(),
            sla: 1.0,
            lo_pct: 0.0,
            hi_pct: 1000.0,
        });
        assert!(m.error);
        assert!(m.value.is_nan());
    }

    #[test]
    fn table_cache_reuses_instances() {
        let run = SeedRun::new(&small_scenario(), 5).unwrap();
        let a = run.hw_table().unwrap();
        let b = run.hw_table().unwrap();
        assert!(Rc::ptr_eq(&a, &b));
        let _ = CartSpec { min_split: 8, min_leaf: 4, cp: 0.01 };
    }

    #[test]
    fn shared_analyses_are_computed_once_per_seed() {
        let run = SeedRun::new(&small_scenario(), 5).unwrap();
        let cart = CartSpec { min_split: 200, min_leaf: 100, cp: 0.002 };
        let a = run.env_analysis_for("DC1", 2, &cart).unwrap();
        assert!(Rc::ptr_eq(&a, &run.env_analysis_for("DC1", 2, &cart).unwrap()));
        let looser = CartSpec { cp: 0.001, ..cart };
        assert!(!Rc::ptr_eq(&a, &run.env_analysis_for("DC1", 2, &looser).unwrap()));
        assert!(!Rc::ptr_eq(&a, &run.env_analysis_for("DC2", 2, &cart).unwrap()));
        let p = run.provision("W6", 1.0).unwrap();
        assert!(Rc::ptr_eq(&p, &run.provision("W6", 1.0).unwrap()));
        assert!(!Rc::ptr_eq(&p, &run.provision("W6", 0.95).unwrap()));
    }
}
