//! Q2 — SKU reliability ranking (Figs. 14–15) and procurement TCO
//! scenarios.
//!
//! The single-factor (SF) view histogramms raw failure rates per SKU; the
//! multi-factor (MF) view normalizes away the other observed factors
//! (`λ ~ SKU, N(DC), N(RatedPower), N(Workload), N(Age), N(Temperature)`)
//! using the stratified partial-dependence machinery of
//! [`rainshine_cart::pdp`]. In the simulator's ground truth S2's intrinsic
//! hazard is exactly 4× S4's, but its placement (hot DC1 regions, W2
//! workload) inflates the SF ratio far beyond that — the paper's
//! cautionary tale.

use rainshine_cart::params::CartParams;
use rainshine_cart::pdp::{stratified_effect_nominal, StratifiedEffect};
use rainshine_dcsim::topology::RackInfo;
use rainshine_dcsim::SimulationOutput;
use rainshine_stats::running::Welford;
use rainshine_telemetry::frame::Frame;
use rainshine_telemetry::ids::Sku;
use rainshine_telemetry::metrics::{self, SpatialGranularity};
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::TimeGranularity;

use crate::dataset::rack_table;
use crate::tco::TcoModel;
use crate::{AnalysisError, Result};

/// Control features normalized away in the MF comparison (the paper's
/// `N(DC), N(RatedPower), N(Workload), N(CommissionYear)` plus inlet
/// temperature, which our ground truth also confounds with placement).
pub const MF_CONTROLS: &[&str] = &[
    columns::DATACENTER,
    columns::REGION,
    columns::RATED_POWER_KW,
    columns::WORKLOAD,
    columns::AGE_MONTHS,
    columns::TEMPERATURE_F,
];

/// Single-factor reliability summary of one SKU (Fig. 14 bars).
#[derive(Debug, Clone, PartialEq)]
pub struct SkuReliability {
    /// SKU label.
    pub sku: String,
    /// Mean rack-day failure rate.
    pub avg_rate: f64,
    /// Standard deviation of the rate across the SKU's racks.
    pub avg_sd: f64,
    /// Mean (across racks) of the per-rack worst-window μ.
    pub peak_rate: f64,
    /// Standard deviation of the per-rack peaks.
    pub peak_sd: f64,
    /// Racks of this SKU.
    pub racks: usize,
}

/// One rack active in the span, with what the SF and MF comparisons read
/// of it.
struct ActiveRack<'a> {
    rack: &'a RackInfo,
    /// Days in service within the span.
    active_days: f64,
    /// Hardware tickets opened on the span's days.
    tickets: u32,
    /// Worst daily μ (the peak window's failed-server count).
    peak: f64,
}

/// The racks active in the span, in fleet order.
fn active_racks(output: &SimulationOutput) -> Vec<ActiveRack<'_>> {
    let (start, end) = (output.config.start, output.config.end);
    let (start_day, end_day) = (start.days() as i64, end.days() as i64);
    let hardware = output.hardware_tickets();
    let mu = metrics::mu(&hardware, SpatialGranularity::Rack, TimeGranularity::Daily, start, end);
    let span_days = start.days()..end.days();
    let fleet = &output.fleet;
    let mut tickets = vec![0u32; fleet.racks.len()];
    for t in hardware.iter().filter(|t| span_days.contains(&t.opened.days())) {
        if let Some(index) = fleet.index_of(t.location.rack) {
            tickets[index] += 1;
        }
    }
    fleet
        .racks
        .iter()
        .zip(tickets)
        .filter_map(|(rack, tickets)| {
            let active_days = (end_day - rack.commissioned_day.max(start_day)).max(0);
            (active_days > 0).then(|| ActiveRack {
                rack,
                active_days: active_days as f64,
                tickets,
                peak: mu.get(&rack.mu_key()).map_or(0.0, |s| s.max() as f64),
            })
        })
        .collect()
}

/// Single-factor comparison (Fig. 14): raw per-SKU average and peak failure
/// rates with across-rack standard deviations.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if none of `skus` has racks.
pub fn sf_comparison(output: &SimulationOutput, skus: &[Sku]) -> Result<Vec<SkuReliability>> {
    let racks = active_racks(output);
    // Mean daily hardware failure count over the rack's active days.
    let mean = |r: &ActiveRack| f64::from(r.tickets) / r.active_days;
    let mut out = Vec::new();
    for &sku in skus {
        let (mut ms, mut ps) = (Welford::default(), Welford::default());
        for r in racks.iter().filter(|r| r.rack.sku == sku) {
            ms.push(mean(r));
            ps.push(r.peak);
        }
        if ms.count() == 0 {
            continue;
        }
        out.push(SkuReliability {
            sku: sku.to_string(),
            avg_rate: ms.mean(),
            avg_sd: ms.sample_stddev(),
            peak_rate: ps.mean(),
            peak_sd: ps.sample_stddev(),
            racks: ms.count(),
        });
    }
    if out.is_empty() {
        return Err(AnalysisError::NoData { what: "no racks for requested SKUs".into() });
    }
    Ok(out)
}

/// Multi-factor comparison (Fig. 15): stratified effects of SKU on the
/// average rate (rack-day table) and on the per-rack peak (rack table).
#[derive(Debug, Clone, PartialEq)]
pub struct MfSkuComparison {
    /// Effect on the mean failure rate (`relative` ≈ intrinsic multiplier).
    pub avg: StratifiedEffect,
    /// Effect on the per-rack peak μ.
    pub peak: StratifiedEffect,
}

/// Runs the MF comparison on a prepared rack-day table (`table` must be a
/// rack-day analysis table; pass `day_stride > 1` upstream for speed).
///
/// The two effects are independent, so under
/// `output.config.parallelism` the average effect runs next to the peak
/// table's build and effect; the result is the same at any thread count.
///
/// # Errors
///
/// Propagates table/tree errors.
pub fn mf_comparison(
    output: &SimulationOutput,
    rack_day: &Frame,
    cart: &CartParams,
) -> Result<MfSkuComparison> {
    let sku_effect = |table: &Frame| {
        stratified_effect_nominal(table, columns::FAILURE_RATE, columns::SKU, MF_CONTROLS, cart)
    };
    let (avg, peak) = rainshine_parallel::join(
        output.config.parallelism,
        || sku_effect(rack_day),
        || {
            let racks = active_racks(output);
            let peak_table = rack_table(output, racks.iter().map(|r| (r.rack, r.peak)))?;
            Ok::<_, AnalysisError>(sku_effect(&peak_table)?)
        },
    );
    Ok(MfSkuComparison { avg: avg?, peak: peak? })
}

impl MfSkuComparison {
    /// MF-estimated ratio of average failure rates between two SKUs:
    /// the direct within-stratum contrast where the SKUs co-occur, falling
    /// back to the ratio of fitted level effects.
    pub fn avg_ratio(&self, a: &str, b: &str) -> Option<f64> {
        if let Some(r) = self.avg.direct_ratio(a, b) {
            return Some(r);
        }
        let get =
            |label: &str| self.avg.levels.iter().find(|l| l.level == label).map(|l| l.relative);
        match (get(a), get(b)) {
            (Some(x), Some(y)) if y > 0.0 => Some(x / y),
            _ => None,
        }
    }
}

/// One procurement scenario of the paper's Q2 TCO analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcurementScenario {
    /// Price of the reliable SKU relative to the baseline SKU.
    pub price_ratio: f64,
    /// TCO savings of buying the reliable SKU, per the SF estimate.
    pub sf_savings: f64,
    /// TCO savings per the MF estimate.
    pub mf_savings: f64,
}

/// Evaluates the S4-vs-S2 procurement decision under SF and MF failure-rate
/// estimates for each price ratio.
///
/// Both estimates anchor S4's failure rate at its raw value (S4 runs in a
/// benign environment, so its raw rate ≈ its intrinsic rate); they differ
/// in what they believe S2's rate would be — the raw 10×-ish ratio (SF) vs
/// the de-confounded ~4× ratio (MF).
pub fn procurement_scenarios(
    sf: &[SkuReliability],
    mf: &MfSkuComparison,
    tco: &TcoModel,
    price_ratios: &[f64],
    span_days: f64,
) -> Result<Vec<ProcurementScenario>> {
    let find = |label: &str| sf.iter().find(|r| r.sku == label);
    let (s2, s4) = match (find("S2"), find("S4")) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(AnalysisError::NoData { what: "need S2 and S4 in SF results".into() }),
    };
    // Failures per server over the horizon. Rates are per rack-day; divide
    // by a nominal compute rack size.
    let servers_per_rack = 43.0;
    let s4_per_server = s4.avg_rate * span_days / servers_per_rack;
    let sf_ratio = if s4.avg_rate > 0.0 { s2.avg_rate / s4.avg_rate } else { 1.0 };
    let mf_ratio = mf.avg_ratio("S2", "S4").unwrap_or(sf_ratio);
    // Spare fractions from peaks (per rack of ~43 servers).
    let s4_spare = s4.peak_rate / servers_per_rack;
    let sf_s2_spare = s2.peak_rate / servers_per_rack;
    let mf_peak_ratio = {
        let get =
            |label: &str| mf.peak.levels.iter().find(|l| l.level == label).map(|l| l.relative);
        match (get("S2"), get("S4")) {
            (Some(a), Some(b)) if b > 0.0 => a / b,
            _ => sf_ratio,
        }
    };
    let mf_s2_spare = (s4_spare * mf_peak_ratio).min(1.0);
    let mut out = Vec::new();
    for &ratio in price_ratios {
        let s2_price = 100.0;
        let s4_price = 100.0 * ratio;
        let sf_tco_s2 = tco.sku_tco(s2_price, sf_s2_spare, s4_per_server * sf_ratio);
        let mf_tco_s2 = tco.sku_tco(s2_price, mf_s2_spare, s4_per_server * mf_ratio);
        let tco_s4 = tco.sku_tco(s4_price, s4_spare, s4_per_server);
        out.push(ProcurementScenario {
            price_ratio: ratio,
            sf_savings: tco.sku_savings(tco_s4, sf_tco_s2),
            mf_savings: tco.sku_savings(tco_s4, mf_tco_s2),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{rack_day_table, FaultFilter};
    use rainshine_dcsim::{FleetConfig, Simulation};

    fn sim() -> SimulationOutput {
        Simulation::new(FleetConfig::medium(), 23).run()
    }

    #[test]
    fn sf_sees_inflated_s2_s4_gap() {
        let out = sim();
        let rows = sf_comparison(&out, &[Sku::S1, Sku::S2, Sku::S3, Sku::S4]).unwrap();
        let get = |l: &str| rows.iter().find(|r| r.sku == l).unwrap();
        let ratio = get("S2").avg_rate / get("S4").avg_rate;
        // Ground-truth intrinsic ratio is 4; confounding should inflate the
        // raw ratio well beyond it.
        assert!(ratio > 5.5, "raw SF ratio {ratio}");
        assert!(get("S2").peak_rate >= get("S4").peak_rate);
    }

    #[test]
    fn mf_recovers_intrinsic_ratio() {
        let out = sim();
        // Fine-grained control tree: at coarser settings (stride 3,
        // cp 0.003) the strata are too wide to absorb the workload/age
        // confounding and the recovered ratio swings 5–8 across seeds.
        let table = rack_day_table(&out, FaultFilter::AllHardware, 2).unwrap();
        let cart = CartParams::default().with_min_sizes(100, 50).with_cp(0.0005);
        let mf = mf_comparison(&out, &table, &cart).unwrap();
        let ratio = mf.avg_ratio("S2", "S4").expect("both SKUs present");
        assert!((2.8..5.5).contains(&ratio), "MF ratio {ratio} should be near the intrinsic 4x");
        // MF variance contraction vs SF (the paper's ~50% drop) is checked
        // at paper scale in the integration tests.
    }

    #[test]
    fn procurement_scenarios_flip_with_price() {
        let out = sim();
        let sf = sf_comparison(&out, &[Sku::S2, Sku::S4]).unwrap();
        let table = rack_day_table(&out, FaultFilter::AllHardware, 3).unwrap();
        let cart = CartParams::default().with_min_sizes(200, 100).with_cp(0.003);
        let mf = mf_comparison(&out, &table, &cart).unwrap();
        let scenarios = procurement_scenarios(
            &sf,
            &mf,
            &TcoModel::default(),
            &[1.0, 1.5],
            out.config.span_days() as f64,
        )
        .unwrap();
        assert_eq!(scenarios.len(), 2);
        // Equal price: both approaches favour S4.
        assert!(scenarios[0].sf_savings > 0.0);
        assert!(scenarios[0].mf_savings > 0.0);
        // SF always estimates larger savings than MF (it believes S2 is
        // worse than it is).
        for s in &scenarios {
            assert!(s.sf_savings > s.mf_savings, "{s:?}");
        }
        // Premium price: savings shrink for both.
        assert!(scenarios[1].sf_savings < scenarios[0].sf_savings);
        assert!(scenarios[1].mf_savings < scenarios[0].mf_savings);
    }

    #[test]
    fn missing_skus_error() {
        let out = sim();
        let sf = sf_comparison(&out, &[Sku::S1]).unwrap();
        let table = rack_day_table(&out, FaultFilter::AllHardware, 10).unwrap();
        let cart = CartParams::default();
        let mf = mf_comparison(&out, &table, &cart).unwrap();
        assert!(matches!(
            procurement_scenarios(&sf, &mf, &TcoModel::default(), &[1.0], 365.0),
            Err(AnalysisError::NoData { .. })
        ));
    }
}
