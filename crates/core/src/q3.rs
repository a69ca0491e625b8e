//! Q3 — environmental operating ranges (Figs. 16–18).
//!
//! The SF view bins failure rates by temperature (Figs. 16–17). The MF view
//! normalizes the non-environmental factors (age, SKU, workload, power)
//! via a control tree, then lets CART find temperature / relative-humidity
//! thresholds in the *normalized* disk-failure rate per DC — discovering
//! the paper's "above 78 °F and below 25 % RH" rule in DC1 and its absence
//! in DC2.

use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_cart::SplitRule;
use rainshine_stats::hist::Binner;
use rainshine_stats::running::Welford;
use rainshine_telemetry::frame::Frame;
use rainshine_telemetry::schema::columns;

use crate::evidence::{binned_rows, by_binned, SeriesRow};
use crate::{AnalysisError, Result};

/// The temperature bins of Figs. 16–17 (`<60`, `60-65`, `65-70`, `70-75`,
/// `>=75`).
fn fig16_binner() -> Result<Binner> {
    Ok(Binner::from_edges(vec![60.0, 65.0, 70.0, 75.0])?)
}

/// Fig. 16 / Fig. 17 — failure rate by operating-temperature bin. Pass an
/// all-hardware rack-day table for Fig. 16 or a disk-only table for
/// Fig. 17.
pub fn rate_by_temperature(table: &Frame) -> Result<Vec<SeriesRow>> {
    by_binned(table, columns::TEMPERATURE_F, &fig16_binner()?)
}

/// Fig. 17 — *per-disk* failure rate (failures per 1000 disk-days) by
/// operating-temperature bin.
///
/// Racks carry very different disk counts (storage SKUs have 3× a compute
/// SKU's), so the per-rack disk-failure rate confounds fleet composition
/// with temperature; normalizing per disk exposes the environmental trend
/// the paper shows.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] for `day_stride == 0` or
/// [`AnalysisError::NoData`] for an empty span.
pub fn disk_rate_by_temperature(
    output: &rainshine_dcsim::SimulationOutput,
    day_stride: usize,
) -> Result<Vec<SeriesRow>> {
    use crate::dataset::{checked_stride, FaultFilter, RackDayCounts};
    use rainshine_telemetry::rma::HardwareFault;

    let day_stride = checked_stride(day_stride)?;
    let counts = RackDayCounts::new(output, FaultFilter::Component(HardwareFault::Disk));
    let mut pairs = Vec::new();
    output.for_each_active_rack_day(day_stride, |index, rack, t, env| {
        // Sensor blackouts leave NaN cells; those rack-days cannot be
        // attributed to a temperature bin.
        if !env.temp_f.is_finite() {
            return;
        }
        let disks = (rack.servers * rack.sku_spec().disks_per_server).max(1) as f64;
        pairs.push((env.temp_f, 1000.0 * f64::from(counts.on(index, t.days())) / disks));
    });
    if pairs.is_empty() {
        return Err(AnalysisError::NoData { what: "no active rack-days".into() });
    }
    Ok(binned_rows(&fig16_binner()?, pairs))
}

/// Control features normalized before environmental threshold discovery.
pub const ENV_CONTROLS: &[&str] =
    &[columns::AGE_MONTHS, columns::SKU, columns::WORKLOAD, columns::RATED_POWER_KW];

/// Every column [`dc_subset`], [`env_analysis`] and [`setpoint_tradeoff`]
/// read: the datacenter, the [`ENV_CONTROLS`], temperature, RH and the
/// response. Subsetting a [`Frame::select`] projection onto these gathers
/// only what the analysis needs.
pub const ENV_ANALYSIS_COLUMNS: &[&str] = &[
    columns::DATACENTER,
    columns::AGE_MONTHS,
    columns::SKU,
    columns::WORKLOAD,
    columns::RATED_POWER_KW,
    columns::TEMPERATURE_F,
    columns::RELATIVE_HUMIDITY,
    columns::FAILURE_RATE,
];

/// A threshold rule discovered by the environment tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredRule {
    /// Feature split on (`temperature_f` or `relative_humidity`).
    pub feature: String,
    /// Discovered threshold.
    pub threshold: f64,
    /// Depth of the split in the environment tree (0 = root).
    pub depth: usize,
    /// Risk-decrease of the split (importance of the rule).
    pub improvement: f64,
}

/// Fig. 18's per-DC result.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvAnalysis {
    /// Datacenter label.
    pub dc: String,
    /// Mean disk failure rate for `T <= t*` rows.
    pub cool: SeriesGroup,
    /// Mean for `T > t*` rows.
    pub hot: SeriesGroup,
    /// Mean for `T > t*` and `RH < rh*` rows.
    pub hot_dry: SeriesGroup,
    /// Mean over all rows.
    pub all: SeriesGroup,
    /// The thresholds used for the grouping (discovered, or the defaults
    /// 78 °F / 25 % if the tree found no environmental split).
    pub temp_threshold: f64,
    /// RH threshold used.
    pub rh_threshold: f64,
    /// All environmental splits the tree found, in discovery order.
    pub discovered: Vec<DiscoveredRule>,
}

/// Mean/sd/n of one Fig. 18 group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesGroup {
    /// Mean failure rate of the group.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Rows in the group.
    pub n: usize,
}

/// The group of `values`; an empty group, or one holding a non-finite
/// value, is the NaN group with `n = 0`.
fn group_of(values: &[f64]) -> SeriesGroup {
    let mut acc = Welford::default();
    values.iter().for_each(|&v| acc.push(v));
    // `push` skips non-finite values, so a short count means one was seen.
    if acc.count() == 0 || acc.count() < values.len() {
        return SeriesGroup { mean: f64::NAN, sd: f64::NAN, n: 0 };
    }
    SeriesGroup { mean: acc.mean(), sd: acc.sample_stddev(), n: acc.count() }
}

/// Normalizes the response by the control-tree stratum means, returning a
/// two-feature (temperature, RH) table with the normalized response.
fn normalized_env_table(table: &Frame, cart: &CartParams) -> Result<Frame> {
    let ds = CartDataset::regression(table, columns::FAILURE_RATE, ENV_CONTROLS)?;
    let control_tree = Tree::fit(&ds, cart)?;
    let strata = control_tree.leaf_assignments(table)?;
    let y = table.continuous(columns::FAILURE_RATE)?;
    // Stratum (sum, count), indexed by leaf id (< `nodes().len()`).
    let mut sums = vec![(0.0f64, 0.0f64); control_tree.nodes().len()];
    for (i, &s) in strata.iter().enumerate() {
        let e = &mut sums[s];
        e.0 += y[i];
        e.1 += 1.0;
    }
    let normalized = strata
        .iter()
        .zip(y)
        .map(|(&s, &y)| {
            let (sum, n) = sums[s];
            let stratum_mean = sum / n;
            if stratum_mean > 0.0 {
                y / stratum_mean
            } else {
                0.0
            }
        })
        .collect();
    // Temperature and RH are the source frame's columns, shared, not copied.
    let env = table.select(&[
        columns::TEMPERATURE_F,
        columns::RELATIVE_HUMIDITY,
        columns::FAILURE_RATE,
    ])?;
    Ok(env.with_continuous(columns::FAILURE_RATE, normalized)?)
}

/// Extracts environmental threshold rules from a tree fitted on the
/// normalized (temperature, RH) table.
fn discover_rules(tree: &Tree) -> Vec<DiscoveredRule> {
    tree.nodes()
        .iter()
        .filter_map(|node| {
            node.rule.as_ref().and_then(|rule| match rule {
                SplitRule::ContinuousThreshold { feature, threshold, .. } => Some(DiscoveredRule {
                    feature: feature.clone(),
                    threshold: *threshold,
                    depth: node.depth,
                    improvement: node.improvement,
                }),
                _ => None,
            })
        })
        .collect()
}

/// Runs the Fig. 18 analysis for one DC's disk-failure rack-day table.
///
/// `table` must contain only that DC's rows (filter upstream with
/// [`Frame::filter_nominal`] + [`Frame::subset`]).
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] for an empty table, or any underlying
/// tree error.
pub fn env_analysis(dc_label: &str, table: &Frame, cart: &CartParams) -> Result<EnvAnalysis> {
    if table.is_empty() {
        return Err(AnalysisError::NoData { what: format!("no rows for {dc_label}") });
    }
    let normalized = normalized_env_table(table, cart)?;
    let env_ds = CartDataset::regression(
        &normalized,
        columns::FAILURE_RATE,
        &[columns::TEMPERATURE_F, columns::RELATIVE_HUMIDITY],
    )?;
    let env_tree = Tree::fit(&env_ds, cart)?;
    let mut discovered = discover_rules(&env_tree);
    discovered.sort_by(|a, b| a.depth.cmp(&b.depth).then(b.improvement.total_cmp(&a.improvement)));
    // Fallback when the tree finds no environmental split (the DC2 case):
    // split at the 75th percentile of observed temperature so the "hot"
    // group exists and its flatness is visible, rather than empty.
    let temp_values = table.continuous(columns::TEMPERATURE_F)?;
    let temp_threshold = discovered
        .iter()
        .find(|r| r.feature == columns::TEMPERATURE_F)
        .map(|r| r.threshold)
        .unwrap_or_else(|| {
            let finite: Vec<f64> = temp_values.iter().copied().filter(|t| t.is_finite()).collect();
            rainshine_stats::ecdf::quantile_interpolated(&finite, 0.75).unwrap_or(78.0)
        });
    let rh_threshold = discovered
        .iter()
        .find(|r| r.feature == columns::RELATIVE_HUMIDITY)
        .map(|r| r.threshold)
        .unwrap_or(25.0);

    // Fig. 18 groups on the *raw* table.
    let y = table.continuous(columns::FAILURE_RATE)?;
    let temp = table.continuous(columns::TEMPERATURE_F)?;
    let rh = table.continuous(columns::RELATIVE_HUMIDITY)?;
    let mut cool = Vec::new();
    let mut hot = Vec::new();
    let mut hot_dry = Vec::new();
    for i in 0..table.rows() {
        // Rows with no temperature reading (sensor blackout) cannot be
        // assigned to either side of the threshold.
        if !temp[i].is_finite() {
            continue;
        }
        if temp[i] <= temp_threshold {
            cool.push(y[i]);
        } else {
            hot.push(y[i]);
            if rh[i] < rh_threshold {
                hot_dry.push(y[i]);
            }
        }
    }
    Ok(EnvAnalysis {
        dc: dc_label.to_owned(),
        cool: group_of(&cool),
        hot: group_of(&hot),
        hot_dry: group_of(&hot_dry),
        all: group_of(y),
        temp_threshold,
        rh_threshold,
        discovered,
    })
}

/// One candidate temperature cap in a set-point trade-off study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetpointOption {
    /// Inlet temperature cap, °F (`f64::INFINITY` = no cap, free-running).
    pub cap_f: f64,
    /// Expected disk failures over the observed span under this cap.
    pub failures: f64,
    /// Extra cooling energy cost (relative units) to hold the cap over the
    /// span.
    pub cooling_cost: f64,
    /// Maintenance cost attributable to the failures.
    pub maintenance_cost: f64,
    /// Total of the two variable costs.
    pub total_cost: f64,
}

/// Parameters of the set-point trade-off model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetpointModel {
    /// Cost of removing one rack-degree-day of heat above the cap
    /// (mechanical-assist energy + water in an adiabatic facility).
    pub cooling_cost_per_degree_day: f64,
    /// Maintenance cost per disk failure (repair labor + drive).
    pub cost_per_failure: f64,
}

impl Default for SetpointModel {
    fn default() -> Self {
        SetpointModel { cooling_cost_per_degree_day: 0.02, cost_per_failure: 10.0 }
    }
}

/// The paper's closing Q3 remark made concrete: "while setting the
/// temperature and RH as identified by the MF can reduce failure rate …
/// it may in turn increase the OpEx from adhering to the temperature/RH
/// bounds. … a more extensive analysis (considering cost of environment
/// control) is required to minimize overall TCO."
///
/// For each candidate cap, rack-days observed above the cap are assumed to
/// be cooled down to it (paying
/// [`SetpointModel::cooling_cost_per_degree_day`] per degree of excess);
/// their expected failures are scaled by the **MF-normalized** temperature
/// response — the raw pooled rate-vs-temperature curve is composition
/// confounded (cool aisles hold the disk-dense storage racks), which is
/// exactly the single-factor trap the paper warns about. The normalized
/// response is made monotone (isotonic from below): physically, cooling a
/// rack cannot raise its temperature-driven failure rate. Returns one row
/// per candidate, cheapest total first.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] for an empty table.
pub fn setpoint_tradeoff(
    table: &Frame,
    caps_f: &[f64],
    model: &SetpointModel,
    cart: &CartParams,
) -> Result<Vec<SetpointOption>> {
    if table.is_empty() {
        return Err(AnalysisError::NoData { what: "empty table for setpoint study".into() });
    }
    let temp = table.continuous(columns::TEMPERATURE_F)?;
    let y = table.continuous(columns::FAILURE_RATE)?;
    // Relative (composition-normalized) response vs temperature in 2-degree
    // bins, from the control-tree-normalized table.
    let normalized = normalized_env_table(table, cart)?;
    let norm_y = normalized.continuous(columns::FAILURE_RATE)?;
    let lo = temp.iter().cloned().fold(f64::INFINITY, f64::min).floor();
    let hi = temp.iter().cloned().fold(f64::NEG_INFINITY, f64::max).ceil();
    let bins = (((hi - lo) / 2.0).ceil() as usize).max(1);
    let mut sums = vec![0.0f64; bins];
    let mut counts = vec![0.0f64; bins];
    let bin_of = |t: f64| (((t - lo) / 2.0) as usize).min(bins - 1);
    for (t, v) in temp.iter().zip(norm_y) {
        // NaN temperatures (sensor blackout) would alias into bin 0.
        if !t.is_finite() {
            continue;
        }
        sums[bin_of(*t)] += v;
        counts[bin_of(*t)] += 1.0;
    }
    // Fill empty bins from the left, then fit a weighted isotonic
    // (non-decreasing) curve so a noisy sparse bin cannot distort the
    // response. Empty bins get a token weight.
    let mut raw = vec![0.0f64; bins];
    let mut w = vec![1e-6f64; bins];
    let mut last = 1.0;
    for b in 0..bins {
        if counts[b] > 0.0 {
            last = sums[b] / counts[b];
            w[b] = counts[b];
        }
        raw[b] = last;
    }
    let rel: Vec<f64> = rainshine_stats::timeseries::isotonic_regression(&raw, &w)?
        .into_iter()
        .map(|v| v.max(1e-9))
        .collect();
    let rel_at = |t: f64| rel[bin_of(t)];
    let mut out = Vec::with_capacity(caps_f.len());
    for &cap in caps_f {
        let mut failures = 0.0;
        let mut degree_days = 0.0;
        for (t, v) in temp.iter().zip(y) {
            if *t > cap {
                failures += v * rel_at(cap) / rel_at(*t);
                degree_days += *t - cap;
            } else {
                failures += v;
            }
        }
        let cooling = degree_days * model.cooling_cost_per_degree_day;
        let maintenance = failures * model.cost_per_failure;
        out.push(SetpointOption {
            cap_f: cap,
            failures,
            cooling_cost: cooling,
            maintenance_cost: maintenance,
            total_cost: cooling + maintenance,
        });
    }
    out.sort_by(|a, b| a.total_cost.total_cmp(&b.total_cost));
    Ok(out)
}

/// Convenience: subsets a rack-day table to one DC's rows.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if the DC has no rows.
pub fn dc_subset(table: &Frame, dc_label: &str) -> Result<Frame> {
    let rows = table.filter_nominal(columns::DATACENTER, dc_label)?;
    if rows.is_empty() {
        return Err(AnalysisError::NoData { what: format!("no rows for {dc_label}") });
    }
    Ok(table.subset(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{rack_day_table, FaultFilter};
    use rainshine_dcsim::{FleetConfig, Simulation};
    use rainshine_telemetry::rma::HardwareFault;

    fn disk_table() -> Frame {
        // A full year so summer heat is in the data.
        let out = Simulation::new(FleetConfig::medium(), 31).run();
        rack_day_table(&out, FaultFilter::Component(HardwareFault::Disk), 1).unwrap()
    }

    #[test]
    fn fig17_shape_per_disk_rate_rises_with_temperature() {
        let out = Simulation::new(FleetConfig::medium(), 31).run();
        let rows = disk_rate_by_temperature(&out, 1).unwrap();
        assert!(rows.len() >= 3);
        let first = rows.first().unwrap().mean;
        let last = rows.last().unwrap().mean;
        assert!(last > first, "hot bins {last} should exceed cool bins {first}");
    }

    #[test]
    fn fig16_shape_per_rack_means_vary_less_than_within_group_sd() {
        // Fig. 16's message: grouped by temperature alone, the *means* vary
        // little relative to the within-group spread.
        let t = disk_table();
        let rows = rate_by_temperature(&t).unwrap();
        let means: Vec<f64> = rows.iter().map(|r| r.mean).collect();
        let spread = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_sd = rows.iter().map(|r| r.sd).fold(0.0, f64::max);
        assert!(spread < max_sd, "mean spread {spread} vs within-group sd {max_sd}");
    }

    #[test]
    fn dc1_discovers_temperature_threshold() {
        let t = disk_table();
        let dc1 = dc_subset(&t, "DC1").unwrap();
        let cart = CartParams::default().with_min_sizes(400, 200).with_cp(0.002);
        let r = env_analysis("DC1", &dc1, &cart).unwrap();
        // The planted threshold is 78F; discovery should land nearby.
        assert!(
            (73.0..=83.0).contains(&r.temp_threshold),
            "discovered {} (rules {:?})",
            r.temp_threshold,
            r.discovered
        );
        assert!(r.hot.mean > r.cool.mean, "hot {} > cool {}", r.hot.mean, r.cool.mean);
        assert!(r.hot_dry.mean >= r.hot.mean * 0.95, "hot+dry at least as bad as hot");
    }

    #[test]
    fn dc2_shows_no_meaningful_env_effect() {
        let t = disk_table();
        let dc2 = dc_subset(&t, "DC2").unwrap();
        let cart = CartParams::default().with_min_sizes(400, 200).with_cp(0.002);
        let r = env_analysis("DC2", &dc2, &cart).unwrap();
        // DC2's chilled-water loop never crosses the planted thresholds, so
        // whatever the tree finds, group means stay close together.
        if r.hot.n > 50 {
            let ratio = r.hot.mean / r.cool.mean.max(1e-9);
            assert!(ratio < 1.35, "DC2 hot/cool ratio {ratio}");
        }
    }

    #[test]
    fn setpoint_tradeoff_balances_cooling_against_failures() {
        let t = disk_table();
        let dc1 = dc_subset(&t, "DC1").unwrap();
        let model = SetpointModel::default();
        let caps = [70.0, 74.0, 78.0, 82.0, f64::INFINITY];
        let cart = CartParams::default().with_min_sizes(400, 200).with_cp(0.002);
        let rows = setpoint_tradeoff(&dc1, &caps, &model, &cart).unwrap();
        assert_eq!(rows.len(), caps.len());
        // Failures are monotone non-decreasing in the cap; cooling cost is
        // monotone non-increasing.
        let by_cap = |c: f64| rows.iter().find(|r| r.cap_f == c).unwrap();
        assert!(by_cap(70.0).failures <= by_cap(82.0).failures + 1e-9);
        assert!(by_cap(70.0).cooling_cost >= by_cap(82.0).cooling_cost);
        assert_eq!(by_cap(f64::INFINITY).cooling_cost, 0.0);
        // Results come back sorted by total cost, and every cost is finite.
        for w in rows.windows(2) {
            assert!(w[0].total_cost <= w[1].total_cost + 1e-9);
        }
        assert!(rows.iter().all(|r| r.total_cost.is_finite()));
        // With a high failure cost a sub-threshold cap must win (the
        // normalized response is flat below the planted 78 F threshold, so
        // 70/74/78 tie on failures and cooling cost breaks the tie); with
        // free failures, no cap must win.
        let expensive = SetpointModel { cost_per_failure: 1e6, ..SetpointModel::default() };
        let best = setpoint_tradeoff(&dc1, &caps, &expensive, &cart).unwrap();
        assert!(best[0].cap_f <= 78.0, "sub-threshold cap should win, got {:?}", best[0]);
        assert!(
            best[0].failures < by_cap(f64::INFINITY).failures,
            "capping below the threshold must save failures"
        );
        let free = SetpointModel { cost_per_failure: 0.0, ..SetpointModel::default() };
        let best = setpoint_tradeoff(&dc1, &caps, &free, &cart).unwrap();
        assert_eq!(best[0].cap_f, f64::INFINITY);
    }

    #[test]
    fn env_analysis_on_the_projection_matches_the_full_table() {
        assert!(ENV_CONTROLS.iter().all(|c| ENV_ANALYSIS_COLUMNS.contains(c)));
        let t = disk_table();
        let projected = t.select(ENV_ANALYSIS_COLUMNS).unwrap();
        let cart = CartParams::default().with_min_sizes(400, 200).with_cp(0.002);
        let caps = [74.0, 78.0, f64::INFINITY];
        let model = SetpointModel::default();
        for dc in ["DC1", "DC2"] {
            let (full, narrow) = (dc_subset(&t, dc).unwrap(), dc_subset(&projected, dc).unwrap());
            // Compared as text: an empty group's NaN mean is not `==` itself.
            assert_eq!(
                format!("{:?}", env_analysis(dc, &full, &cart).unwrap()),
                format!("{:?}", env_analysis(dc, &narrow, &cart).unwrap())
            );
            assert_eq!(
                format!("{:?}", setpoint_tradeoff(&full, &caps, &model, &cart).unwrap()),
                format!("{:?}", setpoint_tradeoff(&narrow, &caps, &model, &cart).unwrap())
            );
        }
    }

    #[test]
    fn dc_subset_errors_on_unknown() {
        let t = disk_table();
        assert!(matches!(dc_subset(&t, "DC9"), Err(AnalysisError::NoData { .. })));
    }

    #[test]
    fn env_analysis_rejects_empty() {
        let t = disk_table();
        let empty = t.subset(&[]);
        let cart = CartParams::default();
        assert!(matches!(env_analysis("DC1", &empty, &cart), Err(AnalysisError::NoData { .. })));
    }
}
