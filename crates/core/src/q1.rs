//! Q1 — spare provisioning (Figs. 10–13, Table IV).
//!
//! Three approaches, as in Section VI:
//!
//! * **Lower bound (LB)** — per-rack spares computed from that rack's own
//!   (future) μ data: unachievable in practice, the floor for comparison;
//! * **Single factor (SF)** — one spare *fraction* for every rack of a
//!   workload, from the pooled CDF of μ across all its racks;
//! * **Multi factor (MF)** — CART clusters racks by the Table III features,
//!   then provisions each cluster from its own pooled CDF.
//!
//! A rack with `N` servers under availability SLA `a` may have at most
//! `floor((1−a)·N)` servers down before spares are consumed; the *deficit*
//! of a window is the device count μ beyond that allowance. Spares must
//! cover every window's deficit ("at all times"), so each approach
//! provisions for the peak.

use std::collections::BTreeMap;

use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_dcsim::sku::{DIMM_COST, DISK_COST};
use rainshine_dcsim::topology::RackInfo;
use rainshine_dcsim::SimulationOutput;
use rainshine_telemetry::ids::{RackId, Workload};
use rainshine_telemetry::metrics::{self, SpatialGranularity, SpatialKey, WindowedSeries};
use rainshine_telemetry::rma::{HardwareFault, RmaTicket};
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::TimeGranularity;

use crate::dataset::{rack_table, FaultFilter};
use crate::tco::TcoModel;
use crate::{AnalysisError, Result};

/// Features used to cluster racks for MF provisioning. Unlike a rack-day
/// table's candidates, the calendar ordinals are excluded: a rack-level
/// summary row has no meaningful day-of-week/month, only the rack's static
/// attributes and mean environment.
const CLUSTER_FEATURES: &[&str] = &[
    columns::SKU,
    columns::AGE_MONTHS,
    columns::RATED_POWER_KW,
    columns::TEMPERATURE_F,
    columns::RELATIVE_HUMIDITY,
    columns::DATACENTER,
    columns::REGION,
];

/// CART parameters for the MF clustering.
const CLUSTER_TREE: CartParams = CartParams { min_split: 8, min_leaf: 4, max_depth: 30, cp: 0.01 };

/// Parameters of a provisioning study.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisionParams {
    /// Availability SLA: fraction of a rack's servers that must be
    /// available at all times (0.90, 0.95, 1.00 in the paper).
    pub sla: f64,
    /// Window granularity for μ (daily in Fig. 10, hourly in Fig. 12).
    pub granularity: TimeGranularity,
}

impl ProvisionParams {
    /// Parameters for an SLA at a granularity.
    pub fn new(sla: f64, granularity: TimeGranularity) -> Self {
        ProvisionParams { sla, granularity }
    }

    fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.sla) {
            return Err(AnalysisError::InvalidParameter { name: "sla", value: self.sla });
        }
        Ok(())
    }
}

/// Per-rack deficit distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct RackDeficits {
    /// The rack.
    pub rack: RackId,
    /// Servers in the rack.
    pub servers: u32,
    /// Windows during which the rack was in service.
    pub active_windows: u64,
    /// Non-zero window deficits (device count beyond the SLA allowance).
    pub deficits: Vec<u64>,
}

impl RackDeficits {
    /// The largest window deficit: the spares that cover every window (0
    /// without an active window).
    pub fn peak(&self) -> u64 {
        if self.active_windows == 0 {
            return 0;
        }
        self.deficits.iter().copied().max().unwrap_or(0)
    }

    /// Per-rack required spare fraction.
    pub fn fraction(&self) -> f64 {
        self.peak() as f64 / self.servers as f64
    }
}

/// Peak fractional deficit pooled across racks (SF / per-cluster MF); 0
/// when the racks have no active window.
fn pooled_peak_fraction(racks: &[&RackDeficits]) -> f64 {
    if racks.iter().all(|r| r.active_windows == 0) {
        return 0.0;
    }
    racks
        .iter()
        .flat_map(|r| r.deficits.iter().map(|&d| d as f64 / r.servers as f64))
        .fold(0.0, f64::max)
}

/// Rack-granularity μ over the hardware tickets that match `filter` and
/// fall on one of `racks`. μ is computed independently for each rack key,
/// so every series of `racks` equals the fleet-wide computation's; the
/// other racks' tickets are skipped instead of swept. Tickets are picked by
/// rack id, which on the sanitized stream is picking by μ key: the
/// sanitizer gives every kept ticket its rack's DC, region and row.
fn provisioned_mu(
    output: &SimulationOutput,
    racks: &[&RackInfo],
    filter: FaultFilter,
    granularity: TimeGranularity,
) -> BTreeMap<SpatialKey, WindowedSeries> {
    let fleet = &output.fleet;
    let mut provisioned = vec![false; fleet.racks.len()];
    for index in racks.iter().filter_map(|r| fleet.index_of(r.id)) {
        provisioned[index] = true;
    }
    let tickets: Vec<&RmaTicket> = output
        .hardware_tickets()
        .into_iter()
        .filter(|t| {
            filter.matches(t.fault)
                && fleet.index_of(t.location.rack).is_some_and(|index| provisioned[index])
        })
        .collect();
    metrics::mu(
        &tickets,
        SpatialGranularity::Rack,
        granularity,
        output.config.start,
        output.config.end,
    )
}

/// Computes per-rack deficits for the racks of one workload under `filter`.
pub fn rack_deficits(
    output: &SimulationOutput,
    workload: Workload,
    filter: FaultFilter,
    params: &ProvisionParams,
) -> Result<Vec<RackDeficits>> {
    params.validate()?;
    let racks: Vec<&RackInfo> = output
        .fleet
        .racks_hosting(workload)
        .filter(|r| r.commissioned_day < output.config.end.days() as i64)
        .collect();
    if racks.is_empty() {
        return Err(AnalysisError::NoData { what: format!("no racks host {workload}") });
    }
    let mu = provisioned_mu(output, &racks, filter, params.granularity);
    let total_windows = params.granularity.window_count(output.config.start, output.config.end);
    let start_window = params.granularity.window_of(output.config.start);
    let mut out = Vec::with_capacity(racks.len());
    for rack in racks {
        let allowed = ((1.0 - params.sla) * rack.servers as f64).floor() as u64;
        let commission_window = if rack.commissioned_day <= output.config.start.days() as i64 {
            0
        } else {
            params
                .granularity
                .window_of(rainshine_telemetry::time::SimTime::from_days(
                    rack.commissioned_day as u64,
                ))
                .saturating_sub(start_window)
        };
        let active_windows = total_windows.saturating_sub(commission_window);
        let deficits: Vec<u64> = mu
            .get(&rack.mu_key())
            .map(|series| {
                series
                    .nonzero
                    .values()
                    .filter_map(|&v| v.checked_sub(allowed).filter(|&d| d > 0))
                    .collect()
            })
            .unwrap_or_default();
        out.push(RackDeficits { rack: rack.id, servers: rack.servers, active_windows, deficits });
    }
    Ok(out)
}

/// One provisioning approach's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproachResult {
    /// Total spare servers (fractional: per-rack fractions summed).
    pub spares: f64,
    /// Over-provisioned capacity as a percentage of the workload's servers.
    pub overprovision_pct: f64,
}

/// One MF cluster (a CART leaf).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInfo {
    /// Cluster index (ordered by spare fraction).
    pub id: usize,
    /// Racks in the cluster.
    pub racks: Vec<RackId>,
    /// Spare fraction provisioned for every rack of the cluster.
    pub spare_fraction: f64,
    /// Root-to-leaf split descriptions (the paper's cluster insights).
    pub path: Vec<String>,
    /// CDF points `(overprovision %, proportion ≤ x)` over the cluster's
    /// racks (Fig. 11 curves).
    pub cdf: Vec<(f64, f64)>,
}

/// Result of a server-level provisioning study (Figs. 10–12).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProvisioning {
    /// Workload studied.
    pub workload: Workload,
    /// Total servers across the workload's racks.
    pub servers: f64,
    /// Lower bound.
    pub lb: ApproachResult,
    /// Single factor.
    pub sf: ApproachResult,
    /// Multi factor.
    pub mf: ApproachResult,
    /// MF clusters, ordered by spare fraction.
    pub clusters: Vec<ClusterInfo>,
    /// CDF of per-rack LB overprovision % over all racks (Fig. 11's "SF"
    /// context curve).
    pub all_racks_cdf: Vec<(f64, f64)>,
    /// Ranked variable importance of the MF clustering tree.
    pub importance: Vec<(String, f64)>,
}

fn approach(spares: f64, servers: f64) -> ApproachResult {
    ApproachResult { spares, overprovision_pct: 100.0 * spares / servers.max(1.0) }
}

fn cdf_points(values: &[f64]) -> Vec<(f64, f64)> {
    rainshine_stats::ecdf::steps(values).unwrap_or_default()
}

/// One MF cluster before ordering: a CART leaf, its racks and the spare
/// fraction provisioned for all of them.
struct Cluster<'d> {
    leaf: usize,
    members: Vec<&'d RackDeficits>,
    fraction: f64,
}

/// LB / SF / MF spare counts of one workload's racks, with the MF tree and
/// its clusters.
struct Spares<'d> {
    servers: f64,
    lb: f64,
    sf: f64,
    mf: f64,
    tree: Tree,
    /// In leaf order, the order every MF sum runs in.
    clusters: Vec<Cluster<'d>>,
}

/// Computes LB, SF and MF spares from per-rack deficits. MF fits CART on
/// each rack's required spare fraction and groups the racks by the leaf
/// they land in; the grouping is a `BTreeMap` so the clusters, and the
/// float sum over them, come out in leaf order.
fn spares<'d>(output: &SimulationOutput, deficits: &'d [RackDeficits]) -> Result<Spares<'d>> {
    let servers: f64 = deficits.iter().map(|r| r.servers as f64).sum();

    // LB: per-rack spares from each rack's own data.
    let lb: f64 = deficits.iter().map(|r| r.peak() as f64).sum();

    // SF: one pooled fraction for every rack.
    let all: Vec<&RackDeficits> = deficits.iter().collect();
    let sf = pooled_peak_fraction(&all) * servers;

    // MF: cluster racks with CART on per-rack required fraction, one table
    // row per rack in `deficits` order.
    let rows: Option<Vec<_>> =
        deficits.iter().map(|r| Some((output.fleet.rack(r.rack)?, r.fraction()))).collect();
    let no_rack = || AnalysisError::NoData { what: "a deficit rack is not in the fleet".into() };
    let table = rack_table(output, rows.ok_or_else(no_rack)?)?;
    let ds = CartDataset::regression(&table, columns::FAILURE_RATE, CLUSTER_FEATURES)?;
    let tree = Tree::fit(&ds, &CLUSTER_TREE)?;
    let leaves = tree.leaf_assignments(&table)?;
    let mut by_leaf: BTreeMap<usize, Vec<&RackDeficits>> = BTreeMap::new();
    for (leaf, rack) in leaves.into_iter().zip(deficits) {
        by_leaf.entry(leaf).or_default().push(rack);
    }
    let mut mf = 0.0;
    let mut clusters = Vec::with_capacity(by_leaf.len());
    for (leaf, members) in by_leaf {
        let fraction = pooled_peak_fraction(&members);
        let cluster_servers: f64 = members.iter().map(|r| r.servers as f64).sum();
        mf += fraction * cluster_servers;
        clusters.push(Cluster { leaf, members, fraction });
    }
    Ok(Spares { servers, lb, sf, mf, tree, clusters })
}

/// Runs the full LB / SF / MF server-level provisioning comparison for one
/// workload.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if the workload has no racks, or any
/// underlying table/tree error.
pub fn provision_servers(
    output: &SimulationOutput,
    workload: Workload,
    params: &ProvisionParams,
) -> Result<ServerProvisioning> {
    let deficits = rack_deficits(output, workload, FaultFilter::AllHardware, params)?;
    let Spares { servers, lb, sf, mf, tree, clusters } = spares(output, &deficits)?;
    let mut clusters: Vec<ClusterInfo> = clusters
        .into_iter()
        .map(|Cluster { leaf, members, fraction }| {
            let per_rack_pct: Vec<f64> = members.iter().map(|r| 100.0 * r.fraction()).collect();
            ClusterInfo {
                id: 0,
                racks: members.iter().map(|r| r.rack).collect(),
                spare_fraction: fraction,
                path: tree.path_to(leaf),
                cdf: cdf_points(&per_rack_pct),
            }
        })
        .collect();
    clusters.sort_by(|a, b| a.spare_fraction.total_cmp(&b.spare_fraction));
    for (i, c) in clusters.iter_mut().enumerate() {
        c.id = i + 1;
    }

    let all_pct: Vec<f64> = deficits.iter().map(|r| 100.0 * r.fraction()).collect();

    Ok(ServerProvisioning {
        workload,
        servers,
        lb: approach(lb, servers),
        sf: approach(sf, servers),
        mf: approach(mf, servers),
        clusters,
        all_racks_cdf: cdf_points(&all_pct),
        importance: tree.variable_importance(),
    })
}

/// Table IV: relative TCO savings of MF over SF.
pub fn tco_savings(result: &ServerProvisioning, tco: &TcoModel) -> f64 {
    tco.relative_savings(result.servers, result.mf.spares, result.sf.spares)
}

/// Cost (in relative units) of one provisioning level under the three
/// approaches (Fig. 13 bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTriple {
    /// Lower bound cost.
    pub lb: f64,
    /// Single-factor cost.
    pub sf: f64,
    /// Multi-factor cost.
    pub mf: f64,
}

/// Result of the component- vs server-level comparison (Q1-B, Fig. 13).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentProvisioning {
    /// Workload studied.
    pub workload: Workload,
    /// Total servers across the workload's racks.
    pub servers: f64,
    /// Cost of provisioning whole-server spares for all hardware failures.
    pub server_level: CostTriple,
    /// Cost of disk + DIMM spares for disk/memory failures plus server
    /// spares for the remaining hardware failures.
    pub component_level: CostTriple,
}

impl ComponentProvisioning {
    /// Costs as a percentage of the workload's base server cost
    /// (`servers × 100`), the normalization of Fig. 13.
    pub fn as_pct_of_fleet_cost(&self, cost: f64) -> f64 {
        100.0 * cost / (self.servers * 100.0)
    }
}

/// Runs the component- vs server-level spare cost comparison.
///
/// # Errors
///
/// Returns [`AnalysisError::NoData`] if the workload has no racks.
pub fn provision_components(
    output: &SimulationOutput,
    workload: Workload,
    params: &ProvisionParams,
) -> Result<ComponentProvisioning> {
    component_costs(output, &provision_servers(output, workload, params)?, params)
}

/// The comparison of [`provision_components`] given its server level:
/// `server`, the [`provision_servers`] study of the same inputs, whose
/// LB / SF / MF spares are whole-server spares for all hardware failures.
pub(crate) fn component_costs(
    output: &SimulationOutput,
    server: &ServerProvisioning,
    params: &ProvisionParams,
) -> Result<ComponentProvisioning> {
    let (workload, server_price) = (server.workload, 100.0);
    let server_level = CostTriple {
        lb: server.lb.spares * server_price,
        sf: server.sf.spares * server_price,
        mf: server.mf.spares * server_price,
    };
    // LB/SF/MF spare counts for one fault filter.
    let spares_triple = |filter| -> Result<(f64, f64, f64)> {
        let deficits = rack_deficits(output, workload, filter, params)?;
        let s = spares(output, &deficits)?;
        Ok((s.lb, s.sf, s.mf))
    };
    // Component-level: disks and DIMMs get their own (cheap) spares; the
    // rest still needs server spares.
    let (lb_d, sf_d, mf_d) = spares_triple(FaultFilter::Component(HardwareFault::Disk))?;
    let (lb_m, sf_m, mf_m) = spares_triple(FaultFilter::Component(HardwareFault::Memory))?;
    // Remaining hardware faults share one server-spare pool: a power,
    // board, or NIC failure downs the server either way.
    let (lb_o, sf_o, mf_o) = spares_triple(FaultFilter::OtherHardware)?;
    let component_level = CostTriple {
        lb: lb_d * DISK_COST + lb_m * DIMM_COST + lb_o * server_price,
        sf: sf_d * DISK_COST + sf_m * DIMM_COST + sf_o * server_price,
        mf: mf_d * DISK_COST + mf_m * DIMM_COST + mf_o * server_price,
    };
    Ok(ComponentProvisioning { workload, servers: server.servers, server_level, component_level })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_dcsim::{FleetConfig, Simulation};

    fn sim() -> SimulationOutput {
        Simulation::new(FleetConfig::medium(), 17).run()
    }

    #[test]
    fn lb_below_mf_below_sf() {
        let out = sim();
        let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
        let r = provision_servers(&out, Workload::W1, &params).unwrap();
        assert!(r.lb.spares > 0.0, "some spares needed at 100% SLA");
        assert!(r.lb.spares <= r.mf.spares + 1e-9, "LB {} <= MF {}", r.lb.spares, r.mf.spares);
        assert!(r.mf.spares <= r.sf.spares + 1e-9, "MF {} <= SF {}", r.mf.spares, r.sf.spares);
        assert!(!r.clusters.is_empty());
        let cluster_racks: usize = r.clusters.iter().map(|c| c.racks.len()).sum();
        assert_eq!(
            cluster_racks as f64,
            r.all_racks_cdf.last().map(|_| cluster_racks as f64).unwrap()
        );
    }

    #[test]
    fn looser_sla_needs_fewer_spares() {
        let out = sim();
        let tight = provision_servers(
            &out,
            Workload::W6,
            &ProvisionParams::new(1.0, TimeGranularity::Daily),
        )
        .unwrap();
        let loose = provision_servers(
            &out,
            Workload::W6,
            &ProvisionParams::new(0.90, TimeGranularity::Daily),
        )
        .unwrap();
        assert!(loose.sf.spares <= tight.sf.spares);
        assert!(loose.lb.spares <= tight.lb.spares);
    }

    #[test]
    fn hourly_multiplexing_reduces_mf() {
        let out = sim();
        let daily = provision_servers(
            &out,
            Workload::W1,
            &ProvisionParams::new(1.0, TimeGranularity::Daily),
        )
        .unwrap();
        let hourly = provision_servers(
            &out,
            Workload::W1,
            &ProvisionParams::new(1.0, TimeGranularity::Hourly),
        )
        .unwrap();
        assert!(
            hourly.mf.spares < daily.mf.spares,
            "hourly {} < daily {}",
            hourly.mf.spares,
            daily.mf.spares
        );
        assert!(hourly.lb.spares <= daily.lb.spares);
    }

    #[test]
    fn component_level_cheaper_than_server_level_under_mf() {
        let out = sim();
        let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
        let r = provision_components(&out, Workload::W1, &params).unwrap();
        assert!(
            r.component_level.mf < r.server_level.mf,
            "component {} < server {}",
            r.component_level.mf,
            r.server_level.mf
        );
        // Normalization helper.
        let pct = r.as_pct_of_fleet_cost(r.server_level.sf);
        assert!(pct > 0.0 && pct < 100.0, "pct {pct}");
    }

    #[test]
    fn tco_savings_positive_when_mf_beats_sf() {
        let out = sim();
        let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
        let r = provision_servers(&out, Workload::W6, &params).unwrap();
        let savings = tco_savings(&r, &TcoModel::default());
        assert!(savings >= 0.0, "savings {savings}");
    }

    #[test]
    fn unknown_workload_racks_error() {
        let out = sim();
        let params = ProvisionParams::new(2.0, TimeGranularity::Daily);
        assert!(matches!(
            provision_servers(&out, Workload::W1, &params),
            Err(AnalysisError::InvalidParameter { .. })
        ));
    }
}
