//! Differential oracle for the scoped μ in Q1 provisioning.
//!
//! `rack_deficits` feeds `metrics::mu` only the matching tickets of the
//! racks it provisions. The reference below is the original unscoped
//! computation: μ over every matching hardware ticket of the fleet, read
//! at the provisioned racks' keys. Because μ is computed independently per
//! rack key, both must agree exactly (`==` on every deficit list and
//! window count) at every workload, fault filter, granularity and SLA, on
//! clean and dirty fleets.
//!
//! `rack_deficits` picks a provisioned rack's tickets by rack id, where the
//! reference reads them at the rack's μ key. The two pick the same tickets
//! when every ingested hardware ticket sits at its rack's key, which
//! `check_fleet` also asserts.

use std::collections::BTreeMap;

use rainshine::analysis::dataset::FaultFilter;
use rainshine::analysis::q1::{rack_deficits, ProvisionParams, RackDeficits};
use rainshine::dcsim::topology::RackInfo;
use rainshine::dcsim::{CorruptionConfig, FleetConfig, Simulation, SimulationOutput};
use rainshine::telemetry::ids::Workload;
use rainshine::telemetry::metrics::{mu, SpatialGranularity, SpatialKey, WindowedSeries};
use rainshine::telemetry::rma::{HardwareFault, RmaTicket};
use rainshine::telemetry::time::{SimTime, TimeGranularity};

const FILTERS: [FaultFilter; 4] = [
    FaultFilter::AllHardware,
    FaultFilter::Component(HardwareFault::Disk),
    FaultFilter::Component(HardwareFault::Memory),
    FaultFilter::OtherHardware,
];

const GRANULARITIES: [TimeGranularity; 2] = [TimeGranularity::Daily, TimeGranularity::Hourly];

const SLAS: [f64; 3] = [0.90, 0.95, 1.00];

type Mu = BTreeMap<SpatialKey, WindowedSeries>;

/// Fleet-wide rack μ over every hardware ticket matching `filter`.
fn fleet_mu(output: &SimulationOutput, filter: FaultFilter, granularity: TimeGranularity) -> Mu {
    let tickets: Vec<&RmaTicket> =
        output.hardware_tickets().into_iter().filter(|t| filter.matches(t.fault)).collect();
    mu(&tickets, SpatialGranularity::Rack, granularity, output.config.start, output.config.end)
}

fn rack_key(rack: &RackInfo) -> SpatialKey {
    SpatialGranularity::Rack.key(&rack.server_location(0))
}

/// The original `rack_deficits`, reading the fleet-wide `mu`; `None` where
/// the workload has no provisioned rack.
fn deficits_reference(
    output: &SimulationOutput,
    workload: Workload,
    params: &ProvisionParams,
    mu: &Mu,
) -> Option<Vec<RackDeficits>> {
    let (start, end) = (output.config.start, output.config.end);
    let racks: Vec<&RackInfo> = output
        .fleet
        .racks_hosting(workload)
        .filter(|r| r.commissioned_day < end.days() as i64)
        .collect();
    if racks.is_empty() {
        return None;
    }
    let total_windows = params.granularity.window_count(start, end);
    let start_window = params.granularity.window_of(start);
    let deficits = racks
        .into_iter()
        .map(|rack| {
            let allowed = ((1.0 - params.sla) * rack.servers as f64).floor() as u64;
            let commission_window = if rack.commissioned_day <= start.days() as i64 {
                0
            } else {
                params
                    .granularity
                    .window_of(SimTime::from_days(rack.commissioned_day as u64))
                    .saturating_sub(start_window)
            };
            let deficits = mu
                .get(&rack_key(rack))
                .map(|series| {
                    series
                        .nonzero
                        .values()
                        .filter_map(|&v| v.checked_sub(allowed).filter(|&d| d > 0))
                        .collect()
                })
                .unwrap_or_default();
            RackDeficits {
                rack: rack.id,
                servers: rack.servers,
                active_windows: total_windows.saturating_sub(commission_window),
                deficits,
            }
        })
        .collect();
    Some(deficits)
}

/// Checks every workload, filter, granularity and SLA on one fleet, and
/// returns how many (workload, filter, granularity, SLA) cases had racks.
fn check_fleet(output: &SimulationOutput) -> usize {
    for t in output.hardware_tickets() {
        let rack = output.fleet.rack(t.location.rack).expect("ingested tickets sit on fleet racks");
        assert_eq!(SpatialGranularity::Rack.key(&t.location), rack_key(rack), "{t:?}");
    }
    let mut provisioned = 0;
    for filter in FILTERS {
        for granularity in GRANULARITIES {
            let mu = fleet_mu(output, filter, granularity);
            for workload in Workload::ALL {
                for sla in SLAS {
                    let params = ProvisionParams::new(sla, granularity);
                    let at = format!("{workload} {filter:?} {granularity:?} SLA {sla}");
                    let scoped = rack_deficits(output, workload, filter, &params);
                    match deficits_reference(output, workload, &params, &mu) {
                        Some(want) => {
                            assert!(scoped.as_ref() == Ok(&want), "rack_deficits at {at}");
                            provisioned += 1;
                        }
                        None => assert!(scoped.is_err(), "rack_deficits at {at}"),
                    }
                }
            }
        }
    }
    provisioned
}

fn fleet(mut config: FleetConfig, dirty: bool, seed: u64) -> SimulationOutput {
    if dirty {
        config.corruption = CorruptionConfig::dirty_default();
    }
    Simulation::new(config, seed).run()
}

#[test]
fn scoped_mu_matches_fleet_wide_on_small_fleets() {
    for dirty in [false, true] {
        let output = fleet(FleetConfig::small(), dirty, 5);
        assert!(check_fleet(&output) > 0, "dirty {dirty}: no workload was provisioned");
    }
}

#[test]
fn scoped_mu_matches_fleet_wide_on_medium_fleets() {
    for dirty in [false, true] {
        let output = fleet(FleetConfig::medium(), dirty, 9);
        assert!(check_fleet(&output) > 0, "dirty {dirty}: no workload was provisioned");
    }
}

/// Paper scale, as t4 provisions it. Run with
/// `cargo test --release --test provision_scope -- --ignored`.
#[test]
#[ignore = "paper-scale fleet; run in release"]
fn scoped_mu_matches_fleet_wide_at_paper_scale() {
    let output = fleet(FleetConfig::paper_scale(), false, 42);
    assert!(check_fleet(&output) > 0);
}
