//! Determinism and failure-injection tests: malformed tickets, empty
//! populations, degenerate features, all-false-positive streams.

use rainshine::analysis::dataset::{rack_day_table, rack_table, FaultFilter};
use rainshine::analysis::q1::{provision_servers, ProvisionParams};
use rainshine::cart::dataset::CartDataset;
use rainshine::cart::params::CartParams;
use rainshine::cart::tree::Tree;
use rainshine::dcsim::{FleetConfig, Simulation};
use rainshine::telemetry::ids::Workload;
use rainshine::telemetry::rma::{self, FaultKind, HardwareFault, RmaTicket};
use rainshine::telemetry::schema::columns;
use rainshine::telemetry::time::{SimTime, TimeGranularity};

#[test]
fn same_seed_same_everything() {
    let a = Simulation::new(FleetConfig::small(), 5).run();
    let b = Simulation::new(FleetConfig::small(), 5).run();
    assert_eq!(a.tickets, b.tickets);
    assert_eq!(a.fleet, b.fleet);
    // Analyses are deterministic functions of the output.
    let pa =
        provision_servers(&a, Workload::W1, &ProvisionParams::new(1.0, TimeGranularity::Daily))
            .unwrap();
    let pb =
        provision_servers(&b, Workload::W1, &ProvisionParams::new(1.0, TimeGranularity::Daily))
            .unwrap();
    assert_eq!(pa.mf.spares, pb.mf.spares);
    assert_eq!(pa.clusters.len(), pb.clusters.len());
}

#[test]
fn different_seeds_differ_but_structure_holds() {
    let a = Simulation::new(FleetConfig::small(), 1).run();
    let b = Simulation::new(FleetConfig::small(), 2).run();
    assert_ne!(a.tickets, b.tickets);
    // Fleet layout is seed-independent (layout_seed fixed in config).
    assert_eq!(a.fleet, b.fleet);
}

#[test]
fn malformed_tickets_are_filtered_not_fatal() {
    let mut out = Simulation::new(FleetConfig::small(), 9).run();
    let template = out.tickets[0].clone();
    // Inject an inverted-interval ticket and an FP-flagged clone.
    let mut inverted = template.clone();
    inverted.opened = SimTime(100);
    inverted.resolved = SimTime(50);
    let mut fp = template.clone();
    fp.false_positive = true;
    let true_before = out.true_positives().len();
    out.tickets.push(inverted);
    out.tickets.push(fp);
    assert_eq!(out.true_positives().len(), true_before, "both injected tickets filtered");
    // Analyses still run.
    assert!(rack_day_table(&out, FaultFilter::AllHardware, 4).is_ok());
}

#[test]
fn all_false_positive_stream_yields_no_hardware_population() {
    let mut out = Simulation::new(FleetConfig::small(), 9).run();
    for t in &mut out.tickets {
        t.false_positive = true;
    }
    assert!(out.hardware_tickets().is_empty());
    // Provisioning still works: every rack simply needs zero spares.
    let r =
        provision_servers(&out, Workload::W1, &ProvisionParams::new(1.0, TimeGranularity::Daily))
            .unwrap();
    assert_eq!(r.lb.spares, 0.0);
    assert_eq!(r.sf.spares, 0.0);
    assert_eq!(r.mf.spares, 0.0);
}

#[test]
fn degenerate_single_value_features_do_not_break_cart() {
    let out = Simulation::new(FleetConfig::small(), 9).run();
    // Rack table with constant response: tree must be a single leaf.
    let constant: std::collections::HashMap<_, _> =
        out.fleet.racks.iter().map(|r| (r.id, 1.0)).collect();
    let (table, _) = rack_table(&out, &constant).unwrap();
    let ds = CartDataset::regression(
        &table,
        columns::FAILURE_RATE,
        &[columns::SKU, columns::AGE_MONTHS, columns::DATACENTER],
    )
    .unwrap();
    let tree = Tree::fit(&ds, &CartParams::default()).unwrap();
    assert_eq!(tree.leaf_count(), 1);
    assert_eq!(tree.root().prediction, 1.0);
}

#[test]
fn empty_rack_population_is_an_error_not_a_panic() {
    let out = Simulation::new(FleetConfig::small(), 9).run();
    // W3 racks exist only on S7 in DC1; find a workload with no racks by
    // trying all and asserting errors are clean for missing ones.
    for workload in rainshine::telemetry::ids::Workload::ALL {
        let res =
            provision_servers(&out, workload, &ProvisionParams::new(1.0, TimeGranularity::Daily));
        match res {
            Ok(r) => assert!(r.servers > 0.0),
            Err(e) => assert!(
                matches!(e, rainshine::analysis::AnalysisError::NoData { .. }),
                "unexpected error: {e}"
            ),
        }
    }
}

#[test]
fn category_breakdown_of_empty_stream_is_empty() {
    let empty: Vec<&RmaTicket> = Vec::new();
    assert!(rma::category_breakdown(&empty).is_empty());
}

#[test]
fn ticket_devices_are_consistent_with_fleet() {
    let out = Simulation::new(FleetConfig::small(), 13).run();
    for t in out.true_positives() {
        let rack = out.fleet.rack(t.location.rack).expect("ticket references known rack");
        assert_eq!(rack.dc, t.location.dc);
        assert_eq!(rack.region, t.location.region);
        let server = t.location.server.0;
        assert!(
            server >= rack.server_id_base && server < rack.server_id_base + rack.servers,
            "server {server} outside rack range"
        );
        if let FaultKind::Hardware(HardwareFault::Disk) = t.fault {
            assert!(rack.sku_spec().disks_per_server > 0);
        }
    }
}
