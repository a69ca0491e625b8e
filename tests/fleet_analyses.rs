//! Differential oracle for `FleetAnalyses`, the memo the experiments and
//! the conformance runner share.
//!
//! Every memo entry must equal a fresh call of the public function it
//! stands for, at strides 1 and 2, on clean and dirty fleets: the
//! rack-day tables column for column, `provision_servers`, `env_analysis`
//! on the DC's subset of a fresh disk table (compared by `{:?}`, because an
//! empty group's NaN mean is not `==` itself), the four-SKU
//! `sf_comparison` and `provision_components`. A second request returns
//! the first request's instance. The medium fleets are `#[ignore]`d (run
//! them in release).

use std::sync::Arc;

use rainshine::analysis::analyses::FleetAnalyses;
use rainshine::analysis::dataset::{rack_day_table, FaultFilter};
use rainshine::analysis::q1::{provision_components, provision_servers, ProvisionParams};
use rainshine::analysis::q2::sf_comparison;
use rainshine::analysis::q3::{dc_subset, env_analysis};
use rainshine::cart::params::CartParams;
use rainshine::dcsim::{CorruptionConfig, FleetConfig, Simulation, SimulationOutput};
use rainshine::telemetry::ids::{Sku, Workload};
use rainshine::telemetry::rma::HardwareFault;
use rainshine::telemetry::time::TimeGranularity;

mod common;
use common::assert_same_table;

const DISK: FaultFilter = FaultFilter::Component(HardwareFault::Disk);

fn simulate(mut config: FleetConfig, seed: u64, corruption: CorruptionConfig) -> SimulationOutput {
    config.corruption = corruption;
    Simulation::new(config, seed).run()
}

fn env_cart() -> CartParams {
    CartParams::default().with_min_sizes(400, 200).with_cp(0.002)
}

/// Checks every memo entry of one fleet against fresh public calls.
fn check_fleet(what: &str, config: FleetConfig, seed: u64) {
    for corruption in [CorruptionConfig::default(), CorruptionConfig::dirty_default()] {
        let dirty = corruption != CorruptionConfig::default();
        let what = format!("{what} {}", if dirty { "dirty" } else { "clean" });
        let output = simulate(config.clone(), seed, corruption);
        let memo = FleetAnalyses::default();
        for stride in [1, 2] {
            let at = format!("{what} at stride {stride}");
            let all_hw = memo.all_hw_table(&output, stride).unwrap();
            let fresh = rack_day_table(&output, FaultFilter::AllHardware, stride).unwrap();
            assert_same_table(&format!("{at}: all hardware"), &all_hw, &fresh);
            assert!(Arc::ptr_eq(&all_hw, &memo.all_hw_table(&output, stride).unwrap()), "{at}");

            let disk = memo.disk_table(&output, stride).unwrap();
            let fresh = rack_day_table(&output, DISK, stride).unwrap();
            assert_same_table(&format!("{at}: disk"), &disk, &fresh);
            assert!(Arc::ptr_eq(&disk, &memo.disk_table(&output, stride).unwrap()), "{at}");

            for dc in ["DC1", "DC2"] {
                let r = memo.env_analysis(&output, dc, stride, &env_cart()).unwrap();
                let expected = env_analysis(dc, &dc_subset(&fresh, dc).unwrap(), &env_cart());
                assert_eq!(format!("{:?}", *r), format!("{:?}", expected.unwrap()), "{at} {dc}");
                let again = memo.env_analysis(&output, dc, stride, &env_cart()).unwrap();
                assert!(Arc::ptr_eq(&r, &again), "{at} {dc}");
            }
        }

        for workload in [Workload::W1, Workload::W6] {
            for (sla, granularity) in
                [(1.0, TimeGranularity::Daily), (0.95, TimeGranularity::Hourly)]
            {
                let params = ProvisionParams::new(sla, granularity);
                let r = memo.provisioning(&output, workload, &params).unwrap();
                let expected = provision_servers(&output, workload, &params).unwrap();
                assert_eq!(*r, expected, "{what} {workload} {sla} {granularity:?}");
                let again = memo.provisioning(&output, workload, &params).unwrap();
                assert!(Arc::ptr_eq(&r, &again), "{what} {workload}");
            }
            let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
            assert_eq!(
                memo.provision_components(&output, workload, &params).unwrap(),
                provision_components(&output, workload, &params).unwrap(),
                "{what} {workload} components"
            );
        }

        let sf = memo.sf_comparison(&output).unwrap();
        let expected = sf_comparison(&output, &[Sku::S1, Sku::S2, Sku::S3, Sku::S4]).unwrap();
        assert_eq!(*sf, expected, "{what} SF");
        assert!(Arc::ptr_eq(&sf, &memo.sf_comparison(&output).unwrap()), "{what} SF");
    }
}

#[test]
fn memo_entries_match_fresh_calls_on_small_fleets() {
    check_fleet("small", FleetConfig::small(), 11);
}

#[test]
#[ignore = "medium fleet; run in release"]
fn memo_entries_match_fresh_calls_on_medium_fleets() {
    check_fleet("medium", FleetConfig::medium(), 17);
}

#[test]
fn table_cache_reuses_instances() {
    let output = simulate(FleetConfig::small(), 5, CorruptionConfig::default());
    let memo = FleetAnalyses::default();
    let a = memo.all_hw_table(&output, 2).unwrap();
    assert!(Arc::ptr_eq(&a, &memo.all_hw_table(&output, 2).unwrap()));
    assert!(!Arc::ptr_eq(&a, &memo.all_hw_table(&output, 1).unwrap()));
    // A bad stride's error is the cached answer, not a panic.
    assert!(memo.disk_table(&output, 0).is_err());
    assert!(memo.disk_table(&output, 0).is_err());
}

#[test]
fn shared_analyses_are_computed_once_per_seed() {
    let output = simulate(FleetConfig::small(), 5, CorruptionConfig::default());
    let memo = FleetAnalyses::default();
    let cart = CartParams::default().with_min_sizes(200, 100).with_cp(0.002);
    // Two fan-out workers asking for one key together get one instance.
    let (a, b) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| memo.env_analysis(&output, "DC1", 2, &cart).unwrap());
        let a = memo.env_analysis(&output, "DC1", 2, &cart).unwrap();
        (a, worker.join().unwrap())
    });
    assert!(Arc::ptr_eq(&a, &b));
    let looser = CartParams { cp: 0.001, ..cart };
    assert!(!Arc::ptr_eq(&a, &memo.env_analysis(&output, "DC1", 2, &looser).unwrap()));
    assert!(!Arc::ptr_eq(&a, &memo.env_analysis(&output, "DC2", 2, &cart).unwrap()));
    let daily = |sla| ProvisionParams::new(sla, TimeGranularity::Daily);
    let p = memo.provisioning(&output, Workload::W6, &daily(1.0)).unwrap();
    assert!(Arc::ptr_eq(&p, &memo.provisioning(&output, Workload::W6, &daily(1.0)).unwrap()));
    assert!(!Arc::ptr_eq(&p, &memo.provisioning(&output, Workload::W6, &daily(0.95)).unwrap()));
}
