//! Fixed-seed regression for the sort-once/partition-many CART fitter.
//!
//! The presort fitter keeps one stably-sorted index permutation per ordered
//! feature and partitions it down the tree; the reference fitter re-sorts
//! every node. Stable sort + stable partition means the two must agree on
//! every node — prediction, risk, split rule, and improvement — bit for
//! bit, on a real (medium-fleet) dataset with nominal features, duplicated
//! response values, and NaN environment cells from sensor blackouts.

use rainshine::analysis::dataset::{rack_day_table, FaultFilter};
use rainshine::cart::dataset::CartDataset;
use rainshine::cart::params::CartParams;
use rainshine::cart::tree::Tree;
use rainshine::dcsim::{CorruptionConfig, FleetConfig, Simulation};
use rainshine::telemetry::schema::columns;

const FEATURES: &[&str] = &[
    columns::AGE_MONTHS,
    columns::SKU,
    columns::WORKLOAD,
    columns::TEMPERATURE_F,
    columns::RELATIVE_HUMIDITY,
    columns::DATACENTER,
    columns::DAY_OF_WEEK,
];

#[test]
fn presort_fitter_matches_per_node_sort_on_medium_fleet() {
    // Dirty corruption keeps blackout NaN cells in the environment columns,
    // exercising the missing-value bookkeeping of both fitters.
    let mut config = FleetConfig::medium();
    config.corruption = CorruptionConfig::dirty_default();
    let output = Simulation::new(config, 20_17).run();
    let table = rack_day_table(&output, FaultFilter::AllHardware, 4).expect("medium rack-days");
    let ds = CartDataset::regression(&table, columns::FAILURE_RATE, FEATURES)
        .expect("analysis schema has the requested features");
    let params = CartParams::default().with_min_sizes(60, 30).with_cp(0.0008);

    let presort = Tree::fit(&ds, &params).expect("presort fit");
    let rows: Vec<usize> = (0..ds.len()).collect();
    let reference = Tree::fit_on_rows_per_node_sort(&ds, &params, &rows).expect("reference fit");

    assert!(presort.leaves().len() > 1, "fit found structure worth comparing");
    assert_eq!(presort, reference);
    // Bit-level check on top of PartialEq, which equates -0.0 and 0.0:
    // Debug prints each float in its shortest round-trip form and keeps the
    // sign of zero, so identical strings mean identical trees to the bit.
    assert_eq!(format!("{presort:?}"), format!("{reference:?}"));
}
