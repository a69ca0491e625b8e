//! Paper-scale differential oracle for the CART fitter.
//!
//! `Tree::fit_on_rows` presorts each ordered feature once with a radix
//! sort into rank-keyed segments, reuses each node's target totals,
//! buckets nominal rows in one pass and partitions in one pass.
//! `Tree::fit_on_rows_per_node_sort` is the reference that re-sorts every
//! node. On every dataset the experiments fit at paper scale, seed 42, the
//! two must return equal trees (`==`, every float to the bit):
//!
//! - f15's MF control tree on the all-hardware rack-day table;
//! - f18's DC1 and DC2 control trees and their environment trees;
//! - the MF tree and the DC1 trees on the dirty preset, whose blackouts
//!   leave NaN temperature and humidity cells.
//!
//! P1's classification trees train on rows `evaluate_prediction` keeps
//! private, so their case is in `predict.rs`'s own tests.

use rainshine::analysis::q2::MF_CONTROLS;
use rainshine::analysis::q3::{dc_subset, ENV_CONTROLS};
use rainshine::cart::dataset::CartDataset;
use rainshine::cart::params::CartParams;
use rainshine::cart::tree::Tree;
use rainshine::dcsim::CorruptionConfig;
use rainshine::obs::Obs;
use rainshine::parallel::Parallelism;
use rainshine::telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};
use rainshine::telemetry::schema::columns;
use rainshine_bench::{ExperimentContext, Scale};

/// Fits `features` → failure rate on `table` with both fitters, checks
/// they agree, and returns the tree.
fn fit_both(what: &str, table: &Frame, features: &[&str], params: &CartParams) -> Tree {
    let ds = CartDataset::regression(table, columns::FAILURE_RATE, features).unwrap();
    let rows: Vec<usize> = (0..ds.len()).collect();
    let tree = Tree::fit_on_rows(&ds, params, &rows).unwrap();
    let reference = Tree::fit_on_rows_per_node_sort(&ds, params, &rows).unwrap();
    assert_eq!(tree, reference, "{what}");
    tree
}

/// The (temperature, RH) table of the environment tree: each row's failure
/// rate divided by its control-tree stratum mean, as f18 builds it.
fn normalized_env_table(table: &Frame, control: &Tree) -> Frame {
    let strata = control.leaf_assignments(table).unwrap();
    let y = table.continuous(columns::FAILURE_RATE).unwrap();
    let mut sums = vec![(0.0f64, 0.0f64); control.nodes().len()];
    for (&s, &v) in strata.iter().zip(y) {
        sums[s].0 += v;
        sums[s].1 += 1.0;
    }
    let temp = table.continuous(columns::TEMPERATURE_F).unwrap();
    let rh = table.continuous(columns::RELATIVE_HUMIDITY).unwrap();
    let mut b = FrameBuilder::new(Schema::new(vec![
        Field::new(columns::TEMPERATURE_F, FeatureKind::Continuous),
        Field::new(columns::RELATIVE_HUMIDITY, FeatureKind::Continuous),
        Field::new(columns::FAILURE_RATE, FeatureKind::Continuous),
    ]));
    for i in 0..table.rows() {
        let (sum, n) = sums[strata[i]];
        let mean = sum / n;
        let normalized = if mean > 0.0 { y[i] / mean } else { 0.0 };
        b.push_row(vec![
            Value::Continuous(temp[i]),
            Value::Continuous(rh[i]),
            Value::Continuous(normalized),
        ])
        .unwrap();
    }
    b.build().unwrap()
}

/// The control and environment trees of one DC's disk rack-days.
fn check_env_trees(what: &str, disk: &Frame, dc: &str, params: &CartParams) {
    let subset = dc_subset(disk, dc).unwrap();
    let control = fit_both(&format!("{what} {dc} control"), &subset, ENV_CONTROLS, params);
    let normalized = normalized_env_table(&subset, &control);
    fit_both(
        &format!("{what} {dc} environment"),
        &normalized,
        &[columns::TEMPERATURE_F, columns::RELATIVE_HUMIDITY],
        params,
    );
}

#[test]
#[ignore = "paper-scale fleet; run in release"]
fn pipeline_trees_match_the_per_node_sort_reference_at_paper_scale() {
    let ctx = ExperimentContext::new(Scale::Paper, 42);
    let params = ctx.rack_day_cart();
    let mf = fit_both("f15 MF", &ctx.all_hw_table(), MF_CONTROLS, &params);
    assert!(mf.leaf_count() > 1, "the MF tree has structure worth comparing");
    let disk = ctx.disk_table().clone();
    for dc in ["DC1", "DC2"] {
        check_env_trees("clean", &disk, dc, &params);
    }

    let dirty = ExperimentContext::new_with_obs(
        Scale::Paper,
        42,
        Parallelism::Auto,
        CorruptionConfig::dirty_default(),
        Obs::disabled(),
    );
    let params = dirty.rack_day_cart();
    let all_hw = dirty.all_hw_table();
    assert!(
        all_hw.continuous(columns::TEMPERATURE_F).unwrap().iter().any(|t| t.is_nan()),
        "the dirty preset leaves NaN environment cells"
    );
    fit_both("dirty MF", &all_hw, MF_CONTROLS, &params);
    check_env_trees("dirty", &dirty.disk_table(), "DC1", &params);
}
