//! Property-based tests for CART invariants.

use proptest::prelude::*;
use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};

/// Builds a random regression table from generated (x, k, y) triples.
fn table_from(rows: &[(f64, u8, f64)]) -> Frame {
    let schema = Schema::new(vec![
        Field::new("x", FeatureKind::Continuous),
        Field::new("k", FeatureKind::Nominal),
        Field::new("y", FeatureKind::Continuous),
    ]);
    let mut b = FrameBuilder::new(schema);
    for (x, k, y) in rows {
        b.push_row(vec![
            Value::Continuous(*x),
            Value::Nominal(format!("c{k}")),
            Value::Continuous(*y),
        ])
        .unwrap();
    }
    b.build().unwrap()
}

fn rows_strategy() -> impl Strategy<Value = Vec<(f64, u8, f64)>> {
    prop::collection::vec((-100.0f64..100.0, 0u8..5, -50.0f64..50.0), 30..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_row_lands_in_exactly_one_leaf(rows in rows_strategy()) {
        let table = table_from(&rows);
        let ds = CartDataset::regression(&table, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default().with_min_sizes(10, 5)).unwrap();
        let leaves = tree.leaf_assignments(&table).unwrap();
        prop_assert_eq!(leaves.len(), table.rows());
        for &leaf in &leaves {
            prop_assert!(tree.nodes()[leaf].is_leaf());
        }
        // Node sizes: leaf n's sum to the dataset size.
        let total: usize = tree.leaves().iter().map(|l| l.n).sum();
        prop_assert_eq!(total, table.rows());
        // And each internal node's n equals its children's sum.
        for node in tree.nodes() {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                prop_assert_eq!(node.n, tree.nodes()[l].n + tree.nodes()[r].n);
            }
        }
    }

    #[test]
    fn predictions_stay_within_target_range(rows in rows_strategy()) {
        let table = table_from(&rows);
        let ds = CartDataset::regression(&table, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default().with_min_sizes(10, 5)).unwrap();
        let y = table.continuous("y").unwrap();
        let (min, max) = y.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
        for p in tree.predict(&table).unwrap() {
            prop_assert!(p >= min - 1e-9 && p <= max + 1e-9);
            prop_assert!(p.is_finite());
        }
    }

    #[test]
    fn splits_strictly_reduce_risk(rows in rows_strategy()) {
        let table = table_from(&rows);
        let ds = CartDataset::regression(&table, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default().with_min_sizes(10, 5)).unwrap();
        for node in tree.nodes() {
            if let (Some(l), Some(r)) = (node.left, node.right) {
                let child_risk = tree.nodes()[l].risk + tree.nodes()[r].risk;
                prop_assert!(
                    child_risk <= node.risk + 1e-6,
                    "children risk {child_risk} exceeds parent {}",
                    node.risk
                );
                prop_assert!(node.improvement >= -1e-9);
            }
        }
    }

    #[test]
    fn fitting_is_deterministic(rows in rows_strategy()) {
        let table = table_from(&rows);
        let ds = CartDataset::regression(&table, "y", &["x", "k"]).unwrap();
        let params = CartParams::default().with_min_sizes(10, 5);
        let a = Tree::fit(&ds, &params).unwrap();
        let b = Tree::fit(&ds, &params).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn variable_importance_sums_to_hundred_or_zero(rows in rows_strategy()) {
        let table = table_from(&rows);
        let ds = CartDataset::regression(&table, "y", &["x", "k"]).unwrap();
        let tree = Tree::fit(&ds, &CartParams::default().with_min_sizes(10, 5)).unwrap();
        let total: f64 = tree.variable_importance().iter().map(|(_, s)| s).sum();
        if tree.leaf_count() > 1 {
            prop_assert!((total - 100.0).abs() < 1e-6);
        } else {
            prop_assert_eq!(total, 0.0);
        }
    }
}
