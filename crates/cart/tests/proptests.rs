//! Property-based tests for CART invariants.

use proptest::prelude::*;
use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_cart::CartError;
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

/// The continuous values of the oracle tables: a tiny set, so ties are
/// dense, with NaN and both signed zeros.
const TIE_VALUES: [f64; 7] = [f64::NAN, -0.0, 0.0, 1.0, 2.5, -3.0, 7.0];

/// One generated oracle row: two continuous value indices into
/// [`TIE_VALUES`], a high-cardinality continuous value, an ordinal level,
/// two nominal codes (up to 6 and 3 categories), a regression target
/// index (for `y`, and `v` whose values are not dyadic), an integer
/// regression target and a class code.
type OracleRow = (usize, usize, f64, i64, u8, u8, u8, i64, u8);

const ORACLE_FEATURES: [&str; 6] = ["x", "z", "h", "o", "k", "j"];

fn oracle_table(rows: &[OracleRow]) -> Frame {
    let schema = Schema::new(vec![
        Field::new("x", FeatureKind::Continuous),
        Field::new("z", FeatureKind::Continuous),
        Field::new("h", FeatureKind::Continuous),
        Field::new("o", FeatureKind::Ordinal),
        Field::new("k", FeatureKind::Nominal),
        Field::new("j", FeatureKind::Nominal),
        Field::new("y", FeatureKind::Continuous),
        Field::new("v", FeatureKind::Continuous),
        Field::new("w", FeatureKind::Continuous),
        Field::new("c", FeatureKind::Nominal),
    ]);
    let mut b = FrameBuilder::new(schema);
    for &(x, z, h, o, k, j, y, w, c) in rows {
        b.push_row(vec![
            Value::Continuous(TIE_VALUES[x]),
            Value::Continuous(TIE_VALUES[z]),
            Value::Continuous(h),
            Value::Ordinal(o),
            Value::Nominal(format!("k{k}")),
            Value::Nominal(format!("j{j}")),
            Value::Continuous([0.0, 1.0, 1.5, 4.0, -2.0, 9.0][y as usize]),
            Value::Continuous([0.1, 1.0, 1.7, 4.3, -2.2, 9.9][y as usize]),
            Value::Continuous(w as f64),
            Value::Nominal(format!("c{c}")),
        ])
        .unwrap();
    }
    b.build().unwrap()
}

/// Up to 79 rows: `h`'s values are almost all distinct, so they grow the
/// presort's intern table (16 slots, doubled past half load) up to four
/// times.
fn oracle_rows_strategy() -> impl Strategy<Value = Vec<OracleRow>> {
    prop::collection::vec(
        (
            0usize..7,
            0usize..7,
            -1.0e6f64..1.0e6,
            -2i64..3,
            0u8..6,
            0u8..3,
            0u8..6,
            -20i64..21,
            0u8..3,
        ),
        2..80,
    )
}

/// The leaf `row` lands in, walking the tree by feature name through
/// `SplitRule::try_goes_left`.
fn walk_by_name(tree: &Tree, ds: &CartDataset<'_>, row: usize) -> Result<usize, CartError> {
    let mut id = 0;
    loop {
        let node = &tree.nodes()[id];
        let (Some(rule), Some(left), Some(right)) = (&node.rule, node.left, node.right) else {
            return Ok(id);
        };
        id = if rule.try_goes_left(&ds.feature(rule.feature())?, row)? { left } else { right };
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The presort fitter against the per-node-sort reference on small
    // tie-dense tables with NaN and signed zeros plus a high-cardinality
    // column; regression targets the exact-sum test rejects (`y` holds
    // 1.5; `v` holds 0.1, so its sums round and their order shows), an
    // integer one whose sums are exact (`w`) and a classification one;
    // training rows with repeats and random stopping rules; and the
    // tree's walks against a by-name walker.
    #[test]
    fn presort_fitter_matches_the_per_node_sort_reference(
        data in oracle_rows_strategy(),
        picks in prop::collection::vec(0usize..1000, 1..120),
        target in 0u8..4,
        knobs in (1usize..6, 2usize..12, 1usize..7, 0u8..4),
    ) {
        let (min_leaf, min_split, max_depth, cp_step) = knobs;
        let table = oracle_table(&data);
        let ds = match target {
            0 => CartDataset::regression(&table, "y", &ORACLE_FEATURES).unwrap(),
            1 => CartDataset::classification(&table, "c", &ORACLE_FEATURES).unwrap(),
            2 => CartDataset::regression(&table, "w", &ORACLE_FEATURES).unwrap(),
            _ => CartDataset::regression(&table, "v", &ORACLE_FEATURES).unwrap(),
        };
        let params = CartParams::default()
            .with_min_sizes(min_split, min_leaf)
            .with_max_depth(max_depth)
            .with_cp([0.0, 0.001, 0.01, 0.1][cp_step as usize]);
        let rows: Vec<usize> = picks.iter().map(|p| p % table.rows()).collect();
        let tree = Tree::fit_on_rows(&ds, &params, &rows).unwrap();
        let reference = Tree::fit_on_rows_per_node_sort(&ds, &params, &rows).unwrap();
        prop_assert_eq!(&tree, &reference);

        let by_name: Vec<usize> =
            (0..table.rows()).map(|row| walk_by_name(&tree, &ds, row).unwrap()).collect();
        prop_assert_eq!(tree.leaf_assignments(&table).unwrap(), by_name.clone());
        let predicted: Vec<f64> = rows.iter().map(|&r| tree.nodes()[by_name[r]].prediction).collect();
        prop_assert_eq!(tree.predict_rows(&table, &rows).unwrap(), predicted);
    }

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
