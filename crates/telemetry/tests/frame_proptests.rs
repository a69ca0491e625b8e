//! Property tests for the two frame assembly paths: building a frame row
//! by row through `FrameBuilder::push_row` and column by column from typed
//! buffers through `Frame::new` must preserve every value (including
//! NaN and signed-zero cells bit for bit), the column kinds, and the
//! category dictionaries — and subsets must share those dictionaries
//! without copying.

use std::sync::Arc;

use proptest::prelude::*;
use rainshine_telemetry::frame::{
    Column, FeatureKind, Field, Frame, FrameBuilder, NominalColumn, Schema, Value,
};

/// Label pool for nominal cells.
const LABELS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Float pool for continuous cells; deliberately includes NaN, signed
/// zeros, and an extreme magnitude.
const FLOATS: [f64; 6] = [0.0, -0.0, -1.5, 3.25, 1e300, f64::NAN];

/// One generic generated cell, interpreted per the column's kind.
type CellSeed = (u8, u8, i64);

fn kind_of(code: u8) -> FeatureKind {
    match code % 3 {
        0 => FeatureKind::Continuous,
        1 => FeatureKind::Nominal,
        _ => FeatureKind::Ordinal,
    }
}

fn cell(kind: FeatureKind, (f_idx, l_idx, ord): CellSeed) -> Value {
    match kind {
        FeatureKind::Continuous => Value::Continuous(FLOATS[f_idx as usize % FLOATS.len()]),
        FeatureKind::Nominal => Value::Nominal(LABELS[l_idx as usize % LABELS.len()].to_owned()),
        FeatureKind::Ordinal => Value::Ordinal(ord),
    }
}

fn schema(kinds: &[u8]) -> Schema {
    Schema::new(
        kinds.iter().enumerate().map(|(i, &k)| Field::new(format!("c{i}"), kind_of(k))).collect(),
    )
}

/// Assembles a frame through the row-oriented `push_row` path.
fn build_by_rows(kinds: &[u8], rows: &[Vec<CellSeed>]) -> Frame {
    let mut builder = FrameBuilder::new(schema(kinds));
    for row in rows {
        let values = kinds.iter().zip(row).map(|(&k, &seed)| cell(kind_of(k), seed)).collect();
        builder.push_row(values).expect("generated row matches schema");
    }
    builder.build().expect("push_row keeps columns aligned")
}

/// Assembles the same frame column by column: typed buffers filled
/// straight from the seeds, handed to `Frame::new`.
fn build_by_columns(kinds: &[u8], rows: &[Vec<CellSeed>]) -> Frame {
    let columns = kinds
        .iter()
        .enumerate()
        .map(|(i, &k)| match kind_of(k) {
            FeatureKind::Continuous => Column::Continuous(
                rows.iter().map(|row| FLOATS[row[i].0 as usize % FLOATS.len()]).collect(),
            ),
            FeatureKind::Nominal => {
                let mut column = NominalColumn::default();
                for row in rows {
                    let code = column.intern(LABELS[row[i].1 as usize % LABELS.len()]);
                    column.push_code(code);
                }
                column.finish()
            }
            FeatureKind::Ordinal => Column::Ordinal(rows.iter().map(|row| row[i].2).collect()),
        })
        .collect();
    Frame::new(Arc::new(schema(kinds)), columns).expect("every column holds one value per row")
}

/// Bit-level float slice equality: NaN == NaN, +0.0 != -0.0.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #[test]
    fn row_and_column_assembly_agree(
        kinds in prop::collection::vec(0u8..3, 1..5),
        rows in prop::collection::vec(prop::collection::vec((0u8..8, 0u8..7, -3i64..7), 4), 0..25),
    ) {
        let by_rows = build_by_rows(&kinds, &rows);
        let by_cols = build_by_columns(&kinds, &rows);
        // Subsets (here: every row, reversed) share the parent's dictionaries.
        let reversed: Vec<usize> = (0..by_rows.rows()).rev().collect();
        let subset = by_rows.subset(&reversed);

        prop_assert_eq!(by_rows.schema(), by_cols.schema());
        prop_assert_eq!(by_rows.rows(), rows.len());
        prop_assert_eq!(by_cols.rows(), rows.len());

        for (i, &k) in kinds.iter().enumerate() {
            let name = format!("c{i}");
            match kind_of(k) {
                FeatureKind::Continuous => {
                    let a = by_rows.continuous(&name).expect("continuous column");
                    let b = by_cols.continuous(&name).expect("continuous column");
                    prop_assert!(bits_equal(a, b), "column {} diverged", name);
                    let rev: Vec<f64> = a.iter().rev().copied().collect();
                    let s = subset.continuous(&name).expect("continuous column");
                    prop_assert!(bits_equal(&rev, s), "subset of {} diverged", name);
                }
                FeatureKind::Nominal => {
                    prop_assert_eq!(
                        by_rows.nominal_codes(&name).expect("codes"),
                        by_cols.nominal_codes(&name).expect("codes")
                    );
                    let a = by_rows.dictionary(&name).expect("dictionary");
                    let b = by_cols.dictionary(&name).expect("dictionary");
                    prop_assert_eq!(a.labels(), b.labels());
                    // Zero-copy: the subset shares the original dictionary
                    // allocation instead of cloning labels.
                    let s = subset.dictionary(&name).expect("dictionary");
                    prop_assert!(a.same_allocation(s), "dictionary {} copied", name);
                }
                FeatureKind::Ordinal => {
                    prop_assert_eq!(
                        by_rows.ordinal(&name).expect("ordinal column"),
                        by_cols.ordinal(&name).expect("ordinal column")
                    );
                }
            }
        }
    }
}
