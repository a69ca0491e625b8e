//! Microbench for the sort-once/partition-many CART fitter (DESIGN.md
//! §10.2): the presort fitter (`Tree::fit`) against the per-node-sort
//! reference (`Tree::fit_on_rows_per_node_sort`) on tables dominated by
//! large ordered-feature scans. Both produce bit-identical trees — see
//! `tests/presort_regression.rs` — so the ratio is pure sort savings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rainshine_cart::dataset::CartDataset;
use rainshine_cart::params::CartParams;
use rainshine_cart::tree::Tree;
use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};

/// Synthetic regression table: three continuous features (many distinct
/// values, so ordered scans dominate), one 8-way nominal, planted
/// structure plus deterministic pseudo-noise.
fn synthetic_table(rows: usize) -> Frame {
    let schema = Schema::new(vec![
        Field::new("x", FeatureKind::Continuous),
        Field::new("z", FeatureKind::Continuous),
        Field::new("w", FeatureKind::Continuous),
        Field::new("k", FeatureKind::Nominal),
        Field::new("y", FeatureKind::Continuous),
    ]);
    let mut b = FrameBuilder::new(schema);
    for i in 0..rows {
        let hash = i.wrapping_mul(2_654_435_761) % 1_000_000;
        let x = hash as f64 / 1000.0;
        let z = ((i * 7) % 5000) as f64 / 10.0;
        let w = ((i * 13) % 977) as f64;
        let k = format!("c{}", i % 8);
        let noise = (hash % 1000) as f64 / 1000.0 - 0.5;
        let y = if x < 400.0 { 1.0 } else { 3.0 }
            + if i % 8 >= 5 { 2.0 } else { 0.0 }
            + 0.01 * z
            + 0.3 * noise;
        b.push_row(vec![
            Value::Continuous(x),
            Value::Continuous(z),
            Value::Continuous(w),
            Value::Nominal(k),
            Value::Continuous(y),
        ])
        .unwrap();
    }
    b.build().unwrap()
}

fn bench_split_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("split_scan");
    for rows in [10_000usize, 50_000] {
        let table = synthetic_table(rows);
        let ds = CartDataset::regression(&table, "y", &["x", "z", "w", "k"]).unwrap();
        let params = CartParams::default().with_min_sizes(rows / 100, rows / 200).with_cp(0.0005);
        let all_rows: Vec<usize> = (0..ds.len()).collect();
        group.bench_with_input(BenchmarkId::new("presort", rows), &rows, |b, _| {
            b.iter(|| Tree::fit(&ds, &params).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("per_node_sort", rows), &rows, |b, _| {
            b.iter(|| Tree::fit_on_rows_per_node_sort(&ds, &params, &all_rows).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_split_scan);
criterion_main!(benches);
