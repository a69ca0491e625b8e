//! CART benchmarks and the nominal-split-search ablation (DESIGN.md §5):
//! ordered-by-response vs exhaustive subset search, fit cost vs dataset
//! size, and the pruning / cross-validation machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rainshine_cart::dataset::CartDataset;
use rainshine_cart::forest::{Forest, ForestParams};
use rainshine_cart::params::{CartParams, NominalSearch};
use rainshine_cart::prune::{cp_sequence, cross_validate, pruned};
use rainshine_cart::tree::Tree;
use rainshine_obs::Obs;
use rainshine_parallel::Parallelism;
use rainshine_telemetry::frame::{FeatureKind, Field, Frame, FrameBuilder, Schema, Value};

/// Synthetic regression table: two continuous features, one 8-way nominal,
/// response with planted structure plus deterministic pseudo-noise.
fn synthetic_table(rows: usize) -> Frame {
    let schema = Schema::new(vec![
        Field::new("x", FeatureKind::Continuous),
        Field::new("z", FeatureKind::Continuous),
        Field::new("k", FeatureKind::Nominal),
        Field::new("y", FeatureKind::Continuous),
    ]);
    let mut b = FrameBuilder::new(schema);
    for i in 0..rows {
        let x = (i % 100) as f64;
        let z = ((i * 7) % 50) as f64;
        let k = format!("c{}", i % 8);
        let noise = ((i.wrapping_mul(2_654_435_761)) % 1000) as f64 / 1000.0 - 0.5;
        let y = if x < 40.0 { 1.0 } else { 3.0 }
            + if i % 8 >= 5 { 2.0 } else { 0.0 }
            + 0.02 * z
            + 0.3 * noise;
        b.push_row(vec![
            Value::Continuous(x),
            Value::Continuous(z),
            Value::Nominal(k),
            Value::Continuous(y),
        ])
        .unwrap();
    }
    b.build().unwrap()
}

fn bench_fit_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("cart_fit");
    for rows in [1_000usize, 10_000, 50_000] {
        let table = synthetic_table(rows);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &table, |b, table| {
            let ds = CartDataset::regression(table, "y", &["x", "z", "k"]).unwrap();
            let params = CartParams::default().with_min_sizes(rows / 100, rows / 200);
            b.iter(|| Tree::fit(&ds, &params).unwrap());
        });
    }
    group.finish();
}

fn bench_nominal_search_ablation(c: &mut Criterion) {
    let table = synthetic_table(10_000);
    let ds = CartDataset::regression(&table, "y", &["k"]).unwrap();
    let mut group = c.benchmark_group("nominal_search");
    for (name, search) in
        [("ordered", NominalSearch::OrderedByResponse), ("exhaustive", NominalSearch::Exhaustive)]
    {
        let mut params = CartParams::default().with_min_sizes(100, 50);
        params.nominal_search = search;
        group.bench_function(name, |b| b.iter(|| Tree::fit(&ds, &params).unwrap()));
    }
    group.finish();
}

fn bench_prune_and_cv(c: &mut Criterion) {
    let table = synthetic_table(10_000);
    let ds = CartDataset::regression(&table, "y", &["x", "z", "k"]).unwrap();
    let params = CartParams::default().with_min_sizes(100, 50).with_cp(0.0001);
    let tree = Tree::fit(&ds, &params).unwrap();
    c.bench_function("cp_sequence", |b| b.iter(|| cp_sequence(&tree)));
    c.bench_function("prune_at_cp", |b| b.iter(|| pruned(&tree, 0.01)));
    c.bench_function("cross_validate_5fold", |b| {
        b.iter(|| cross_validate(&ds, &params, 5, 42, &Obs::disabled()).unwrap())
    });
}

fn bench_predict(c: &mut Criterion) {
    let table = synthetic_table(50_000);
    let ds = CartDataset::regression(&table, "y", &["x", "z", "k"]).unwrap();
    let params = CartParams::default().with_min_sizes(500, 250);
    let tree = Tree::fit(&ds, &params).unwrap();
    c.bench_function("predict_50k_rows", |b| b.iter(|| tree.predict(&table).unwrap()));
}

/// Forest fitting at 1 / 2 / 8 worker threads. The fitted forest is
/// bit-identical across the variants (each tree owns a derived seed);
/// only wall-clock time should move. On a single-core host the three
/// variants measure roughly the same, plus thread-spawn overhead.
fn bench_forest_threads(c: &mut Criterion) {
    let table = synthetic_table(10_000);
    let ds = CartDataset::regression(&table, "y", &["x", "z", "k"]).unwrap();
    let mut group = c.benchmark_group("forest_fit_threads");
    for (name, parallelism) in [
        ("1", Parallelism::Sequential),
        ("2", Parallelism::Threads(2)),
        ("8", Parallelism::Threads(8)),
    ] {
        let params = ForestParams {
            trees: 16,
            parallelism,
            tree_params: CartParams::default().with_min_sizes(100, 50),
            ..ForestParams::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| Forest::fit(&ds, &params, &Obs::disabled()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fit_scaling,
    bench_nominal_search_ablation,
    bench_prune_and_cv,
    bench_predict,
    bench_forest_threads
);
criterion_main!(benches);
