//! Determinism suite: runs the full pipeline — dcsim → cart (forest + PDP)
//! → q1/q2/q3 → bootstrap — once per thread-count policy and diffs the
//! *serialized* results. Every parallel stage derives per-item RNG streams
//! from the stage seed and merges in item order, so the byte-for-byte
//! output must not depend on how many worker threads ran it.

use rainshine::analysis::dataset::{rack_day_table, FaultFilter};
use rainshine::analysis::q1::{provision_components, provision_servers, ProvisionParams};
use rainshine::analysis::q2::{mf_comparison, sf_comparison};
use rainshine::analysis::q3::{dc_subset, env_analysis};
use rainshine::cart::dataset::CartDataset;
use rainshine::cart::forest::{Forest, ForestParams};
use rainshine::cart::params::CartParams;
use rainshine::cart::pdp::{grid_over_column, partial_dependence_continuous_with, PdpParams};
use rainshine::cart::tree::Tree;
use rainshine::dcsim::{FleetConfig, Simulation};
use rainshine::obs::Obs;
use rainshine::parallel::Parallelism;
use rainshine::stats::bootstrap::bootstrap_ci_seeded;
use rainshine::telemetry::ids::{Sku, Workload};
use rainshine::telemetry::schema::columns;
use rainshine::telemetry::time::TimeGranularity;

/// Runs the whole pipeline under one thread policy and serializes every
/// stage's result. JSON (or `Debug` for the few non-`Serialize` types)
/// captures each float exactly, so comparing strings is a bit-level diff.
fn pipeline(parallelism: Parallelism) -> Vec<(&'static str, String)> {
    let mut stages = Vec::new();
    let json = |v: &dyn erased::Json| v.to_json();

    // dcsim: ticket generation fans out per rack / per DC.
    let mut config = FleetConfig::small();
    config.parallelism = parallelism;
    let output = Simulation::new(config, 2024).run();
    stages.push(("dcsim/tickets", json(&output.tickets)));

    // cart: forest fitting fans out per tree, PDP per grid point.
    let table = rack_day_table(&output, FaultFilter::AllHardware, 1)
        .expect("small fleet produces rack-days");
    let ds = CartDataset::regression(
        &table,
        columns::FAILURE_RATE,
        &[columns::AGE_MONTHS, columns::SKU, columns::WORKLOAD, columns::TEMPERATURE_F],
    )
    .expect("analysis schema has these columns");
    let tree_params = CartParams::default().with_min_sizes(100, 50).with_cp(0.001);
    let forest_params =
        ForestParams { trees: 8, parallelism, tree_params, ..ForestParams::default() };
    let forest = Forest::fit(&ds, &forest_params, &Obs::disabled()).expect("forest fits");
    stages.push(("cart/forest", json(&forest)));

    let tree = Tree::fit(&ds, &tree_params).expect("tree fits");
    let grid = grid_over_column(&table, columns::TEMPERATURE_F, 9).expect("grid");
    let pdp = partial_dependence_continuous_with(
        &tree,
        &table,
        columns::TEMPERATURE_F,
        &grid,
        &PdpParams { parallelism },
    )
    .expect("pdp evaluates");
    stages.push(("cart/pdp", json(&pdp)));

    // q1: spare provisioning (not Serialize; Debug prints full floats).
    let q1 = provision_servers(
        &output,
        Workload::W6,
        &ProvisionParams::new(1.0, TimeGranularity::Daily),
    )
    .expect("q1 runs");
    stages.push(("q1/provision", format!("{q1:?}")));

    // q2: single-factor and multi-factor SKU comparisons.
    let sf = sf_comparison(&output, &[Sku::S2, Sku::S4]).expect("q2 sf runs");
    stages.push(("q2/sf", json(&sf)));
    let mf = mf_comparison(&output, &table, &tree_params).expect("q2 mf runs");
    stages.push(("q2/mf", json(&mf)));

    // q3: environmental analysis on the DC1 subset.
    let dc1 = dc_subset(&table, "DC1").expect("DC1 rows exist");
    let q3 = env_analysis("DC1", &dc1, &tree_params).expect("q3 runs");
    stages.push(("q3/dc1", json(&q3)));

    // stats: seeded bootstrap fans out per replicate.
    let rates: Vec<f64> =
        table.continuous(columns::FAILURE_RATE).expect("response column").to_vec();
    let ci = bootstrap_ci_seeded(&rates, 200, 0.95, 7, parallelism, &Obs::disabled(), |xs| {
        xs.iter().sum::<f64>() / xs.len() as f64
    })
    .expect("bootstrap runs");
    stages.push(("stats/bootstrap", format!("{ci:?}")));

    stages
}

/// Tiny helper so `pipeline` can serialize heterogeneous stage results
/// through one call site.
mod erased {
    pub trait Json {
        fn to_json(&self) -> String;
    }
    impl<T: serde::Serialize> Json for T {
        fn to_json(&self) -> String {
            serde_json::to_string(self).expect("stage result serializes")
        }
    }
}

/// The `--report` contract: the deterministic section of the run report —
/// counters, histograms, stage call/item counts, quality payload — must be
/// byte-identical for a fixed (scale, seed, corruption) at every thread
/// count. Only wall times (excluded from the serialized section) may vary.
#[test]
fn run_report_bytes_do_not_depend_on_thread_count() {
    use rainshine::dcsim::CorruptionConfig;
    use rainshine_bench::{run_experiment, run_report, ExperimentContext, Scale};

    let report_for = |parallelism: Parallelism| {
        let obs = Obs::enabled();
        let mut ctx = ExperimentContext::new_with_obs(
            Scale::Small,
            7,
            parallelism,
            CorruptionConfig::dirty_default(),
            obs.clone(),
        );
        let dir = std::env::temp_dir().join("rainshine-report-det");
        for id in ["t1", "f2", "f15"] {
            run_experiment(id, &mut ctx, &dir).expect("experiment runs");
        }
        run_report(&obs, &ctx.output, Scale::Small, 7).deterministic_json()
    };

    let baseline = report_for(Parallelism::Sequential);
    assert!(baseline.contains("dcsim.run"), "simulation stages recorded");
    assert!(baseline.contains("experiment.f15"), "experiment stages recorded");
    assert!(baseline.contains("quality"), "quality payload attached");
    for parallelism in [Parallelism::Threads(2), Parallelism::Threads(8)] {
        assert_eq!(
            baseline,
            report_for(parallelism),
            "deterministic report diverged between Sequential and {parallelism:?}"
        );
    }
}

/// Pin for the q1 cluster aggregation: its per-cluster maps are `BTreeMap`s
/// keyed by leaf id, so the float sums and cluster listings accumulate in
/// sorted-key order. With `HashMap` iteration the order would follow each
/// map instance's random hash seed and repeated in-process runs could
/// disagree in the last bits of the MF spare counts.
#[test]
fn q1_cluster_aggregation_is_repeatable() {
    let output = Simulation::new(FleetConfig::small(), 2024).run();
    let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
    let servers_a = provision_servers(&output, Workload::W6, &params).expect("q1 runs");
    let servers_b = provision_servers(&output, Workload::W6, &params).expect("q1 runs");
    assert_eq!(format!("{servers_a:?}"), format!("{servers_b:?}"));
    let components_a = provision_components(&output, Workload::W6, &params).expect("q1-b runs");
    let components_b = provision_components(&output, Workload::W6, &params).expect("q1-b runs");
    assert_eq!(format!("{components_a:?}"), format!("{components_b:?}"));
}

#[test]
fn pipeline_results_do_not_depend_on_thread_count() {
    let baseline = pipeline(Parallelism::Sequential);
    for parallelism in [Parallelism::Threads(2), Parallelism::Threads(5), Parallelism::Auto] {
        let other = pipeline(parallelism);
        assert_eq!(baseline.len(), other.len());
        for ((name, a), (_, b)) in baseline.iter().zip(&other) {
            assert_eq!(a, b, "stage `{name}` diverged between Sequential and {parallelism:?}");
        }
    }
}
