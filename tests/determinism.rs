//! Determinism suite: runs the pipeline — dcsim → q1/q2/q3 — once per
//! thread-count policy and diffs the serialized or Debug-printed results. dcsim is the
//! parallel stage: it derives per-rack RNG streams from the run seed and
//! merges in rack order, so the byte-for-byte output of every downstream
//! analysis must not depend on how many worker threads ran it. The run
//! report's deterministic section and the q1 cluster aggregation are
//! pinned the same way.

use rainshine::analysis::dataset::{rack_day_table, FaultFilter};
use rainshine::analysis::q1::{provision_components, provision_servers, ProvisionParams};
use rainshine::analysis::q2::{mf_comparison, sf_comparison};
use rainshine::analysis::q3::{dc_subset, env_analysis};
use rainshine::cart::params::CartParams;
use rainshine::dcsim::{FleetConfig, Simulation};
use rainshine::obs::Obs;
use rainshine::parallel::Parallelism;
use rainshine::telemetry::ids::{Sku, Workload};
use rainshine::telemetry::time::TimeGranularity;

/// Runs the whole pipeline under one thread policy and prints every
/// stage's result: the tickets as JSON, the analysis results with `Debug`.
/// `Debug` prints each finite float uniquely and keeps NaN distinct (the
/// JSON writer maps NaN to `null`), so comparing strings is a bit-level
/// diff.
fn pipeline(parallelism: Parallelism) -> Vec<(&'static str, String)> {
    let mut stages = Vec::new();

    // dcsim: ticket generation fans out per rack / per DC.
    let mut config = FleetConfig::small();
    config.parallelism = parallelism;
    let output = Simulation::new(config, 2024).run();
    let tickets = serde_json::to_string(&output.tickets).expect("tickets serialize");
    stages.push(("dcsim/tickets", tickets));

    // The rack-day table q2 and q3 analyse.
    let table = rack_day_table(&output, FaultFilter::AllHardware, 1)
        .expect("small fleet produces rack-days");
    let tree_params = CartParams::default().with_min_sizes(100, 50).with_cp(0.001);

    // q1: spare provisioning.
    let q1 = provision_servers(
        &output,
        Workload::W6,
        &ProvisionParams::new(1.0, TimeGranularity::Daily),
    )
    .expect("q1 runs");
    stages.push(("q1/provision", format!("{q1:?}")));

    // q2: single-factor and multi-factor SKU comparisons.
    let sf = sf_comparison(&output, &[Sku::S2, Sku::S4]).expect("q2 sf runs");
    stages.push(("q2/sf", format!("{sf:?}")));
    let mf = mf_comparison(&output, &table, &tree_params).expect("q2 mf runs");
    stages.push(("q2/mf", format!("{mf:?}")));

    // q3: environmental analysis on the DC1 subset.
    let dc1 = dc_subset(&table, "DC1").expect("DC1 rows exist");
    let q3 = env_analysis("DC1", &dc1, &tree_params).expect("q3 runs");
    stages.push(("q3/dc1", format!("{q3:?}")));

    stages
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
        let ctx = ExperimentContext::new_with_obs(
            Scale::Small,
            7,
            parallelism,
            CorruptionConfig::dirty_default(),
            obs.clone(),
        );
        let dir = std::env::temp_dir().join("rainshine-report-det");
        for id in ["t1", "f2", "f15"] {
            run_experiment(id, &ctx, &dir).expect("experiment runs");
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

/// The fan-out inside the experiments (t4's provisioning studies, f13's
/// and f18's two halves, f15's MF ‖ SF halves, p1's two evaluations, all
/// reading one `FleetAnalyses` memo) must not change an artifact: every id's CSV bytes and returned preview
/// are identical under `Sequential`, `Threads(2)` and `Auto`, on clean and
/// on dirty data.
#[test]
fn experiment_artifacts_do_not_depend_on_thread_count() {
    use std::collections::BTreeMap;

    use rainshine::dcsim::CorruptionConfig;
    use rainshine_bench::{run_experiment, ExperimentContext, Scale, ALL_EXPERIMENTS};

    let artifacts = |data: &str, corruption: &CorruptionConfig, parallelism: Parallelism| {
        let dir = std::env::temp_dir()
            .join("rainshine-fanout-det")
            .join(format!("{data}-{parallelism:?}"));
        let ctx = ExperimentContext::new_with_obs(
            Scale::Small,
            13,
            parallelism,
            corruption.clone(),
            Obs::disabled(),
        );
        let mut out = BTreeMap::new();
        for id in ALL_EXPERIMENTS {
            let preview = run_experiment(id, &ctx, &dir)
                .unwrap_or_else(|e| panic!("{id} under {parallelism:?}: {e}"));
            let csv = std::fs::read(dir.join(format!("{id}.csv"))).expect("experiment wrote a CSV");
            out.insert(*id, (preview, csv));
        }
        out
    };

    for (data, corruption) in
        [("clean", CorruptionConfig::default()), ("dirty", CorruptionConfig::dirty_default())]
    {
        let baseline = artifacts(data, &corruption, Parallelism::Sequential);
        assert_eq!(baseline.len(), ALL_EXPERIMENTS.len());
        for parallelism in [Parallelism::Threads(2), Parallelism::Auto] {
            let other = artifacts(data, &corruption, parallelism);
            for (id, (preview, csv)) in &baseline {
                let at = format!("{id} ({data} data, {parallelism:?})");
                assert_eq!(&other[id].0, preview, "preview of {at}");
                assert!(other[id].1 == *csv, "CSV bytes of {at}");
            }
        }
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
