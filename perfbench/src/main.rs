//! One pass of one benchmark workload, in a process of its own.
//!
//! ```text
//! perfbench <paper_reproduce|conformance_sweep|dirty_export> --seed N --out DIR [--trace]
//! ```
//!
//! Runs the workload once through the library entry points the
//! `experiments`, `conformance` and `simulate` binaries use, writes its
//! output files under `DIR`, and prints one JSON line on stdout: set-up and
//! total wall seconds, one record per operation with the files that make up
//! its output (`run.py` digests them), and, with `--trace`, the per-layer
//! figures. `run.py` starts one process per pass, so CPU time and peak RSS
//! are per pass.
//!
//! Untraced passes call only the plain entry points. A traced pass records
//! the program's own dcsim stage spans through an enabled `Obs`, diffing
//! snapshots around each outer call, times each outer call itself, and
//! then replays the public layer calls the workload makes, on the same
//! inputs, each under its own timer. The replay runs after `total_s` is
//! taken, so `total_s` of a traced pass differs from an untraced one only
//! by the cost of tracing.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rainshine_bench::{run_experiment, run_report, ExperimentContext, Scale, ALL_EXPERIMENTS};
use rainshine_cart::dataset::CartDataset;
use rainshine_cart::pdp::stratified_effect_nominal;
use rainshine_cart::tree::Tree;
use rainshine_conformance::{run_scenario, Claim, ConformanceReport, Scenario, SeedRun};
use rainshine_core::dataset::{rack_day_table, FaultFilter};
use rainshine_core::predict::{predict_failures, PredictionConfig};
use rainshine_core::{q1, q2, q3};
use rainshine_dcsim::{CorruptionConfig, FleetConfig, Simulation, SimulationOutput};
use rainshine_obs::{Collector, Obs};
use rainshine_parallel::Parallelism;
use rainshine_telemetry::ids::{DcId, RegionId, Sku, Workload};
use rainshine_telemetry::metrics::{self, SpatialGranularity};
use rainshine_telemetry::rma::HardwareFault;
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::TimeGranularity;
use serde_json::Value;

/// The calibrated scenarios the conformance sweep runs, read from the
/// checkout's `scenarios/` directory.
const SWEEP_SCENARIOS: &[&str] = &["full", "dirty", "env_off"];
/// Seeds per scenario in one conformance pass.
const SWEEP_SEEDS: u64 = 8;
/// Times the scenario specs are loaded per conformance pass. One load takes
/// about 0.2 ms, too little to time alone on a shared machine, so the
/// pass's `setup_s` is the mean over this many back-to-back loads.
const SPEC_LOADS: u32 = 100;

/// One operation of a pass: `attempted` units of work, `failed` of which
/// failed, whose output is `files` (relative to the pass directory).
struct Op {
    name: String,
    attempted: u64,
    failed: u64,
    files: Vec<String>,
    detail: String,
}

impl Op {
    fn single(name: &str, error: Option<String>, files: Vec<String>) -> Op {
        Op {
            name: name.to_string(),
            attempted: 1,
            failed: u64::from(error.is_some()),
            files,
            detail: error.unwrap_or_default(),
        }
    }
}

/// Per-layer figures of a traced pass, summed by name.
#[derive(Default)]
struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn take(&mut self, name: &str) -> f64 {
        self.0.remove(name).unwrap_or(0.0)
    }

    /// Adds the program's dcsim stage spans recorded between two snapshots
    /// of one `Obs`.
    fn add_dcsim(&mut self, before: &Collector, after: &Collector) {
        let delta = |stage: &str| {
            let get = |c: &Collector| c.stages.get(stage).copied().unwrap_or_default();
            let (b, a) = (get(before), get(after));
            ((a.wall_nanos - b.wall_nanos) as f64 / 1e9, (a.items - b.items) as f64)
        };
        let (run_s, tickets) = delta("dcsim.run");
        self.add("dcsim.run_s", run_s);
        self.add("dcsim.tickets", tickets);
        for stage in ["tickets_hardware", "tickets_bursts", "corruption", "sanitize"] {
            self.add(&format!("dcsim.{stage}_s"), delta(&format!("dcsim.{stage}")).0);
        }
    }

    /// Adds the sanitizer's counts from the public quality report.
    fn add_quality(&mut self, output: &SimulationOutput) {
        let q = &output.quality;
        self.add("quality.tickets_in", q.tickets_seen as f64);
        self.add("quality.repaired", q.classes.values().map(|c| c.repaired).sum::<u64>() as f64);
        self.add("quality.quarantined", q.tickets_seen.saturating_sub(q.tickets_kept) as f64);
        self.add("quality.tickets_kept", q.tickets_kept as f64);
    }

    /// Derives the ratios from the summed figures and each layer's share of
    /// `whole` seconds; what no layer accounts for is unattributed.
    fn finish(&mut self, whole: f64, shares: &[(&str, &[&str])]) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let kept = self.take("quality.tickets_kept");
        let mu_tickets = self.take("metrics.mu_tickets");
        let derived = [
            (
                "dcsim.ns_per_ticket",
                ratio(1e9 * self.get("dcsim.run_s"), self.get("dcsim.tickets")),
            ),
            ("quality.kept_ratio", ratio(kept, self.get("quality.tickets_in"))),
            (
                "dataset.ns_per_row",
                ratio(1e9 * self.get("dataset.rack_day_table_s"), self.get("dataset.rows")),
            ),
            (
                "metrics.mu_ns_per_ticket",
                ratio(
                    1e9 * (self.get("metrics.mu_daily_s") + self.get("metrics.mu_hourly_s")),
                    mu_tickets,
                ),
            ),
            (
                "q1.distinct_input_ratio",
                ratio(self.get("q1.distinct_inputs"), self.get("q1.provision_calls")),
            ),
        ];
        for (name, value) in derived {
            self.0.insert(name.into(), value);
        }
        let mut attributed = 0.0;
        for (share, parts) in shares {
            let s = parts.iter().fold(0.0, |acc, p| acc + self.get(p));
            attributed += s;
            self.0.insert(format!("share.{share}"), ratio(s, whole));
        }
        self.0.insert("trace.unattributed_share".into(), ratio(whole - attributed, whole));
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

struct Pass {
    setup_s: f64,
    total_s: f64,
    ops: Vec<Op>,
    layers: Layers,
}

fn write_file(dir: &Path, name: &str, content: &str) -> Result<(), String> {
    std::fs::write(dir.join(name), content).map_err(|e| format!("cannot write {name}: {e}"))
}

type AnyError = Box<dyn std::error::Error>;

// ------------------------------------------------------------------ paper

/// Every `q1::provision_servers` call the paper experiments make on the
/// paper fleet, as (workload, SLA, granularity): t4 sweeps both
/// granularities, f10 and f12 one each, f1 and f11 the daily 100 % SLA.
/// (a2 makes one more, on its own medium fleet.)
fn paper_provision_plan() -> Vec<(Workload, f64, TimeGranularity)> {
    let (daily, hourly) = (TimeGranularity::Daily, TimeGranularity::Hourly);
    let mut plan = Vec::new();
    for g in [daily, hourly, daily, hourly] {
        for w in [Workload::W1, Workload::W6] {
            for sla in [0.90, 0.95, 1.00] {
                plan.push((w, sla, g));
            }
        }
    }
    for _f1_and_f11 in 0..2 {
        plan.push((Workload::W1, 1.0, daily));
        plan.push((Workload::W6, 1.0, daily));
    }
    plan
}

fn paper_reproduce(seed: u64, out: &Path, trace: bool) -> Result<Pass, String> {
    let obs = if trace { Obs::enabled() } else { Obs::disabled() };
    let t0 = Instant::now();
    let mut ctx = if trace {
        ExperimentContext::new_with_obs(
            Scale::Paper,
            seed,
            Parallelism::Auto,
            CorruptionConfig::default(),
            obs.clone(),
        )
    } else {
        ExperimentContext::new(Scale::Paper, seed)
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    layers.add_dcsim(&Collector::new(), &obs.snapshot());
    layers.add_quality(&ctx.output);
    let mut ops = Vec::new();
    for id in ALL_EXPERIMENTS {
        let (result, secs) = timed(|| run_experiment(id, &mut ctx, out));
        layers.add(&format!("experiment.{id}_s"), secs);
        ops.push(Op::single(id, result.err().map(|e| e.to_string()), vec![format!("{id}.csv")]));
    }
    // Built from a disabled handle in both modes, so the report's bytes,
    // and hence its reference digest, do not depend on tracing.
    let report = run_report(&Obs::disabled(), &ctx.output, Scale::Paper, seed);
    let written = write_file(out, "run_report.json", &(report.deterministic_json() + "\n"));
    ops.push(Op::single("run_report", written.err(), vec!["run_report.json".into()]));
    let total_s = t0.elapsed().as_secs_f64();

    if trace {
        paper_layers(&mut ctx, &mut layers).map_err(|e| format!("layer replay: {e}"))?;
        layers.finish(
            total_s,
            &[
                ("dcsim", &["dcsim.run_s"]),
                ("dataset", &["dataset.rack_day_table_s"]),
                (
                    "q1_mu",
                    &[
                        "q1.provision_servers_daily_s",
                        "q1.provision_servers_hourly_s",
                        "q1.provision_components_s",
                    ],
                ),
                (
                    "cart_analyses",
                    &[
                        "q2.sf_comparison_s",
                        "q2.mf_comparison_s",
                        "q3.env_analysis_s",
                        "q3.setpoint_tradeoff_s",
                        "predict.predict_failures_s",
                    ],
                ),
            ],
        );
    }
    Ok(Pass { setup_s, total_s, ops, layers })
}

/// Replays the layer calls the paper experiments make on the paper fleet,
/// with the same arguments, each under its own timer.
fn paper_layers(ctx: &mut ExperimentContext, layers: &mut Layers) -> Result<(), AnyError> {
    let stride = ctx.day_stride_pub();
    let cart = ctx.rack_day_cart();
    let output = &ctx.output;

    let disk_filter = FaultFilter::Component(HardwareFault::Disk);
    for filter in [FaultFilter::AllHardware, disk_filter] {
        let (table, secs) = timed(|| rack_day_table(output, filter, stride));
        layers.add("dataset.rack_day_table_s", secs);
        layers.add("dataset.rows", table?.rows() as f64);
    }

    let hw = output.hardware_tickets();
    let (start, end) = (output.config.start, output.config.end);
    for (g, name) in [(TimeGranularity::Daily, "daily"), (TimeGranularity::Hourly, "hourly")] {
        let (_, secs) = timed(|| metrics::mu(&hw, SpatialGranularity::Rack, g, start, end));
        layers.add(&format!("metrics.mu_{name}_s"), secs);
        layers.add("metrics.mu_tickets", hw.len() as f64);
    }

    let plan = paper_provision_plan();
    let mut granularities = Vec::new();
    for &(workload, sla, g) in &plan {
        let params = q1::ProvisionParams::new(sla, g);
        let (r, secs) = timed(|| q1::provision_servers(output, workload, &params));
        r?;
        let name = if g == TimeGranularity::Daily { "daily" } else { "hourly" };
        layers.add(&format!("q1.provision_servers_{name}_s"), secs);
        // μ is computed fleet-wide per granularity, whatever the workload
        // and SLA, so each granularity is one distinct input.
        if !granularities.contains(&name) {
            granularities.push(name);
        }
    }
    layers.add("q1.provision_calls", plan.len() as f64);
    layers.add("q1.distinct_inputs", granularities.len() as f64);
    for workload in [Workload::W1, Workload::W6] {
        let params = q1::ProvisionParams::new(1.0, TimeGranularity::Daily);
        let (r, secs) = timed(|| q1::provision_components(output, workload, &params));
        r?;
        layers.add("q1.provision_components_s", secs);
    }

    for skus in [&[Sku::S1, Sku::S2, Sku::S3, Sku::S4][..], &[Sku::S2, Sku::S4]] {
        let (r, secs) = timed(|| q2::sf_comparison(output, skus));
        r?;
        layers.add("q2.sf_comparison_s", secs);
    }
    let all_hw = ctx.all_hw_table().clone();
    let disk = ctx.disk_table().clone();
    let output = &ctx.output;
    let (r, secs) = timed(|| q2::mf_comparison(output, &all_hw, &cart));
    r?;
    layers.add("q2.mf_comparison_s", secs);
    let dc1 = q3::dc_subset(&disk, "DC1")?;
    for dc in ["DC1", "DC2"] {
        let subset = q3::dc_subset(&disk, dc)?;
        let (r, secs) = timed(|| q3::env_analysis(dc, &subset, &cart));
        r?;
        layers.add("q3.env_analysis_s", secs);
    }
    let caps = [72.0, 74.0, 76.0, 78.0, 80.0, 82.0, f64::INFINITY];
    let model = q3::SetpointModel::default();
    let (r, secs) = timed(|| q3::setpoint_tradeoff(&dc1, &caps, &model, &cart));
    r?;
    layers.add("q3.setpoint_tradeoff_s", secs);
    let unbalanced = PredictionConfig { downsample_ratio: None, ..PredictionConfig::default() };
    for config in [PredictionConfig::default(), unbalanced] {
        let (r, secs) = timed(|| predict_failures(output, &config));
        r?;
        layers.add("predict.predict_failures_s", secs);
    }

    // CART alone, on the tables and parameters q2 and q3 hand it: the
    // control tree q3 fits on DC1's disk rack-days, and the SKU effect q2
    // stratifies on the all-hardware table.
    let ds = CartDataset::regression(&dc1, columns::FAILURE_RATE, q3::ENV_CONTROLS)?;
    let (r, secs) = timed(|| Tree::fit(&ds, &cart));
    r?;
    layers.add("cart.tree_fit_s", secs);
    layers.add("cart.tree_fit_rows", dc1.rows() as f64);
    let (r, secs) = timed(|| {
        stratified_effect_nominal(
            &all_hw,
            columns::FAILURE_RATE,
            columns::SKU,
            q2::MF_CONTROLS,
            &cart,
        )
    });
    r?;
    layers.add("cart.stratified_effect_s", secs);
    Ok(())
}

// ------------------------------------------------------------ conformance

fn load_scenarios() -> Result<Vec<Scenario>, String> {
    SWEEP_SCENARIOS
        .iter()
        .map(|name| {
            let path = PathBuf::from("scenarios").join(format!("{name}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let scenario = Scenario::from_json(&text).map_err(|e| format!("{name}: {e}"))?;
            scenario.fleet_config().map_err(|e| format!("{name}: {e}"))?;
            Ok(scenario)
        })
        .collect()
}

fn conformance_sweep(seed: u64, out: &Path, trace: bool) -> Result<Pass, String> {
    let mut scenarios = Vec::new();
    let (loaded, secs) = timed(|| {
        (0..SPEC_LOADS).try_for_each(|_| load_scenarios().map(|loaded| scenarios = loaded))
    });
    loaded?;
    let setup_s = secs / f64::from(SPEC_LOADS);
    // Each benchmark seed sweeps its own disjoint range of scenario seeds.
    let seeds: Vec<u64> =
        (0..SWEEP_SEEDS).map(|i| seed.wrapping_mul(SWEEP_SEEDS).wrapping_add(i)).collect();
    let t_work = Instant::now();
    let obs = if trace { Obs::enabled() } else { Obs::disabled() };
    let mut outcomes = Vec::new();
    let mut ops = Vec::new();
    let mut layers = Layers::default();
    for scenario in &scenarios {
        let (outcome, secs) = timed(|| run_scenario(scenario, &seeds, Parallelism::Auto, &obs));
        let outcome = outcome.map_err(|e| format!("scenario `{}`: {e}", scenario.name))?;
        layers.add("conformance.sweep_s", secs);
        for claim in &outcome.claims {
            ops.push(Op {
                name: format!("{}/{}", outcome.scenario, claim.name),
                attempted: claim.seeds as u64,
                failed: claim.errors as u64,
                files: vec!["conformance.json".into()],
                detail: claim.failures.join("; "),
            });
            layers.add("conformance.claims_recovered", claim.recovered as f64);
        }
        outcomes.push(outcome);
    }
    // The deterministic report the `conformance` binary writes, without
    // the oracle suite; built from a disabled handle in both modes.
    let report = ConformanceReport::new(outcomes, Vec::new(), &Obs::disabled().snapshot());
    let json = format!("{}\n", report.deterministic_json());
    let (written, secs) = timed(|| write_file(out, "conformance.json", &json));
    written?;
    layers.add("export.write_s", secs);
    layers.add("export.bytes", json.len() as f64);
    // One pass loads the specs once: count one mean load, not all of them.
    let total_s = setup_s + t_work.elapsed().as_secs_f64();

    if trace {
        let seed_runs = (scenarios.len() as u64 * SWEEP_SEEDS) as f64;
        let sweep_s = layers.take("conformance.sweep_s");
        layers.add("conformance.seeds_per_s", seed_runs / sweep_s.max(1e-9));
        conformance_layers(&scenarios, &seeds, &mut layers);
        // The replay runs every seed sequentially, so these shares are
        // shares of the sweep's CPU time rather than of its wall time.
        let replay_s = layers.take("replay_s");
        let seed_run_s = layers.get("dcsim.run_s") / seed_runs;
        let evaluate_s = layers.take("conformance.evaluate_total_s") / seed_runs;
        layers.add("conformance.seed_run_s", seed_run_s);
        layers.add("conformance.evaluate_s", evaluate_s);
        layers.finish(
            replay_s,
            &[
                ("dcsim", &["dcsim.run_s"]),
                ("dataset", &["claims.dataset_s"]),
                ("q1_mu", &["q1.provision_servers_daily_s", "metrics.mu_daily_s"]),
                ("cart_analyses", &["cart.tree_fit_s", "q2.mf_comparison_s", "q3.env_analysis_s"]),
            ],
        );
        layers.take("claims.dataset_s");
    }
    Ok(Pass { setup_s, total_s, ops, layers })
}

/// Replays every (scenario, seed) of the sweep sequentially: the
/// simulation under an enabled `Obs`, then each claim under its own timer,
/// bucketed by the layer the claim exercises.
fn conformance_layers(scenarios: &[Scenario], seeds: &[u64], layers: &mut Layers) {
    let obs = Obs::enabled();
    for scenario in scenarios {
        let Ok(mut config) = scenario.fleet_config() else { continue };
        // As in `SeedRun::new`: each seed's simulation runs sequentially.
        config.parallelism = Parallelism::Sequential;
        for &seed in seeds {
            let before = obs.snapshot();
            let (output, sim_s) =
                timed(|| Simulation::new(config.clone(), seed).run_with_obs(&obs));
            layers.add_dcsim(&before, &obs.snapshot());
            layers.add_quality(&output);
            layers.add("replay_s", sim_s);
            // The table the evidence claims share, built once more on its
            // own to time the dataset layer (outside `replay_s`).
            let (table, table_s) =
                timed(|| rack_day_table(&output, FaultFilter::AllHardware, scenario.day_stride));
            layers.add("dataset.rack_day_table_s", table_s);
            let rows = table.map(|t| t.rows()).unwrap_or(0) as f64;
            layers.add("dataset.rows", rows);
            let run = SeedRun::from_output(seed, output, scenario.day_stride);
            for spec in &scenario.claims {
                let (_, secs) = timed(|| run.evaluate(&spec.claim));
                layers.add("replay_s", secs);
                layers.add("conformance.evaluate_total_s", secs);
                let layer = match spec.claim {
                    Claim::SfOverprovision { .. }
                    | Claim::MfSfGap { .. }
                    | Claim::TcoSavings { .. } => "q1.provision_servers_daily_s",
                    Claim::BurstLotTails { .. } => "metrics.mu_daily_s",
                    Claim::DriverImportance { .. } => "cart.tree_fit_s",
                    Claim::MfSkuRatio { .. } => "q2.mf_comparison_s",
                    Claim::TempThreshold { .. } | Claim::EnvRules { .. } => "q3.env_analysis_s",
                    _ => continue,
                };
                layers.add(layer, secs);
                if layer == "cart.tree_fit_s" {
                    layers.add("cart.tree_fit_rows", rows);
                }
            }
            // The first claim that reads the shared table builds it inside
            // its own time; count that build as the dataset layer.
            if scenario.claims.iter().any(|spec| reads_shared_table(&spec.claim)) {
                layers.add("claims.dataset_s", table_s);
            }
        }
    }
}

/// Claims that read the scenario's default all-hardware rack-day table.
fn reads_shared_table(claim: &Claim) -> bool {
    matches!(
        claim,
        Claim::AgeBathtub { .. }
            | Claim::RegionGap { .. }
            | Claim::WeekdaySpread { .. }
            | Claim::SeasonalLift { .. }
            | Claim::LowHumidityLift { .. }
            | Claim::WorkloadExtremes { .. }
            | Claim::DriverImportance { .. }
    )
}

// ----------------------------------------------------------- dirty export

fn dirty_export(seed: u64, out: &Path, trace: bool) -> Result<Pass, String> {
    let obs = if trace { Obs::enabled() } else { Obs::disabled() };
    let t0 = Instant::now();
    let mut config = FleetConfig::paper_scale();
    config.parallelism = Parallelism::Auto;
    config.corruption = CorruptionConfig::dirty_default();
    let simulation = Simulation::new(config, seed);
    let output = if trace { simulation.run_with_obs(&obs) } else { simulation.run() };
    let setup_s = t0.elapsed().as_secs_f64();
    let mut layers = Layers::default();
    layers.add_dcsim(&Collector::new(), &obs.snapshot());
    layers.add_quality(&output);
    let mut ops = Vec::new();
    for (name, render) in EXPORT_FILES {
        let (content, render_s) = timed(|| render(&output));
        let (written, write_s) = timed(|| write_file(out, name, &content));
        layers.add("export.write_s", render_s + write_s);
        layers.add("export.bytes", content.len() as f64);
        let error = written.err().or_else(|| check_export(name, &content, &output));
        ops.push(Op::single(name, error, vec![name.to_string()]));
    }
    let total_s = t0.elapsed().as_secs_f64();
    if trace {
        layers.finish(total_s, &[("dcsim", &["dcsim.run_s"]), ("export", &["export.write_s"])]);
    }
    Ok(Pass { setup_s, total_s, ops, layers })
}

/// Renders one file `simulate` writes.
type Render = fn(&SimulationOutput) -> String;

/// The files `simulate` writes, rendered byte for byte as it renders them.
const EXPORT_FILES: [(&str, Render); 4] = [
    ("fleet.csv", fleet_csv),
    ("tickets.csv", tickets_csv),
    ("environment.csv", environment_csv),
    ("manifest.json", manifest_json),
];

fn fleet_csv(output: &SimulationOutput) -> String {
    let mut fleet = String::from(
        "rack,dc,region,row,sku,workload,power_kw,commissioned_day,servers,disks_per_server,dimms_per_server\n",
    );
    for r in &output.fleet.racks {
        let spec = r.sku_spec();
        fleet.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            r.id,
            r.dc,
            r.region.0,
            r.row.0,
            r.sku,
            r.workload,
            r.power_kw,
            r.commissioned_day,
            r.servers,
            spec.disks_per_server,
            spec.dimms_per_server
        ));
    }
    fleet
}

fn tickets_csv(output: &SimulationOutput) -> String {
    let mut tickets = String::from(
        "device,dc,region,row,rack,server,category,fault,opened_hour,resolved_hour,repeat_count,false_positive\n",
    );
    for t in &output.tickets {
        tickets.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            t.device,
            t.location.dc,
            t.location.region.0,
            t.location.row.0,
            t.location.rack,
            t.location.server,
            t.fault.category(),
            t.fault,
            t.opened.hours(),
            t.resolved.hours(),
            t.repeat_count,
            t.false_positive
        ));
    }
    tickets
}

/// One row per (DC, region, day) from the ingested view, as `simulate`
/// writes it: blacked-out cells are `nan`, spikes winsorized.
fn environment_csv(output: &SimulationOutput) -> String {
    let mut env = String::from("dc,region,day,temp_f,rh\n");
    for dc_env in output.env.datacenters() {
        let regions = dc_env.region_temp_offsets.len() as u8;
        for region in 1..=regions {
            for day in output.config.start.days()..output.config.end.days() {
                let c = output.ingested_daily_env(DcId(dc_env.dc.0), RegionId(region), day);
                env.push_str(&format!(
                    "{},{},{},{:.2},{:.2}\n",
                    dc_env.dc, region, day, c.temp_f, c.rh
                ));
            }
        }
    }
    env
}

fn manifest_json(output: &SimulationOutput) -> String {
    let manifest = serde_json::json!({
        "seed": output.seed,
        "start_day": output.config.start.days(),
        "end_day": output.config.end.days(),
        "racks": output.fleet.racks.len(),
        "servers": output.fleet.total_servers(),
        "tickets": output.tickets.len(),
        "true_positives": output.true_positives().len(),
        "hardware_tickets": output.hardware_tickets().len(),
        "hazard": output.config.hazard,
        "corruption": output.config.corruption,
        "quality": output.quality,
    });
    // An empty manifest fails `check_export`.
    serde_json::to_string_pretty(&manifest).unwrap_or_default()
}

/// Checks an exported file against the output it was rendered from: one
/// CSV line per rack, ticket or (DC, region, day) cell plus the header, and
/// a manifest that parses back with the right ticket count.
fn check_export(name: &str, content: &str, output: &SimulationOutput) -> Option<String> {
    let cells: u64 = output
        .env
        .datacenters()
        .iter()
        .map(|d| d.region_temp_offsets.len() as u64 * output.config.span_days())
        .sum();
    let expected_lines = match name {
        "fleet.csv" => output.fleet.racks.len() as u64 + 1,
        "tickets.csv" => output.tickets.len() as u64 + 1,
        "environment.csv" => cells + 1,
        _ => {
            let tickets = serde_json::from_str::<serde_json::Value>(content)
                .ok()
                .and_then(|v| v.get("tickets").and_then(serde_json::Value::as_f64));
            return (tickets != Some(output.tickets.len() as f64))
                .then(|| format!("{name}: ticket count {tickets:?} does not parse back"));
        }
    };
    let lines = content.lines().count() as u64;
    (lines != expected_lines).then(|| format!("{name}: {lines} lines, expected {expected_lines}"))
}

// -------------------------------------------------------------------- main

fn pass_json(pass: &Pass) -> Result<String, String> {
    let ops = pass
        .ops
        .iter()
        .map(|op| {
            Value::Object(vec![
                ("name".into(), Value::Str(op.name.clone())),
                ("attempted".into(), Value::U64(op.attempted)),
                ("failed".into(), Value::U64(op.failed)),
                ("files".into(), Value::Array(op.files.iter().cloned().map(Value::Str).collect())),
                ("detail".into(), Value::Str(op.detail.clone())),
            ])
        })
        .collect();
    let layers = pass.layers.0.iter().map(|(k, v)| (k.clone(), Value::F64(*v))).collect();
    let line = Value::Object(vec![
        ("setup_s".into(), Value::F64(pass.setup_s)),
        ("total_s".into(), Value::F64(pass.total_s)),
        ("ops".into(), Value::Array(ops)),
        ("layers".into(), Value::Object(layers)),
    ]);
    serde_json::to_string(&line).map_err(|e| format!("cannot encode the result: {e}"))
}

fn run() -> Result<String, String> {
    let usage = "usage: perfbench <paper_reproduce|conformance_sweep|dirty_export> \
                 --seed N --out DIR [--trace]";
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or(usage)?;
    let (mut seed, mut out, mut trace) = (None, None, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => {
                let v = args.next().ok_or(usage)?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("bad seed `{v}`: {e}"))?);
            }
            "--out" => out = Some(PathBuf::from(args.next().ok_or(usage)?)),
            "--trace" => trace = true,
            other => return Err(format!("unknown flag `{other}`; {usage}")),
        }
    }
    let (seed, out) = (seed.ok_or(usage)?, out.ok_or(usage)?);
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let pass = match workload.as_str() {
        "paper_reproduce" => paper_reproduce(seed, &out, trace)?,
        "conformance_sweep" => conformance_sweep(seed, &out, trace)?,
        "dirty_export" => dirty_export(seed, &out, trace)?,
        other => return Err(format!("unknown workload `{other}`; {usage}")),
    };
    pass_json(&pass)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
