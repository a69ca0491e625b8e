//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment id (`t1`–`t4`, `f1`–`f18`) maps to one artifact of the
//! paper's evaluation (see `DESIGN.md` §4). [`run_experiment`] computes the
//! artifact from a simulation run, writes a CSV under the output directory,
//! and returns a printable preview. The ids share one
//! [`FleetAnalyses`] memo on the [`ExperimentContext`], so a table or
//! study several artifacts read is computed once per run. The
//! `rainshine experiments` subcommand drives all of them; the `perfbench/`
//! benchmark reuses the same context for its per-layer timings.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use rainshine_cart::params::CartParams;
use rainshine_conformance::Scenario;
use rainshine_core::analyses::FleetAnalyses;
use rainshine_core::evidence::{self, SeriesRow};
use rainshine_core::predict::{
    build_prediction_table, evaluate_prediction, Confusion, PredictionConfig, HORIZON_DAYS,
};
use rainshine_core::tco::TcoModel;
use rainshine_core::{q1, q2, q3};
pub use rainshine_dcsim::Scale;
use rainshine_dcsim::{FleetConfig, Simulation, SimulationOutput};
use rainshine_telemetry::frame::Frame;
use rainshine_telemetry::ids::{DcId, Workload};
use rainshine_telemetry::rma::category_breakdown;
use rainshine_telemetry::schema::candidate_features;
use rainshine_telemetry::time::TimeGranularity;

/// All experiment ids: the paper's artifacts in paper order, followed by
/// the extensions — `p1` (failure prediction, the paper's future work) and
/// the negative-control ablations `a1`–`a3` (disable one planted effect,
/// verify the analysis stops finding it).
pub const ALL_EXPERIMENTS: &[&str] = &[
    "t1", "t2", "t3", "t4", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11",
    "f12", "f13", "f14", "f15", "f16", "f17", "f18", "p1", "p2", "a1", "a2", "a3",
];

/// Builds the run report for a finished (or in-progress) run: the obs
/// snapshot plus run metadata and the sanitizer's data-quality payload.
///
/// The thread count is deliberately *not* recorded: the deterministic
/// section must stay byte-identical at every `Parallelism` setting.
pub fn run_report(
    obs: &rainshine_obs::Obs,
    output: &SimulationOutput,
    scale: Scale,
    seed: u64,
) -> rainshine_obs::RunReport {
    let mut report = rainshine_obs::RunReport::from_collector(&obs.snapshot());
    report.set_meta("scale", serde::Value::Str(scale.name().to_string()));
    report.set_meta("seed", serde::Value::U64(seed));
    report.set_meta("corruption", serde::Serialize::to_value(&output.config.corruption));
    report.set_quality(serde::Serialize::to_value(&output.quality));
    report
}

/// Shared state across experiments: one simulation run plus the memo of
/// its shared analyses.
pub struct ExperimentContext {
    /// The simulation output all experiments read.
    pub output: SimulationOutput,
    /// The observability handle the simulation recorded into; experiments
    /// keep recording into it as they run. Disabled unless the context was
    /// built with [`ExperimentContext::new_with_obs`].
    pub obs: rainshine_obs::Obs,
    scale: Scale,
    analyses: FleetAnalyses,
}

impl ExperimentContext {
    /// Runs the simulation for `scale` with `seed` on clean data, at
    /// [`rainshine_parallel::Parallelism::Auto`], uninstrumented.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self::new_with_obs(
            scale,
            seed,
            rainshine_parallel::Parallelism::Auto,
            rainshine_dcsim::CorruptionConfig::default(),
            rainshine_obs::Obs::disabled(),
        )
    }

    /// Runs the simulation with an explicit thread policy, dirty-data
    /// injection profile and instrumentation handle. The ticket stream is
    /// the same for every `parallelism`; only wall-clock time changes.
    /// Injected defects are sanitized by the ingestion pipeline before any
    /// experiment sees the tickets; `output.quality` reports what was
    /// repaired or quarantined. The simulation and every subsequent
    /// [`run_experiment`] call record stage counts and timings into `obs`;
    /// the deterministic section of the resulting report is byte-identical
    /// for a fixed (scale, seed, corruption) at every `parallelism` setting.
    pub fn new_with_obs(
        scale: Scale,
        seed: u64,
        parallelism: rainshine_parallel::Parallelism,
        corruption: rainshine_dcsim::CorruptionConfig,
        obs: rainshine_obs::Obs,
    ) -> Self {
        let mut config = scale.config();
        config.parallelism = parallelism;
        config.corruption = corruption;
        ExperimentContext {
            output: Simulation::new(config, seed).run_with_obs(&obs),
            obs,
            scale,
            analyses: FleetAnalyses::default(),
        }
    }

    /// Day stride of the memoised rack-day tables (public for experiments
    /// that build their own series).
    pub fn day_stride_pub(&self) -> usize {
        match self.scale {
            Scale::Small | Scale::Medium => 1,
            Scale::Paper => 2,
        }
    }

    /// CART parameters scaled to the rack-day table size.
    pub fn rack_day_cart(&self) -> CartParams {
        let rows = self.output.fleet.racks.len() as u64 * self.output.config.span_days()
            / self.day_stride_pub() as u64;
        let min_leaf = (rows / 1500).max(30) as usize;
        CartParams::default().with_min_sizes(min_leaf * 2, min_leaf).with_cp(0.0005)
    }

    /// The all-hardware rack-day table (memoised).
    pub fn all_hw_table(&self) -> Arc<Frame> {
        self.analyses
            .all_hw_table(&self.output, self.day_stride_pub())
            .expect("fleet has rack-days")
    }

    /// The disk-only rack-day table (memoised).
    pub fn disk_table(&self) -> Arc<Frame> {
        self.analyses.disk_table(&self.output, self.day_stride_pub()).expect("fleet has rack-days")
    }
}

fn write_csv(dir: &Path, id: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut content = String::with_capacity(rows.len() * 32 + header.len() + 1);
    content.push_str(header);
    content.push('\n');
    for r in rows {
        content.push_str(r);
        content.push('\n');
    }
    fs::write(dir.join(format!("{id}.csv")), content)
}

fn series_csv(rows: &[SeriesRow]) -> Vec<String> {
    rows.iter().map(|r| format!("{},{:.6},{:.6},{}", r.label, r.mean, r.sd, r.n)).collect()
}

fn series_preview(title: &str, rows: &[SeriesRow]) -> String {
    let mut s = format!("{title}\n");
    for r in rows {
        let _ = writeln!(s, "  {:>10}  mean={:.4}  sd={:.4}  n={}", r.label, r.mean, r.sd, r.n);
    }
    s
}

/// Errors an experiment run can produce.
pub type ExperimentError = Box<dyn std::error::Error + Send + Sync + 'static>;

/// Runs one experiment, writes its CSV to `out_dir`, and returns a preview.
///
/// # Errors
///
/// Returns an error for unknown ids, analysis failures, or I/O failures.
pub fn run_experiment(
    id: &str,
    ctx: &ExperimentContext,
    out_dir: &Path,
) -> Result<String, ExperimentError> {
    let obs = ctx.obs.clone();
    let _span = obs.span_owned(format!("experiment.{id}"));
    let result = dispatch(id, ctx, out_dir);
    obs.incr(if result.is_ok() { "experiments.ok" } else { "experiments.failed" }, 1);
    result
}

fn dispatch(id: &str, ctx: &ExperimentContext, out_dir: &Path) -> Result<String, ExperimentError> {
    match id {
        "t1" => t1(ctx, out_dir),
        "t2" => t2(ctx, out_dir),
        "t3" => t3(out_dir),
        "t4" => t4(ctx, out_dir),
        "f1" | "f11" => f11(ctx, out_dir, id),
        "f2" => evidence_fig(ctx, out_dir, id, "Fig 2 — λ by DC region", evidence::by_region),
        "f3" => evidence_fig(ctx, out_dir, id, "Fig 3 — λ by day of week (2012)", |t| {
            evidence::by_day_of_week(t, 0)
        }),
        "f4" => evidence_fig(ctx, out_dir, id, "Fig 4 — λ by month (2012)", |t| {
            evidence::by_month(t, 0)
        }),
        "f5" => {
            evidence_fig(ctx, out_dir, id, "Fig 5 — λ by relative humidity", evidence::by_rh_bin)
        }
        "f6" => evidence_fig(ctx, out_dir, id, "Fig 6 — λ by workload", evidence::by_workload),
        "f7" => evidence_fig(ctx, out_dir, id, "Fig 7 — λ by SKU", evidence::by_sku),
        "f8" => {
            evidence_fig(ctx, out_dir, id, "Fig 8 — λ by rack power rating", evidence::by_power)
        }
        "f9" => {
            evidence_fig(ctx, out_dir, id, "Fig 9 — λ by equipment age (months)", evidence::by_age)
        }
        "f10" => f10(ctx, out_dir, TimeGranularity::Daily, "f10"),
        "f12" => f10(ctx, out_dir, TimeGranularity::Hourly, "f12"),
        "f13" => f13(ctx, out_dir),
        "f14" => f14(ctx, out_dir),
        "f15" => f15(ctx, out_dir),
        "f16" => evidence_fig(
            ctx,
            out_dir,
            id,
            "Fig 16 — temperature vs all hardware failures (SF)",
            q3::rate_by_temperature,
        ),
        "f17" => f17(ctx, out_dir),
        "f18" => f18(ctx, out_dir),
        "p1" => p1(ctx, out_dir),
        "p2" => p2(ctx, out_dir),
        "a1" | "a2" | "a3" => ablation(ctx, out_dir, id),
        other => Err(format!("unknown experiment id `{other}`").into()),
    }
}

fn t1(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let rows: Vec<String> = ctx
        .output
        .fleet
        .datacenters
        .iter()
        .map(|d| {
            format!("{},{},{} nines,{}", d.id, d.packaging, d.availability_nines, d.cooling.name())
        })
        .collect();
    write_csv(dir, "t1", "facility,packaging,design_availability,cooling", &rows)?;
    Ok(format!("Table I — DC properties\n  {}\n", rows.join("\n  ")))
}

fn t2(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let tp = ctx.output.true_positives();
    let mut rows = Vec::new();
    let mut preview = String::from("Table II — RMA classification (percent of DC tickets)\n");
    for dc in [DcId(1), DcId(2)] {
        let dc_tickets: Vec<_> = tp.iter().copied().filter(|t| t.location.dc == dc).collect();
        for (kind, count, pct) in category_breakdown(&dc_tickets) {
            rows.push(format!("{dc},{},{kind},{count},{pct:.2}", kind.category()));
            let _ = writeln!(preview, "  {dc} {:>9} {kind:<20} {pct:5.2}%", kind.category());
        }
    }
    write_csv(dir, "t2", "dc,category,fault,count,percent", &rows)?;
    Ok(preview)
}

fn t3(dir: &Path) -> Result<String, ExperimentError> {
    let rows: Vec<String> = candidate_features()
        .iter()
        .map(|f| format!("{},{},{},{}", f.category, f.name, f.kind, f.range))
        .collect();
    write_csv(dir, "t3", "category,feature,type,range", &rows)?;
    Ok(format!("Table III — {} candidate features\n", rows.len()))
}

fn t4(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    // All 12 studies in one `par_map` under the context's thread policy,
    // read back from the memo below. The inputs alternate daily and hourly,
    // so each static chunk gets a share of the dearer hourly ones.
    let mut inputs = Vec::new();
    for sla in [0.90, 0.95, 1.00] {
        for workload in [Workload::W1, Workload::W6] {
            for granularity in [TimeGranularity::Daily, TimeGranularity::Hourly] {
                inputs.push((workload, q1::ProvisionParams::new(sla, granularity)));
            }
        }
    }
    let output = &ctx.output;
    for study in rainshine_parallel::par_map(output.config.parallelism, &inputs, |(w, params)| {
        ctx.analyses.provisioning(output, *w, params)
    }) {
        study?;
    }
    let tco = TcoModel::default();
    let mut rows = Vec::new();
    let mut preview = String::from("Table IV — TCO savings of MF over SF (percent)\n");
    for granularity in [TimeGranularity::Daily, TimeGranularity::Hourly] {
        for workload in [Workload::W1, Workload::W6] {
            for sla in [0.90, 0.95, 1.00] {
                let params = q1::ProvisionParams::new(sla, granularity);
                let r = ctx.analyses.provisioning(output, workload, &params)?;
                let (pct, savings) = (sla * 100.0, 100.0 * q1::tco_savings(&r, &tco));
                let g = if granularity == TimeGranularity::Daily { "daily" } else { "hourly" };
                rows.push(format!("{g},{workload},{pct:.0},{savings:.2}"));
                let _ = writeln!(preview, "  {g:>6} {workload} SLA {pct:>3.0}%: {savings:6.2}%");
            }
        }
    }
    write_csv(dir, "t4", "granularity,workload,sla_pct,tco_savings_pct", &rows)?;
    Ok(preview)
}

fn evidence_fig(
    ctx: &ExperimentContext,
    dir: &Path,
    id: &str,
    title: &str,
    series: fn(&Frame) -> rainshine_core::Result<Vec<SeriesRow>>,
) -> Result<String, ExperimentError> {
    let table = &*ctx.analyses.all_hw_table(&ctx.output, ctx.day_stride_pub())?;
    let mut rows = series(table)?;
    evidence::normalize(&mut rows);
    write_csv(dir, id, "label,mean,sd,n", &series_csv(&rows))?;
    Ok(series_preview(title, &rows))
}

fn f10(
    ctx: &ExperimentContext,
    dir: &Path,
    granularity: TimeGranularity,
    id: &str,
) -> Result<String, ExperimentError> {
    let mut rows = Vec::new();
    let g = if granularity == TimeGranularity::Daily { "daily" } else { "hourly" };
    let mut preview = format!("Fig {} — over-provisioning %, {g} granularity\n", &id[1..]);
    for workload in [Workload::W1, Workload::W6] {
        for sla in [0.90, 0.95, 1.00] {
            let params = q1::ProvisionParams::new(sla, granularity);
            let r = ctx.analyses.provisioning(&ctx.output, workload, &params)?;
            let (pct, lb, mf, sf) = (
                sla * 100.0,
                r.lb.overprovision_pct,
                r.mf.overprovision_pct,
                r.sf.overprovision_pct,
            );
            rows.push(format!("{workload},{pct:.0},{lb:.2},{mf:.2},{sf:.2}"));
            let _ = writeln!(
                preview,
                "  {workload} SLA {pct:>3.0}%: LB {lb:5.2}%  MF {mf:5.2}%  SF {sf:5.2}%"
            );
        }
    }
    write_csv(dir, id, "workload,sla_pct,lb_pct,mf_pct,sf_pct", &rows)?;
    Ok(preview)
}

fn f11(ctx: &ExperimentContext, dir: &Path, id: &str) -> Result<String, ExperimentError> {
    let mut rows = Vec::new();
    let mut preview =
        String::from("Fig 1/11 — per-cluster over-provision CDFs (100% SLA, daily)\n");
    for workload in [Workload::W1, Workload::W6] {
        let params = q1::ProvisionParams::new(1.0, TimeGranularity::Daily);
        let r = ctx.analyses.provisioning(&ctx.output, workload, &params)?;
        let _ = writeln!(
            preview,
            "  {workload}: {} clusters, spare fractions {:.1}%..{:.1}%",
            r.clusters.len(),
            100.0 * r.clusters.first().map(|c| c.spare_fraction).unwrap_or(0.0),
            100.0 * r.clusters.last().map(|c| c.spare_fraction).unwrap_or(0.0),
        );
        for (x, p) in &r.all_racks_cdf {
            rows.push(format!("{workload},all,{x:.3},{p:.4}"));
        }
        for c in &r.clusters {
            for (x, p) in &c.cdf {
                rows.push(format!("{workload},cluster{},{x:.3},{p:.4}", c.id));
            }
            let _ = writeln!(
                preview,
                "    cluster {} ({} racks, {:.1}% spares): {}",
                c.id,
                c.racks.len(),
                100.0 * c.spare_fraction,
                if c.path.is_empty() { "(root)".to_string() } else { c.path.join(" & ") }
            );
        }
    }
    write_csv(dir, id, "workload,curve,overprovision_pct,proportion", &rows)?;
    Ok(preview)
}

fn f13(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let params = q1::ProvisionParams::new(1.0, TimeGranularity::Daily);
    let mut rows = Vec::new();
    let mut preview =
        String::from("Fig 13 — spare cost, % of fleet server cost (100% SLA, daily)\n");
    // Each workload's server level is its memoised 100 % daily study.
    let (output, analyses) = (&ctx.output, &ctx.analyses);
    let (w1, w6) = rainshine_parallel::join(
        output.config.parallelism,
        || analyses.provision_components(output, Workload::W1, &params),
        || analyses.provision_components(output, Workload::W6, &params),
    );
    for (workload, r) in [(Workload::W1, w1?), (Workload::W6, w6?)] {
        for (level, triple) in [("component", &r.component_level), ("server", &r.server_level)] {
            let [lb, mf, sf] = [triple.lb, triple.mf, triple.sf].map(|c| r.as_pct_of_fleet_cost(c));
            rows.push(format!("{workload},{level},{lb:.3},{mf:.3},{sf:.3}"));
            let _ = writeln!(
                preview,
                "  {workload} {level:>9}-level: LB {lb:6.3}%  MF {mf:6.3}%  SF {sf:6.3}%"
            );
        }
    }
    write_csv(dir, "f13", "workload,level,lb_cost_pct,mf_cost_pct,sf_cost_pct", &rows)?;
    Ok(preview)
}

fn f14(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let sf = ctx.analyses.sf_comparison(&ctx.output)?;
    let peak_max = sf.iter().map(|r| r.peak_rate).fold(0.0, f64::max).max(1e-12);
    let avg_max = sf.iter().map(|r| r.avg_rate).fold(0.0, f64::max).max(1e-12);
    let mut rows = Vec::new();
    let mut preview = String::from("Fig 14 — SKU comparison, SF (normalized to max)\n");
    for r in sf.iter() {
        let (sku, racks) = (&r.sku, r.racks);
        let (peak, peak_sd) = (r.peak_rate / peak_max, r.peak_sd / peak_max);
        let (avg, avg_sd) = (r.avg_rate / avg_max, r.avg_sd / avg_max);
        rows.push(format!("{sku},{peak:.4},{peak_sd:.4},{avg:.4},{avg_sd:.4},{racks}"));
        let _ = writeln!(
            preview,
            "  {sku}: peak {peak:.3} (sd {peak_sd:.3})  avg {avg:.3} (sd {avg_sd:.3})  [{racks} racks]"
        );
    }
    let get = |l: &str| sf.iter().find(|r| r.sku == l);
    if let (Some(s2), Some(s4)) = (get("S2"), get("S4")) {
        let _ = writeln!(
            preview,
            "  SF avg ratio S2/S4 = {:.2}x, peak ratio = {:.2}x",
            s2.avg_rate / s4.avg_rate,
            s2.peak_rate / s4.peak_rate
        );
    }
    write_csv(dir, "f14", "sku,peak_norm,peak_sd,avg_norm,avg_sd,racks", &rows)?;
    Ok(preview)
}

fn f15(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let cart = ctx.rack_day_cart();
    let (output, analyses) = (&ctx.output, &ctx.analyses);
    let table = analyses.all_hw_table(output, ctx.day_stride_pub())?;
    // The SF rows are f14's: `procurement_scenarios` reads S2 and S4.
    let (mf, sf) = rainshine_parallel::join(
        output.config.parallelism,
        || q2::mf_comparison(output, &table, &cart),
        || analyses.sf_comparison(output),
    );
    let (mf, sf) = (mf?, sf?);
    let mut rows = Vec::new();
    let mut preview = String::from("Fig 15 — SKU comparison, MF (normalized effects)\n");
    for label in ["S2", "S4"] {
        let avg = mf.avg.levels.iter().find(|l| l.level == label);
        let peak = mf.peak.levels.iter().find(|l| l.level == label);
        if let (Some(a), Some(p)) = (avg, peak) {
            let (peak, peak_sd, avg, avg_sd) = (p.relative, p.stddev, a.relative, a.stddev);
            rows.push(format!("{label},{peak:.4},{peak_sd:.4},{avg:.4},{avg_sd:.4}"));
            let _ = writeln!(
                preview,
                "  {label}: peak rel {peak:.3} (sd {peak_sd:.3})  avg rel {avg:.3} (sd {avg_sd:.3})"
            );
        }
    }
    if let Some(ratio) = mf.avg_ratio("S2", "S4") {
        let _ = writeln!(preview, "  MF avg ratio S2/S4 = {ratio:.2}x (ground truth 4x)");
    }
    // Q2 TCO procurement scenarios (paper text: 1.0x and 1.5x prices).
    let scenarios = q2::procurement_scenarios(
        &sf,
        &mf,
        &TcoModel::default(),
        &[1.0, 1.5],
        output.config.span_days() as f64,
    )?;
    for s in &scenarios {
        let (ratio, sf_pct, mf_pct) = (s.price_ratio, 100.0 * s.sf_savings, 100.0 * s.mf_savings);
        rows.push(format!("tco_ratio_{ratio:.1},{sf_pct:.4},{mf_pct:.4},,"));
        let _ = writeln!(
            preview,
            "  S4 at {ratio:.1}x price: SF estimates {sf_pct:+.1}% savings, MF {mf_pct:+.1}%"
        );
    }
    write_csv(dir, "f15", "sku,peak_rel,peak_sd,avg_rel,avg_sd", &rows)?;
    Ok(preview)
}

fn f17(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let mut rows = q3::disk_rate_by_temperature(&ctx.output, ctx.day_stride_pub())?;
    evidence::normalize(&mut rows);
    write_csv(dir, "f17", "label,mean,sd,n", &series_csv(&rows))?;
    Ok(series_preview("Fig 17 — temperature vs per-disk failure rate", &rows))
}

fn f18(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let cart = ctx.rack_day_cart();
    let (output, stride) = (&ctx.output, ctx.day_stride_pub());
    let analyse = |dc| ctx.analyses.env_analysis(output, dc, stride, &cart);
    let (dc1, dc2) =
        rainshine_parallel::join(output.config.parallelism, || analyse("DC1"), || analyse("DC2"));
    let analyses = [dc1?, dc2?];
    let mut rows = Vec::new();
    let mut preview = String::from("Fig 18 — HDD failures vs temperature and RH (MF)\n");
    // Normalization anchor: DC1's hot+dry subgroup mean (the paper's note).
    let dc1 = &analyses[0];
    let anchor = if dc1.hot_dry.n > 0 { dc1.hot_dry.mean } else { 1.0 };
    let anchor = anchor.max(1e-12);
    for r in &analyses {
        let _ = writeln!(
            preview,
            "  {}: T* = {:.1}F, RH* = {:.1}%  (discovered {} env rules)",
            r.dc,
            r.temp_threshold,
            r.rh_threshold,
            r.discovered.len()
        );
        for (group, g) in
            [("T<=T*", &r.cool), ("T>T*", &r.hot), ("T>T*+RH<RH*", &r.hot_dry), ("All", &r.all)]
        {
            let norm = g.mean / anchor;
            rows.push(format!("{},{group},{:.4},{:.4},{}", r.dc, norm, g.sd / anchor, g.n));
            let _ = writeln!(preview, "    {group:<14} {norm:6.3} (n={})", g.n);
        }
    }
    write_csv(dir, "f18", "dc,group,mean_norm,sd_norm,n", &rows)?;
    Ok(preview)
}

/// One P1 result row: `variant` and the confusion-matrix metrics.
fn p1_row(variant: &str, c: &Confusion) -> String {
    format!(
        "{variant},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
        c.true_positives,
        c.false_positives,
        c.true_negatives,
        c.false_negatives,
        c.precision(),
        c.recall(),
        c.f1(),
        c.base_rate(),
        c.lift()
    )
}

fn p1(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let config = PredictionConfig::default();
    // Unbalanced ablation in the same artifact (the paper's warning); both
    // variants share the one table.
    let unbalanced_config = PredictionConfig { downsample_ratio: None };
    let table = build_prediction_table(&ctx.output)?;
    let (balanced, unbalanced) = rainshine_parallel::join(
        ctx.output.config.parallelism,
        || evaluate_prediction(&table, &config),
        || evaluate_prediction(&table, &unbalanced_config),
    );
    let (r, unbalanced) = (balanced?, unbalanced?);
    let (c, u) = (&r.confusion, &unbalanced.confusion);
    let rows = vec![p1_row("balanced", c), p1_row("unbalanced", u)];
    let mut preview = format!(
        "P1 — failure prediction (horizon {}d, balanced training)
  precision {:.3}           recall {:.3}  F1 {:.3}  base rate {:.3}  lift {:.2}x
  top factors: {}
",
        HORIZON_DAYS,
        c.precision(),
        c.recall(),
        c.f1(),
        c.base_rate(),
        c.lift(),
        r.importance
            .iter()
            .take(4)
            .map(|(n, v)| format!("{n} ({v:.0})"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        preview,
        "  without balancing: recall drops {:.3} -> {:.3} (the Section V caveat)",
        c.recall(),
        u.recall()
    );
    write_csv(dir, "p1", "variant,tp,fp,tn,fn,precision,recall,f1,base_rate,lift", &rows)?;
    Ok(preview)
}

fn p2(ctx: &ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    use rainshine_core::q3::{dc_subset, setpoint_tradeoff, SetpointModel};
    let cart = ctx.rack_day_cart();
    let disk = ctx.analyses.disk_table(&ctx.output, ctx.day_stride_pub())?;
    let dc1 = dc_subset(&disk.select(q3::ENV_ANALYSIS_COLUMNS)?, "DC1")?;
    let model = SetpointModel::default();
    let caps = [72.0, 74.0, 76.0, 78.0, 80.0, 82.0, f64::INFINITY];
    let rows_data = setpoint_tradeoff(&dc1, &caps, &model, &cart)?;
    let mut rows = Vec::new();
    let mut preview =
        String::from("P2 — DC1 temperature set-point trade-off (cooling OpEx vs disk failures)\n");
    for r in &rows_data {
        let cap = if r.cap_f.is_finite() { format!("{:.0}", r.cap_f) } else { "none".into() };
        let (failures, cooling, upkeep, total) =
            (r.failures, r.cooling_cost, r.maintenance_cost, r.total_cost);
        rows.push(format!("{cap},{failures:.1},{cooling:.1},{upkeep:.1},{total:.1}"));
        let _ = writeln!(
            preview,
            "  cap {cap:>5} F: {failures:.0} failures, cooling {cooling:.0}, maintenance {upkeep:.0}, total {total:.0}"
        );
    }
    let _ = writeln!(
        preview,
        "  cheapest: cap {} (the paper's 'more extensive analysis considering cost of \
         environment control')",
        if rows_data[0].cap_f.is_finite() {
            format!("{:.0} F", rows_data[0].cap_f)
        } else {
            "none".into()
        }
    );
    write_csv(dir, "p2", "cap_f,failures,cooling_cost,maintenance_cost,total_cost", &rows)?;
    Ok(preview)
}

/// The fleet and seed of each negative-control ablation, from its
/// checked-in scenario spec: the `medium` fleet with exactly one effect
/// disabled, simulated under the context's thread policy.
fn ablation_fleet(
    ctx: &ExperimentContext,
    id: &str,
) -> Result<(FleetConfig, u64), ExperimentError> {
    let text = match id {
        "a1" => include_str!("../../../scenarios/env_off.json"),
        "a2" => include_str!("../../../scenarios/bursts_off.json"),
        _ => include_str!("../../../scenarios/calendar_off.json"),
    };
    let scenario = Scenario::from_json(text)?;
    let mut config = scenario.fleet_config()?;
    config.parallelism = ctx.output.config.parallelism;
    Ok((config, scenario.seed_base))
}

fn ablation(ctx: &ExperimentContext, dir: &Path, id: &str) -> Result<String, ExperimentError> {
    let (config, seed) = ablation_fleet(ctx, id)?;
    let output = Simulation::new(config, seed).run();
    match id {
        "a1" => {
            let cart = CartParams::default().with_min_sizes(400, 200).with_cp(0.002);
            let r = FleetAnalyses::default().env_analysis(&output, "DC1", 1, &cart)?;
            let ratio = if r.hot.n > 0 { r.hot.mean / r.cool.mean.max(1e-12) } else { 1.0 };
            let rows = vec![format!("env_off,{},{:.4},{}", r.discovered.len(), ratio, r.hot.n)];
            write_csv(dir, id, "ablation,env_rules_found,hot_cool_ratio,hot_n", &rows)?;
            Ok(format!(
                "A1 — environment effects disabled (negative control)
  DC1 env rules                  discovered: {} (expect 0), hot/cool ratio {:.2} (expect ~1)
",
                r.discovered.len(),
                ratio
            ))
        }
        "a2" => {
            let params = q1::ProvisionParams::new(1.0, TimeGranularity::Daily);
            let r = q1::provision_servers(&output, Workload::W6, &params)?;
            let (lb, mf, sf) =
                (r.lb.overprovision_pct, r.mf.overprovision_pct, r.sf.overprovision_pct);
            let rows = vec![format!("bursts_off,{lb:.3},{mf:.3},{sf:.3}")];
            write_csv(dir, id, "ablation,lb_pct,mf_pct,sf_pct", &rows)?;
            Ok(format!(
                "A2 — bursts disabled (negative control)
  W6 100% SLA daily: LB {lb:.2}%                   MF {mf:.2}%  SF {sf:.2}%  (SF collapses without the correlated tail)
"
            ))
        }
        _ => {
            let table = FleetAnalyses::default().all_hw_table(&output, 1)?;
            let dow = evidence::by_day_of_week(&table, 0)?;
            let max = dow.iter().map(|r| r.mean).fold(0.0f64, f64::max);
            let min = dow.iter().map(|r| r.mean).fold(f64::INFINITY, f64::min);
            let spread = if min > 0.0 { max / min } else { f64::NAN };
            let rows = vec![format!("calendar_off,{spread:.4}")];
            write_csv(dir, id, "ablation,dow_max_over_min", &rows)?;
            Ok(format!(
                "A3 — calendar effects disabled (negative control)
  day-of-week max/min                  ratio: {spread:.3} (expect ~1; with effects on it is ~1.4)
"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_run_at_small_scale() {
        let dir = std::env::temp_dir().join("rainshine-exp-test");
        let ctx = ExperimentContext::new(Scale::Small, 5);
        for id in ALL_EXPERIMENTS {
            let preview = run_experiment(id, &ctx, &dir)
                .unwrap_or_else(|e| panic!("experiment {id} failed: {e}"));
            assert!(!preview.is_empty(), "{id} produced empty preview");
            assert!(dir.join(format!("{id}.csv")).exists(), "{id} wrote no csv");
        }
    }

    #[test]
    fn memo_is_transparent() {
        // Every id that reads a shared memo entry, in paper order.
        let ids = ["t4", "f1", "f2", "f10", "f11", "f12", "f13", "f14", "f15", "f18", "p2"];
        let root = std::env::temp_dir().join("rainshine-memo-test");
        let shared_dir = root.join("shared");
        let shared = ExperimentContext::new(Scale::Small, 5);
        let daily = q1::ProvisionParams::new(0.95, TimeGranularity::Daily);
        let study = || shared.analyses.provisioning(&shared.output, Workload::W6, &daily).unwrap();
        run_experiment("t4", &shared, &shared_dir).unwrap();
        let from_t4 = study();
        for id in &ids[1..] {
            run_experiment(id, &shared, &shared_dir).unwrap();
        }
        // F10 read the study T4 computed.
        assert!(Arc::ptr_eq(&from_t4, &study()));
        for id in ids {
            let alone_dir = root.join(id);
            run_experiment(id, &ExperimentContext::new(Scale::Small, 5), &alone_dir).unwrap();
            let csv = format!("{id}.csv");
            assert_eq!(
                fs::read(shared_dir.join(&csv)).unwrap(),
                fs::read(alone_dir.join(&csv)).unwrap(),
                "{id}"
            );
        }
    }

    #[test]
    fn ablation_scenarios_disable_exactly_one_channel() {
        use rainshine_dcsim::hazard::HazardConfig;
        use rainshine_parallel::Parallelism;
        let ctx = ExperimentContext::new_with_obs(
            Scale::Small,
            5,
            Parallelism::Sequential,
            rainshine_dcsim::CorruptionConfig::default(),
            rainshine_obs::Obs::disabled(),
        );
        let medium_with = |ablate: fn(&mut HazardConfig)| {
            let mut config = FleetConfig::medium();
            ablate(&mut config.hazard);
            config.parallelism = Parallelism::Sequential;
            config
        };
        for (id, expected) in [
            ("a1", medium_with(HazardConfig::ablate_environment)),
            ("a2", medium_with(HazardConfig::ablate_bursts)),
            ("a3", medium_with(HazardConfig::ablate_calendar)),
        ] {
            let (config, seed) = ablation_fleet(&ctx, id).unwrap();
            // The ablation's fleet runs under the context's `--threads`.
            assert_eq!(config.parallelism, ctx.output.config.parallelism, "{id}");
            assert_eq!(config, expected, "{id}");
            assert_eq!(seed, 42, "{id}");
        }
    }

    #[test]
    fn unknown_experiment_errors() {
        let dir = std::env::temp_dir().join("rainshine-exp-test2");
        let ctx = ExperimentContext::new(Scale::Small, 5);
        assert!(run_experiment("zz", &ctx, &dir).is_err());
    }
}
