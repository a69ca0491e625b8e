//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment id (`t1`–`t4`, `f1`–`f18`) maps to one artifact of the
//! paper's evaluation (see `DESIGN.md` §4). [`run_experiment`] computes the
//! artifact from a simulation run, writes a CSV under the output directory,
//! and returns a printable preview. The `rainshine experiments` subcommand
//! drives all of them; the Criterion benches reuse the same context for
//! performance measurements.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use rainshine_cart::params::CartParams;
use rainshine_conformance::Scenario;
use rainshine_core::dataset::{rack_day_table, FaultFilter};
use rainshine_core::evidence::{self, SeriesRow};
use rainshine_core::tco::TcoModel;
use rainshine_core::{q1, q2, q3};
use rainshine_dcsim::{FleetConfig, Simulation, SimulationOutput};
use rainshine_telemetry::frame::Frame;
use rainshine_telemetry::ids::{DcId, Sku, Workload};
use rainshine_telemetry::rma::{category_breakdown, HardwareFault};
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

/// Fleet scale for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 24 + 20 racks, 6 months (smoke tests).
    Small,
    /// 90 + 80 racks, 1 year (CI).
    Medium,
    /// 331 + 290 racks, 2.5 years (the paper's fleet).
    Paper,
}

impl Scale {
    /// Parses `small` / `medium` / `paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The clean fleet configuration of this scale.
    pub fn config(self) -> FleetConfig {
        match self {
            Scale::Small => FleetConfig::small(),
            Scale::Medium => FleetConfig::medium(),
            Scale::Paper => FleetConfig::paper_scale(),
        }
    }

    /// The flag spelling (`small` / `medium` / `paper`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

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

/// Shared state across experiments: one simulation run plus cached tables.
pub struct ExperimentContext {
    /// The simulation output all experiments read.
    pub output: SimulationOutput,
    /// The observability handle the simulation recorded into; experiments
    /// keep recording into it as they run. Disabled unless the context was
    /// built with [`ExperimentContext::new_with_obs`].
    pub obs: rainshine_obs::Obs,
    scale: Scale,
    all_hw: Option<Frame>,
    disk: Option<Frame>,
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
            all_hw: None,
            disk: None,
        }
    }

    fn day_stride(&self) -> usize {
        match self.scale {
            Scale::Small | Scale::Medium => 1,
            Scale::Paper => 2,
        }
    }

    /// CART parameters scaled to the rack-day table size.
    pub fn rack_day_cart(&self) -> CartParams {
        let rows = self.output.fleet.racks.len() as u64 * self.output.config.span_days()
            / self.day_stride() as u64;
        let min_leaf = (rows / 1500).max(30) as usize;
        CartParams::default().with_min_sizes(min_leaf * 2, min_leaf).with_cp(0.0005)
    }

    /// The all-hardware rack-day table (cached).
    pub fn all_hw_table(&mut self) -> &Frame {
        if self.all_hw.is_none() {
            self.all_hw = Some(
                rack_day_table(&self.output, FaultFilter::AllHardware, self.day_stride())
                    .expect("simulation produced rack-days"),
            );
        }
        self.all_hw.as_ref().expect("populated above")
    }

    /// The disk-only rack-day table (cached).
    pub fn disk_table(&mut self) -> &Frame {
        if self.disk.is_none() {
            self.disk = Some(
                rack_day_table(
                    &self.output,
                    FaultFilter::Component(HardwareFault::Disk),
                    self.day_stride(),
                )
                .expect("simulation produced rack-days"),
            );
        }
        self.disk.as_ref().expect("populated above")
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
    ctx: &mut ExperimentContext,
    out_dir: &Path,
) -> Result<String, ExperimentError> {
    let obs = ctx.obs.clone();
    let _span = obs.span_owned(format!("experiment.{id}"));
    let result = dispatch(id, ctx, out_dir);
    obs.incr(if result.is_ok() { "experiments.ok" } else { "experiments.failed" }, 1);
    result
}

fn dispatch(
    id: &str,
    ctx: &mut ExperimentContext,
    out_dir: &Path,
) -> Result<String, ExperimentError> {
    match id {
        "t1" => t1(ctx, out_dir),
        "t2" => t2(ctx, out_dir),
        "t3" => t3(out_dir),
        "t4" => t4(ctx, out_dir),
        "f1" | "f11" => f11(ctx, out_dir, id),
        "f2" => evidence_fig(ctx, out_dir, id, "region"),
        "f3" => evidence_fig(ctx, out_dir, id, "dow"),
        "f4" => evidence_fig(ctx, out_dir, id, "month"),
        "f5" => evidence_fig(ctx, out_dir, id, "rh"),
        "f6" => evidence_fig(ctx, out_dir, id, "workload"),
        "f7" => evidence_fig(ctx, out_dir, id, "sku"),
        "f8" => evidence_fig(ctx, out_dir, id, "power"),
        "f9" => evidence_fig(ctx, out_dir, id, "age"),
        "f10" => f10(ctx, out_dir, TimeGranularity::Daily, "f10"),
        "f12" => f10(ctx, out_dir, TimeGranularity::Hourly, "f12"),
        "f13" => f13(ctx, out_dir),
        "f14" => f14(ctx, out_dir),
        "f15" => f15(ctx, out_dir),
        "f16" => f16(ctx, out_dir),
        "f17" => f17(ctx, out_dir),
        "f18" => f18(ctx, out_dir),
        "p1" => p1(ctx, out_dir),
        "p2" => p2(ctx, out_dir),
        "a1" | "a2" | "a3" => ablation(out_dir, id),
        other => Err(format!("unknown experiment id `{other}`").into()),
    }
}

fn t1(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
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

fn t2(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
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

fn provisioning_for(
    ctx: &mut ExperimentContext,
    workload: Workload,
    sla: f64,
    granularity: TimeGranularity,
) -> Result<q1::ServerProvisioning, ExperimentError> {
    let params = q1::ProvisionParams::new(sla, granularity);
    Ok(q1::provision_servers(&ctx.output, workload, &params)?)
}

fn t4(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let tco = TcoModel::default();
    let mut rows = Vec::new();
    let mut preview = String::from("Table IV — TCO savings of MF over SF (percent)\n");
    for granularity in [TimeGranularity::Daily, TimeGranularity::Hourly] {
        for workload in [Workload::W1, Workload::W6] {
            for sla in [0.90, 0.95, 1.00] {
                let r = provisioning_for(ctx, workload, sla, granularity)?;
                let savings = 100.0 * q1::tco_savings(&r, &tco);
                let g = if granularity == TimeGranularity::Daily { "daily" } else { "hourly" };
                rows.push(format!("{g},{workload},{:.0},{savings:.2}", sla * 100.0));
                let _ = writeln!(
                    preview,
                    "  {g:>6} {workload} SLA {:>3.0}%: {savings:6.2}%",
                    sla * 100.0
                );
            }
        }
    }
    write_csv(dir, "t4", "granularity,workload,sla_pct,tco_savings_pct", &rows)?;
    Ok(preview)
}

fn evidence_fig(
    ctx: &mut ExperimentContext,
    dir: &Path,
    id: &str,
    which: &str,
) -> Result<String, ExperimentError> {
    let table = ctx.all_hw_table();
    let (title, mut rows) = match which {
        "region" => ("Fig 2 — λ by DC region", evidence::by_region(table)?),
        "dow" => ("Fig 3 — λ by day of week (2012)", evidence::by_day_of_week(table, 0)?),
        "month" => ("Fig 4 — λ by month (2012)", evidence::by_month(table, 0)?),
        "rh" => ("Fig 5 — λ by relative humidity", evidence::by_rh_bin(table)?),
        "workload" => ("Fig 6 — λ by workload", evidence::by_workload(table)?),
        "sku" => ("Fig 7 — λ by SKU", evidence::by_sku(table)?),
        "power" => ("Fig 8 — λ by rack power rating", evidence::by_power(table)?),
        "age" => ("Fig 9 — λ by equipment age (months)", evidence::by_age(table)?),
        _ => return Err(format!("unknown evidence figure `{which}`").into()),
    };
    evidence::normalize(&mut rows);
    write_csv(dir, id, "label,mean,sd,n", &series_csv(&rows))?;
    Ok(series_preview(title, &rows))
}

fn f10(
    ctx: &mut ExperimentContext,
    dir: &Path,
    granularity: TimeGranularity,
    id: &str,
) -> Result<String, ExperimentError> {
    let mut rows = Vec::new();
    let g = if granularity == TimeGranularity::Daily { "daily" } else { "hourly" };
    let mut preview = format!("Fig {} — over-provisioning %, {g} granularity\n", &id[1..]);
    for workload in [Workload::W1, Workload::W6] {
        for sla in [0.90, 0.95, 1.00] {
            let r = provisioning_for(ctx, workload, sla, granularity)?;
            rows.push(format!(
                "{workload},{:.0},{:.2},{:.2},{:.2}",
                sla * 100.0,
                r.lb.overprovision_pct,
                r.mf.overprovision_pct,
                r.sf.overprovision_pct
            ));
            let _ = writeln!(
                preview,
                "  {workload} SLA {:>3.0}%: LB {:5.2}%  MF {:5.2}%  SF {:5.2}%",
                sla * 100.0,
                r.lb.overprovision_pct,
                r.mf.overprovision_pct,
                r.sf.overprovision_pct
            );
        }
    }
    write_csv(dir, id, "workload,sla_pct,lb_pct,mf_pct,sf_pct", &rows)?;
    Ok(preview)
}

fn f11(ctx: &mut ExperimentContext, dir: &Path, id: &str) -> Result<String, ExperimentError> {
    let mut rows = Vec::new();
    let mut preview =
        String::from("Fig 1/11 — per-cluster over-provision CDFs (100% SLA, daily)\n");
    for workload in [Workload::W1, Workload::W6] {
        let r = provisioning_for(ctx, workload, 1.0, TimeGranularity::Daily)?;
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

fn f13(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let params = q1::ProvisionParams::new(1.0, TimeGranularity::Daily);
    let mut rows = Vec::new();
    let mut preview =
        String::from("Fig 13 — spare cost, % of fleet server cost (100% SLA, daily)\n");
    for workload in [Workload::W1, Workload::W6] {
        let r = q1::provision_components(&ctx.output, workload, &params)?;
        for (level, triple) in [("component", &r.component_level), ("server", &r.server_level)] {
            let lb = r.as_pct_of_fleet_cost(triple.lb);
            let mf = r.as_pct_of_fleet_cost(triple.mf);
            let sf = r.as_pct_of_fleet_cost(triple.sf);
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

fn f14(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let sf = q2::sf_comparison(&ctx.output, &[Sku::S1, Sku::S2, Sku::S3, Sku::S4])?;
    let peak_max = sf.iter().map(|r| r.peak_rate).fold(0.0, f64::max).max(1e-12);
    let avg_max = sf.iter().map(|r| r.avg_rate).fold(0.0, f64::max).max(1e-12);
    let mut rows = Vec::new();
    let mut preview = String::from("Fig 14 — SKU comparison, SF (normalized to max)\n");
    for r in &sf {
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4},{}",
            r.sku,
            r.peak_rate / peak_max,
            r.peak_sd / peak_max,
            r.avg_rate / avg_max,
            r.avg_sd / avg_max,
            r.racks
        ));
        let _ = writeln!(
            preview,
            "  {}: peak {:.3} (sd {:.3})  avg {:.3} (sd {:.3})  [{} racks]",
            r.sku,
            r.peak_rate / peak_max,
            r.peak_sd / peak_max,
            r.avg_rate / avg_max,
            r.avg_sd / avg_max,
            r.racks
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

fn f15(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let cart = ctx.rack_day_cart();
    let table = ctx.all_hw_table().clone();
    let mf = q2::mf_comparison(&ctx.output, &table, &cart)?;
    let sf = q2::sf_comparison(&ctx.output, &[Sku::S2, Sku::S4])?;
    let mut rows = Vec::new();
    let mut preview = String::from("Fig 15 — SKU comparison, MF (normalized effects)\n");
    for label in ["S2", "S4"] {
        let avg = mf.avg.levels.iter().find(|l| l.level == label);
        let peak = mf.peak.levels.iter().find(|l| l.level == label);
        if let (Some(a), Some(p)) = (avg, peak) {
            rows.push(format!(
                "{label},{:.4},{:.4},{:.4},{:.4}",
                p.relative, p.stddev, a.relative, a.stddev
            ));
            let _ = writeln!(
                preview,
                "  {label}: peak rel {:.3} (sd {:.3})  avg rel {:.3} (sd {:.3})",
                p.relative, p.stddev, a.relative, a.stddev
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
        ctx.output.config.span_days() as f64,
    )?;
    for s in &scenarios {
        rows.push(format!(
            "tco_ratio_{:.1},{:.4},{:.4},,",
            s.price_ratio,
            100.0 * s.sf_savings,
            100.0 * s.mf_savings
        ));
        let _ = writeln!(
            preview,
            "  S4 at {:.1}x price: SF estimates {:+.1}% savings, MF {:+.1}%",
            s.price_ratio,
            100.0 * s.sf_savings,
            100.0 * s.mf_savings
        );
    }
    write_csv(dir, "f15", "sku,peak_rel,peak_sd,avg_rel,avg_sd", &rows)?;
    Ok(preview)
}

fn f16(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let table = ctx.all_hw_table();
    let mut rows = q3::rate_by_temperature(table)?;
    evidence::normalize(&mut rows);
    write_csv(dir, "f16", "label,mean,sd,n", &series_csv(&rows))?;
    Ok(series_preview("Fig 16 — temperature vs all hardware failures (SF)", &rows))
}

fn f17(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let mut rows = q3::disk_rate_by_temperature(&ctx.output, ctx.day_stride())?;
    evidence::normalize(&mut rows);
    write_csv(dir, "f17", "label,mean,sd,n", &series_csv(&rows))?;
    Ok(series_preview("Fig 17 — temperature vs per-disk failure rate", &rows))
}

fn f18(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    let cart = ctx.rack_day_cart();
    let disk = ctx.disk_table().clone();
    let mut rows = Vec::new();
    let mut preview = String::from("Fig 18 — HDD failures vs temperature and RH (MF)\n");
    // Normalization anchor: DC1's hot+dry subgroup mean (the paper's note).
    let mut anchor = None;
    let mut analyses = Vec::new();
    for dc in ["DC1", "DC2"] {
        let subset = q3::dc_subset(&disk, dc)?;
        let r = q3::env_analysis(dc, &subset, &cart)?;
        if dc == "DC1" && r.hot_dry.n > 0 {
            anchor = Some(r.hot_dry.mean);
        }
        analyses.push(r);
    }
    let anchor = anchor.unwrap_or(1.0).max(1e-12);
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

impl ExperimentContext {
    /// Day stride used for cached tables (public for experiments that build
    /// their own series).
    pub fn day_stride_pub(&self) -> usize {
        self.day_stride()
    }
}

fn p1(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    use rainshine_core::predict::{predict_failures, PredictionConfig};
    let config = PredictionConfig::default();
    let r = predict_failures(&ctx.output, &config)?;
    let c = &r.confusion;
    let rows = vec![format!(
        "balanced,{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
        c.true_positives,
        c.false_positives,
        c.true_negatives,
        c.false_negatives,
        c.precision(),
        c.recall(),
        c.f1(),
        c.base_rate(),
        c.lift()
    )];
    let mut preview = format!(
        "P1 — failure prediction (horizon {}d, balanced training)
  precision {:.3}           recall {:.3}  F1 {:.3}  base rate {:.3}  lift {:.2}x
  top factors: {}
",
        config.horizon_days,
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
    // Unbalanced ablation in the same artifact (the paper's warning).
    let unbalanced =
        predict_failures(&ctx.output, &PredictionConfig { downsample_ratio: None, ..config })?;
    let u = &unbalanced.confusion;
    let mut rows = rows;
    rows.push(format!(
        "unbalanced,{},{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4}",
        u.true_positives,
        u.false_positives,
        u.true_negatives,
        u.false_negatives,
        u.precision(),
        u.recall(),
        u.f1(),
        u.base_rate(),
        u.lift()
    ));
    let _ = writeln!(
        preview,
        "  without balancing: recall drops {:.3} -> {:.3} (the Section V caveat)",
        c.recall(),
        u.recall()
    );
    write_csv(dir, "p1", "variant,tp,fp,tn,fn,precision,recall,f1,base_rate,lift", &rows)?;
    Ok(preview)
}

fn p2(ctx: &mut ExperimentContext, dir: &Path) -> Result<String, ExperimentError> {
    use rainshine_core::q3::{dc_subset, setpoint_tradeoff, SetpointModel};
    let cart = ctx.rack_day_cart();
    let disk = ctx.disk_table().clone();
    let dc1 = dc_subset(&disk, "DC1")?;
    let model = SetpointModel::default();
    let caps = [72.0, 74.0, 76.0, 78.0, 80.0, 82.0, f64::INFINITY];
    let rows_data = setpoint_tradeoff(&dc1, &caps, &model, &cart)?;
    let mut rows = Vec::new();
    let mut preview =
        String::from("P2 — DC1 temperature set-point trade-off (cooling OpEx vs disk failures)\n");
    for r in &rows_data {
        let cap = if r.cap_f.is_finite() { format!("{:.0}", r.cap_f) } else { "none".into() };
        rows.push(format!(
            "{cap},{:.1},{:.1},{:.1},{:.1}",
            r.failures, r.cooling_cost, r.maintenance_cost, r.total_cost
        ));
        let _ = writeln!(
            preview,
            "  cap {cap:>5} F: {:.0} failures, cooling {:.0}, maintenance {:.0}, total {:.0}",
            r.failures, r.cooling_cost, r.maintenance_cost, r.total_cost
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

/// The checked-in scenario spec behind each negative-control ablation:
/// the `medium` fleet with exactly one effect disabled.
fn ablation_scenario(id: &str) -> Result<Scenario, ExperimentError> {
    let text = match id {
        "a1" => include_str!("../../../scenarios/env_off.json"),
        "a2" => include_str!("../../../scenarios/bursts_off.json"),
        _ => include_str!("../../../scenarios/calendar_off.json"),
    };
    Ok(Scenario::from_json(text)?)
}

fn ablation(dir: &Path, id: &str) -> Result<String, ExperimentError> {
    let scenario = ablation_scenario(id)?;
    let output = Simulation::new(scenario.fleet_config()?, scenario.seed_base).run();
    match id {
        "a1" => {
            let disk = rack_day_table(&output, FaultFilter::Component(HardwareFault::Disk), 1)?;
            let cart = CartParams::default().with_min_sizes(400, 200).with_cp(0.002);
            let dc1 = q3::dc_subset(&disk, "DC1")?;
            let r = q3::env_analysis("DC1", &dc1, &cart)?;
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
            let rows = vec![format!(
                "bursts_off,{:.3},{:.3},{:.3}",
                r.lb.overprovision_pct, r.mf.overprovision_pct, r.sf.overprovision_pct
            )];
            write_csv(dir, id, "ablation,lb_pct,mf_pct,sf_pct", &rows)?;
            Ok(format!(
                "A2 — bursts disabled (negative control)
  W6 100% SLA daily: LB {:.2}%                   MF {:.2}%  SF {:.2}%  (SF collapses without the correlated tail)
",
                r.lb.overprovision_pct, r.mf.overprovision_pct, r.sf.overprovision_pct
            ))
        }
        _ => {
            let table = rack_day_table(&output, FaultFilter::AllHardware, 1)?;
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
        let mut ctx = ExperimentContext::new(Scale::Small, 5);
        for id in ALL_EXPERIMENTS {
            let preview = run_experiment(id, &mut ctx, &dir)
                .unwrap_or_else(|e| panic!("experiment {id} failed: {e}"));
            assert!(!preview.is_empty(), "{id} produced empty preview");
            assert!(dir.join(format!("{id}.csv")).exists(), "{id} wrote no csv");
        }
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn ablation_scenarios_disable_exactly_one_channel() {
        use rainshine_dcsim::hazard::HazardConfig;
        let medium_with = |ablate: fn(&mut HazardConfig)| {
            let mut config = FleetConfig::medium();
            ablate(&mut config.hazard);
            config
        };
        for (id, expected) in [
            ("a1", medium_with(HazardConfig::ablate_environment)),
            ("a2", medium_with(HazardConfig::ablate_bursts)),
            ("a3", medium_with(HazardConfig::ablate_calendar)),
        ] {
            let scenario = ablation_scenario(id).unwrap();
            assert_eq!(scenario.fleet_config().unwrap(), expected, "{id}");
            assert_eq!(scenario.seed_base, 42, "{id}");
        }
    }

    #[test]
    fn unknown_experiment_errors() {
        let dir = std::env::temp_dir().join("rainshine-exp-test2");
        let mut ctx = ExperimentContext::new(Scale::Small, 5);
        assert!(run_experiment("zz", &mut ctx, &dir).is_err());
    }
}
