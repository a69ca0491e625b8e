//! The `rainshine` command line (`rainshine --help` prints every flag):
//!
//! * `simulate` (defaults `--scale medium --out dataset`) exports the
//!   synthetic dataset that stands in for the paper's production data:
//!   `fleet.csv`, `tickets.csv` (the sanitized RMA stream, false positives
//!   flagged), `environment.csv` (daily ingested inlet conditions per
//!   DC-region; blacked-out cells are `nan`) and `manifest.json`.
//! * `experiments` (defaults `--scale paper --out results`) regenerates
//!   every table and figure of the paper (ids in DESIGN.md §4) as one CSV
//!   each and prints a preview of each.
//! * `conformance` (default `--seeds 5`) sweeps each `--scenario` over seeds
//!   from its `seed_base`, checks every claim against its envelope, and fails
//!   on a missed claim or on drift from `--baseline`.
//!
//! `--threads N|auto` sets the worker count; every output is bit-identical
//! at any setting. `--corrupt RATE` / `--corrupt-spec k=v,...` inject dirty
//! data (see [`rainshine_dcsim::CorruptionConfig`]) and print the
//! data-quality report to stderr. `--report PATH` writes the deterministic
//! section of the run report; wall times go only to stderr.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rainshine_bench::{run_experiment, run_report, ExperimentContext, Scale, ALL_EXPERIMENTS};
use rainshine_conformance::report::ConformanceReport;
use rainshine_conformance::{run_scenario, Scenario};
use rainshine_dcsim::{CorruptionConfig, FleetConfig, Simulation, SimulationOutput};
use rainshine_obs::Obs;
use rainshine_parallel::Parallelism;
use rainshine_telemetry::ids::{DcId, RegionId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Simulate,
    Experiments,
    Conformance,
}

impl Command {
    const ALL: [Command; 3] = [Command::Simulate, Command::Experiments, Command::Conformance];

    fn parse(name: &str) -> Option<Command> {
        match name {
            "simulate" => Some(Command::Simulate),
            "experiments" => Some(Command::Experiments),
            "conformance" => Some(Command::Conformance),
            _ => None,
        }
    }

    fn synopsis(self) -> &'static str {
        match self {
            Command::Simulate => {
                "rainshine simulate [--scale small|medium|paper] [--seed N] [--out DIR] \
                 [--threads N|auto] [--corrupt RATE] [--corrupt-spec k=v,...] [--report PATH]"
            }
            Command::Experiments => {
                "rainshine experiments [--scale small|medium|paper] [--seed N] \
                 [--out DIR] [--only ID[,ID...]] [--threads N|auto] [--corrupt RATE] \
                 [--corrupt-spec k=v,...] [--report PATH]"
            }
            Command::Conformance => {
                "rainshine conformance --scenario PATH [--scenario PATH ...] [--seeds N] \
                 [--threads N|auto] [--report PATH] [--baseline PATH]"
            }
        }
    }

    /// Whether this subcommand takes `flag`; any other flag is an error.
    fn takes(self, flag: &str) -> bool {
        const FLEET: &[&str] =
            &["--scale", "--seed", "--out", "--threads", "--corrupt", "--corrupt-spec", "--report"];
        const CONFORMANCE: &[&str] =
            &["--scenario", "--seeds", "--threads", "--report", "--baseline"];
        match self {
            Command::Simulate => FLEET.contains(&flag),
            Command::Experiments => FLEET.contains(&flag) || flag == "--only",
            Command::Conformance => CONFORMANCE.contains(&flag),
        }
    }
}

struct Args {
    command: Command,
    scale: Scale,
    seed: u64,
    out: PathBuf,
    threads: Parallelism,
    corruption: CorruptionConfig,
    report: Option<PathBuf>,
    only: Option<Vec<String>>,
    scenarios: Vec<PathBuf>,
    seeds: usize,
    baseline: Option<PathBuf>,
}

/// Usage of one subcommand, or of the whole CLI for `None`.
fn usage(command: Option<Command>) -> String {
    let commands = command.map_or(Command::ALL.to_vec(), |c| vec![c]);
    let synopses: Vec<&str> = commands.into_iter().map(Command::synopsis).collect();
    format!("usage: {}", synopses.join("\n       "))
}

/// Why parsing stopped short of a runnable command line.
enum Stop {
    /// `--help` for the whole CLI (`None`) or one subcommand.
    Help(Option<Command>),
    /// A usage error, and the subcommand whose usage to print after it.
    Misuse(String, Option<Command>),
}

fn parse_args(argv: &[String]) -> Result<Args, Stop> {
    let Some(name) = argv.first() else {
        return Err(Stop::Misuse("missing subcommand".into(), None));
    };
    if matches!(name.as_str(), "--help" | "-h") {
        return Err(Stop::Help(None));
    }
    let command = Command::parse(name)
        .ok_or_else(|| Stop::Misuse(format!("unknown subcommand `{name}`"), None))?;
    let mut args = Args {
        command,
        scale: if command == Command::Simulate { Scale::Medium } else { Scale::Paper },
        seed: 42,
        out: PathBuf::from(if command == Command::Simulate { "dataset" } else { "results" }),
        threads: Parallelism::Auto,
        corruption: CorruptionConfig::default(),
        report: None,
        only: None,
        scenarios: Vec::new(),
        seeds: 5,
        baseline: None,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            return Err(Stop::Help(Some(command)));
        }
        if !command.takes(flag) {
            return Err(Stop::Misuse(format!("unknown flag `{flag}`"), Some(command)));
        }
        set_flag(&mut args, flag, &mut it).map_err(|msg| Stop::Misuse(msg, Some(command)))?;
    }
    if command == Command::Conformance && args.scenarios.is_empty() {
        return Err(Stop::Misuse("at least one --scenario is required".into(), Some(command)));
    }
    Ok(args)
}

/// Sets the field `flag` names, taking its value (if any) from `rest`.
fn set_flag<'a>(
    args: &mut Args,
    flag: &str,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<(), String> {
    let mut value = || rest.next().map(String::as_str).ok_or(format!("missing value for {flag}"));
    match flag {
        "--scale" => {
            let v = value()?;
            args.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale `{v}`"))?;
        }
        "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad seed: {e}"))?,
        "--out" => args.out = PathBuf::from(value()?),
        "--threads" => args.threads = Parallelism::from_flag(value()?)?,
        "--corrupt" => {
            let rate: f64 = value()?.parse().map_err(|e| format!("bad corruption rate: {e}"))?;
            args.corruption = CorruptionConfig::with_total_rate(rate);
        }
        "--corrupt-spec" => args.corruption = CorruptionConfig::parse_spec(value()?)?,
        "--report" => args.report = Some(PathBuf::from(value()?)),
        "--only" => args.only = Some(value()?.split(',').map(|s| s.trim().to_owned()).collect()),
        "--scenario" => args.scenarios.push(PathBuf::from(value()?)),
        "--seeds" => {
            let seeds = value()?.parse().ok().filter(|&n: &usize| n > 0);
            args.seeds = seeds.ok_or("--seeds must be a whole number of at least 1")?;
        }
        "--baseline" => args.baseline = Some(PathBuf::from(value()?)),
        other => return Err(format!("unknown flag `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(Stop::Help(command)) => {
            println!("{}", usage(command));
            return ExitCode::SUCCESS;
        }
        Err(Stop::Misuse(msg, command)) => {
            eprintln!("rainshine: {msg}\n{}", usage(command));
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command {
        Command::Simulate => simulate(&args),
        Command::Experiments => experiments(&args),
        Command::Conformance => conformance(&args),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("rainshine: {msg}");
        ExitCode::FAILURE
    })
}

/// The fleet config the flags describe, validated so that an out-of-range
/// corruption rate is a message rather than a panic inside the simulator.
fn fleet_config(args: &Args) -> Result<FleetConfig, String> {
    let mut config = args.scale.config();
    config.parallelism = args.threads;
    config.corruption = args.corruption.clone();
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// Writes a deterministic report section plus a trailing newline,
/// creating the parent directory if needed.
fn write_report(path: &Path, deterministic_json: String) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    fs::write(path, deterministic_json + "\n")
        .map_err(|e| format!("cannot write report {}: {e}", path.display()))?;
    eprintln!("report written to {}", path.display());
    Ok(())
}

fn simulate(args: &Args) -> Result<ExitCode, String> {
    let config = fleet_config(args)?;
    eprintln!("simulating ({:?}, seed {}, {:?}) ...", args.scale, args.seed, args.threads);
    let obs = if args.report.is_some() { Obs::enabled() } else { Obs::disabled() };
    let output = Simulation::new(config, args.seed).run_with_obs(&obs);
    if output.config.corruption.is_enabled() {
        eprintln!("{}", output.quality);
    }
    if let Some(path) = &args.report {
        let report = run_report(&obs, &output, args.scale, args.seed);
        eprintln!("{}", report.human_summary());
        write_report(path, report.deterministic_json())?;
    }
    write_dataset(&output, &args.out).map_err(|e| format!("failed to write dataset: {e}"))?;
    eprintln!(
        "wrote {} racks, {} tickets to {}",
        output.fleet.racks.len(),
        output.tickets.len(),
        args.out.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn experiments(args: &Args) -> Result<ExitCode, String> {
    fleet_config(args)?;
    let all = || ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    let ids: Vec<String> = args.only.clone().unwrap_or_else(all);
    eprintln!(
        "simulating fleet ({:?} scale, seed {}, {:?}) ...",
        args.scale, args.seed, args.threads
    );
    // The simulation and every experiment record stage spans; the wall
    // times surface in the stderr summary below.
    let obs = Obs::enabled();
    let ctx = ExperimentContext::new_with_obs(
        args.scale,
        args.seed,
        args.threads,
        args.corruption.clone(),
        obs.clone(),
    );
    eprintln!(
        "simulated {} racks, {} tickets\n",
        ctx.output.fleet.racks.len(),
        ctx.output.tickets.len(),
    );
    if ctx.output.config.corruption.is_enabled() {
        eprintln!("{}\n", ctx.output.quality);
    }
    let mut failures = 0;
    for id in &ids {
        match run_experiment(id, &ctx, &args.out) {
            Ok(preview) => println!("=== {id} ===\n{preview}"),
            Err(e) => {
                eprintln!("experiment {id} FAILED: {e}");
                failures += 1;
            }
        }
    }
    let report = run_report(&obs, &ctx.output, args.scale, args.seed);
    eprintln!("{}", report.human_summary());
    let report_written = match &args.report {
        Some(path) => write_report(path, report.deterministic_json())
            .map_err(|msg| eprintln!("rainshine: {msg}"))
            .is_ok(),
        None => true,
    };
    eprintln!(
        "done: {}/{} experiments, artifacts in {}",
        ids.len() - failures,
        ids.len(),
        args.out.display()
    );
    Ok(if failures == 0 && report_written { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn conformance(args: &Args) -> Result<ExitCode, String> {
    let obs = Obs::enabled();
    let mut outcomes = Vec::new();
    for path in &args.scenarios {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let scenario =
            Scenario::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "conformance: scenario `{}` — {} claims, {} seeds",
            scenario.name,
            scenario.claims.len(),
            args.seeds
        );
        let in_scenario = |e| format!("scenario `{}`: {e}", scenario.name);
        let seeds = scenario.seeds(args.seeds).map_err(in_scenario)?;
        outcomes.push(run_scenario(&scenario, &seeds, args.threads, &obs).map_err(in_scenario)?);
    }
    let report = ConformanceReport::new(outcomes, Vec::new(), &obs.snapshot());
    eprint!("{}", report.human_summary());
    if let Some(path) = &args.report {
        write_report(path, report.deterministic_json())?;
    }

    let violations = report.violations();
    let mut failed = !violations.is_empty();
    for v in &violations {
        eprintln!("conformance: VIOLATION: {v}");
    }
    if let Some(path) = &args.baseline {
        let checked = fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))
            .and_then(|baseline| report.check_baseline(&baseline).map_err(|e| e.to_string()));
        match checked {
            Ok(()) => eprintln!("conformance: baseline match ({})", path.display()),
            Err(e) => {
                eprintln!("conformance: {e}");
                failed = true;
            }
        }
    }
    if failed {
        return Ok(ExitCode::FAILURE);
    }
    eprintln!("conformance: all claims recovered");
    Ok(ExitCode::SUCCESS)
}

fn write_dataset(output: &SimulationOutput, dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;

    // Rack inventory.
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
    fs::write(dir.join("fleet.csv"), fleet)?;

    // Ticket stream.
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
    fs::write(dir.join("tickets.csv"), tickets)?;

    // Daily ingested environment per DC-region (winsorized spikes, NaN
    // blackouts); identical to the raw sensor stream on clean runs.
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
    fs::write(dir.join("environment.csv"), env)?;

    // Manifest.
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
    fs::write(dir.join("manifest.json"), serde_json::to_string_pretty(&manifest)?)?;
    Ok(())
}
