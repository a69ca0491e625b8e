//! Dirty-data end-to-end tests: inject the documented defect profile
//! ([`CorruptionConfig::dirty_default`]) into a medium fleet, let the
//! ingestion pipeline sanitize it, and check that
//!
//! * the multi-factor conclusions (SKU ranking, DC1 temperature threshold,
//!   spare counts) match a clean run of the same seed,
//! * the data-quality report accounts for every injected defect exactly,
//! * the dirty pipeline stays bit-identical across thread counts and
//!   repeated runs.

use std::sync::{Once, OnceLock};

use proptest::prelude::*;

use rainshine::analysis::dataset::{rack_day_table, FaultFilter};
use rainshine::analysis::evidence;
use rainshine::analysis::q1::{provision_servers, ProvisionParams};
use rainshine::analysis::q3::{dc_subset, env_analysis};
use rainshine::cart::params::CartParams;
use rainshine::dcsim::{CorruptionConfig, FleetConfig, Simulation, SimulationOutput};
use rainshine::obs::Obs;
use rainshine::parallel::Parallelism;
use rainshine::telemetry::ids::{DcId, RegionId, Workload};
use rainshine::telemetry::quality::{DataQualityReport, DefectClass, SENSOR_BOUNDS};
use rainshine::telemetry::rma::{self, HardwareFault};
use rainshine::telemetry::time::TimeGranularity;
use rainshine_bench::{run_experiment, ExperimentContext, Scale, ALL_EXPERIMENTS};

/// Medium fleet, one year, seed 31 — the same run the Q3 unit tests use, so
/// the clean baseline is known-good.
const SEED: u64 = 31;

static CLEAN: OnceLock<SimulationOutput> = OnceLock::new();
static DIRTY: OnceLock<SimulationOutput> = OnceLock::new();

fn clean() -> &'static SimulationOutput {
    CLEAN.get_or_init(|| Simulation::new(FleetConfig::medium(), SEED).run())
}

fn dirty() -> &'static SimulationOutput {
    DIRTY.get_or_init(|| {
        let mut config = FleetConfig::medium();
        config.corruption = CorruptionConfig::dirty_default();
        Simulation::new(config, SEED).run()
    })
}

/// SKU labels ordered by descending mean failure rate (Fig. 7's ranking).
fn sku_rank(out: &SimulationOutput) -> Vec<String> {
    let t = rack_day_table(out, FaultFilter::AllHardware, 1).unwrap();
    let mut rows = evidence::by_sku(&t).unwrap();
    rows.sort_by(|a, b| b.mean.partial_cmp(&a.mean).unwrap());
    rows.into_iter().map(|r| r.label).collect()
}

fn dc1_temp_threshold(out: &SimulationOutput) -> f64 {
    let t = rack_day_table(out, FaultFilter::Component(HardwareFault::Disk), 1).unwrap();
    let dc1 = dc_subset(&t, "DC1").unwrap();
    let cart = CartParams::default().with_min_sizes(400, 200).with_cp(0.002);
    env_analysis("DC1", &dc1, &cart).unwrap().temp_threshold
}

#[test]
fn sku_ranking_survives_dirty_data() {
    assert_eq!(sku_rank(clean()), sku_rank(dirty()));
}

#[test]
fn dc1_temperature_threshold_survives_dirty_data() {
    let ct = dc1_temp_threshold(clean());
    let dt = dc1_temp_threshold(dirty());
    // The planted threshold is 78 °F; both runs must land nearby, and the
    // dirty run must stay close to the clean one.
    assert!((73.0..=83.0).contains(&ct), "clean threshold {ct}");
    assert!((73.0..=83.0).contains(&dt), "dirty threshold {dt}");
    assert!((ct - dt).abs() <= 5.0, "clean {ct} vs dirty {dt}");
}

#[test]
fn spare_counts_survive_dirty_data() {
    let params = ProvisionParams::new(1.0, TimeGranularity::Daily);
    let pc = provision_servers(clean(), Workload::W1, &params).unwrap();
    let pd = provision_servers(dirty(), Workload::W1, &params).unwrap();
    for (name, a, b) in [
        ("lb", pc.lb.spares, pd.lb.spares),
        ("sf", pc.sf.spares, pd.sf.spares),
        ("mf", pc.mf.spares, pd.mf.spares),
    ] {
        let rel = (a - b).abs() / a.max(1.0);
        assert!(rel <= 0.10, "{name} spares: clean {a} dirty {b} (rel {rel:.3})");
    }
}

#[test]
fn quality_report_accounts_for_every_injected_defect() {
    let out = dirty();
    let q = &out.quality;
    let inj = &out.injection;

    // The clean stream can contain *natural* duplicates — two genuine
    // repeat failures of one device logged with identical timestamps. The
    // sanitizer rightly folds those too, so the dirty-run count is
    // injected + clean baseline. Every other class is impossible on clean
    // data by construction (its baseline must be zero).
    let natural_dupes = clean().quality.counts(DefectClass::DuplicateTicket).quarantined;
    for class in DefectClass::ALL {
        if class != DefectClass::DuplicateTicket {
            assert_eq!(clean().quality.counts(class).detected, 0, "clean baseline {class}");
        }
    }

    // Exact per-class accounting against the injection log.
    assert_eq!(q.counts(DefectClass::DuplicateTicket).quarantined, inj.duplicates + natural_dupes);
    assert_eq!(q.counts(DefectClass::InvertedInterval).repaired, inj.inverted);
    assert_eq!(q.counts(DefectClass::ClockSkew).quarantined, inj.clock_skewed);
    assert_eq!(q.counts(DefectClass::MislabeledLocation).repaired, inj.mislabeled);
    assert_eq!(q.counts(DefectClass::CensoredResolution).repaired, inj.censored);
    assert_eq!(q.counts(DefectClass::SensorSpike).repaired, inj.spiked_cells);
    assert_eq!(q.counts(DefectClass::SensorBlackout).quarantined, inj.blackout_cells);
    for class in DefectClass::ALL {
        let c = q.counts(class);
        assert_eq!(c.detected, c.repaired + c.quarantined, "{class}");
    }

    // Quarantined tickets (duplicates + clock skew) are the only removals.
    assert_eq!(
        q.tickets_kept,
        q.tickets_seen - inj.duplicates - natural_dupes - inj.clock_skewed,
        "kept = seen - quarantined tickets"
    );
    // The documented defaults hit at least 5% of the stream.
    let rate = inj.total_ticket_defects() as f64 / q.tickets_seen as f64;
    assert!(rate >= 0.04, "injected defect rate {rate:.3}");

    // Every env cell was audited; at least one blackout window per DC.
    let span = out.config.span_days();
    let cells: u64 =
        out.env.datacenters().iter().map(|d| d.region_temp_offsets.len() as u64 * span).sum();
    assert_eq!(q.env_cells_seen, cells);
    for dc in [1u8, 2] {
        assert!(
            out.sensor_faults.blackouts.iter().any(|w| w.dc.0 == dc),
            "DC{dc} has no blackout window"
        );
    }
    assert!(inj.blackout_cells > 0 && inj.spiked_cells > 0);
}

#[test]
fn sanitized_stream_is_fully_valid() {
    let out = dirty();
    let mut report = DataQualityReport::default();
    let tp = rma::true_positives_audited(&out.tickets, &mut report);
    assert_eq!(report.invalid_dropped, 0, "sanitizer let an invalid ticket through");
    assert_eq!(tp.len() + report.false_positives_excluded as usize, out.tickets.len());
    // Locations are manifest-consistent after mislabel repair.
    for t in tp {
        let rack = out.fleet.rack(t.location.rack).expect("known rack");
        assert_eq!(rack.dc, t.location.dc);
        assert_eq!(rack.region, t.location.region);
    }
}

/// Corruption configs that `validate` accepts: ticket defect rates summing
/// to at most 0.5 (a random total split by random class weights), a spike
/// rate up to 0.2, and 0–8 blackout windows per DC of 1–180 days each.
fn corruption_strategy() -> impl Strategy<Value = CorruptionConfig> {
    let weight = || 0.0f64..=1.0;
    (
        (weight(), weight(), weight(), weight(), weight()),
        0.0f64..=0.5,
        0.0f64..=0.2,
        0u32..=8,
        1u64..=180,
    )
        .prop_map(
            |(w, ticket_rate, sensor_spike_rate, blackout_windows_per_dc, blackout_days)| {
                let per_weight = ticket_rate / (w.0 + w.1 + w.2 + w.3 + w.4).max(f64::MIN_POSITIVE);
                CorruptionConfig {
                    duplicate_rate: w.0 * per_weight,
                    inverted_rate: w.1 * per_weight,
                    clock_skew_rate: w.2 * per_weight,
                    mislabel_rate: w.3 * per_weight,
                    censor_rate: w.4 * per_weight,
                    sensor_spike_rate,
                    blackout_windows_per_dc,
                    blackout_days,
                }
            },
        )
}

type ExperimentResult = Result<String, rainshine_bench::ExperimentError>;

/// Runs every experiment id on the small fleet, sequentially, with
/// `corruption` injected; a panic inside any experiment fails the caller.
fn run_suite(
    corruption: CorruptionConfig,
) -> (ExperimentContext, Vec<(&'static str, ExperimentResult)>) {
    let dir = std::env::temp_dir().join("rainshine-dirty-suite");
    let ctx = ExperimentContext::new_with_obs(
        Scale::Small,
        SEED,
        Parallelism::Sequential,
        corruption,
        Obs::disabled(),
    );
    let outcomes = ALL_EXPERIMENTS.iter().map(|&id| (id, run_experiment(id, &ctx, &dir))).collect();
    (ctx, outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Hostile input: on any corruption `validate` accepts, every id returns
    // `Ok` or a typed error and none panics. The documented dirty preset,
    // run once ahead of the random cases, must be `Ok` for every id.
    #[test]
    fn full_experiment_suite_never_panics_on_dirty_data(corruption in corruption_strategy()) {
        static DIRTY_DEFAULT: Once = Once::new();
        DIRTY_DEFAULT.call_once(|| {
            let (ctx, outcomes) = run_suite(CorruptionConfig::dirty_default());
            let quality = &ctx.output.quality;
            assert!(quality.tickets_seen > quality.tickets_kept, "defects injected");
            for (id, outcome) in outcomes {
                let preview = outcome
                    .unwrap_or_else(|e| panic!("experiment {id} failed on dirty data: {e}"));
                assert!(!preview.is_empty(), "{id} produced empty preview");
            }
        });
        prop_assert!(corruption.validate().is_ok(), "strategy drew an invalid {corruption:?}");
        for (id, outcome) in run_suite(corruption).1 {
            match outcome {
                Ok(preview) => prop_assert!(!preview.is_empty(), "{id} produced empty preview"),
                Err(e) => prop_assert!(!e.to_string().is_empty(), "{id} failed without a message"),
            }
        }
    }
}

#[test]
fn dirty_pipeline_is_bit_identical_across_parallelism_and_repeats() {
    let run = |p: Parallelism| {
        let mut config = FleetConfig::small();
        config.corruption = CorruptionConfig::dirty_default();
        config.parallelism = p;
        Simulation::new(config, 17).run()
    };
    let a = run(Parallelism::Sequential);
    let b = run(Parallelism::Threads(3));
    let c = run(Parallelism::Auto);
    let d = run(Parallelism::Sequential);
    for other in [&b, &c, &d] {
        assert_eq!(a.tickets, other.tickets);
        assert_eq!(a.quality, other.quality);
        assert_eq!(a.injection, other.injection);
        assert_eq!(a.sensor_faults, other.sensor_faults);
    }
}

/// The environment views as they were computed before the daily slab: a
/// fresh `EnvModel::daily_mean` sample per call, then the sensor faults,
/// then (ingested only) the physical-bounds winsorising.
fn sampled_views(out: &SimulationOutput, dc: DcId, region: RegionId, day: u64) -> [f64; 4] {
    let clean = out.env.daily_mean(dc, region, day);
    if out.sensor_faults.is_empty() {
        return [clean.temp_f, clean.rh, clean.temp_f, clean.rh];
    }
    if out.sensor_faults.is_blacked_out(dc, region, day) {
        return [f64::NAN; 4];
    }
    let temp_f = clean.temp_f + out.sensor_faults.spike_delta(dc, region, day).unwrap_or(0.0);
    [
        temp_f,
        clean.rh,
        SENSOR_BOUNDS.winsorize_temp(temp_f).0,
        SENSOR_BOUNDS.winsorize_rh(clean.rh).0,
    ]
}

#[test]
fn daily_env_views_match_per_call_sampling() {
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    for out in [clean(), dirty()] {
        let (start, end) = (out.config.start.days(), out.config.end.days());
        // The whole span, plus days either side of it that the views
        // answer by sampling.
        let days: Vec<u64> =
            [0, start.saturating_sub(1), end, end + 30].into_iter().chain(start..end).collect();
        let mut nan_cells = 0;
        for d in &out.fleet.datacenters {
            for region in (1..=d.regions).map(RegionId) {
                for &day in &days {
                    let observed = out.observed_daily_env(d.id, region, day);
                    let ingested = out.ingested_daily_env(d.id, region, day);
                    let got = [observed.temp_f, observed.rh, ingested.temp_f, ingested.rh];
                    let want = sampled_views(out, d.id, region, day);
                    assert!(
                        got.iter().zip(&want).all(|(&g, &w)| same(g, w)),
                        "{} {region:?} day {day}: {got:?} vs {want:?}",
                        d.id
                    );
                    nan_cells += usize::from(ingested.temp_f.is_nan());
                }
            }
        }
        assert_eq!(nan_cells > 0, !out.sensor_faults.is_empty(), "blackouts reach the views");
    }
}
