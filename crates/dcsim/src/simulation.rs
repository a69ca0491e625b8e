//! Top-level simulation driver.

use std::num::NonZeroUsize;

use rainshine_obs::Obs;
use rainshine_parallel::derive_seed;
use rainshine_telemetry::ids::{DcId, RegionId};
use rainshine_telemetry::quality::{DataQualityReport, DefectClass, Sanitizer, SENSOR_BOUNDS};
use rainshine_telemetry::rma::{self, RmaTicket};
use rainshine_telemetry::time::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::FleetConfig;
use crate::cooling::InletConditions;
use crate::corruption::{self, InjectionLog, SensorFaultPlan};
use crate::environment::{DailyEnvSlab, EnvModel};
use crate::tickets;
use crate::topology::Fleet;

/// A configured simulation run. Construct with [`Simulation::new`], execute
/// with [`Simulation::run`].
///
/// # Example
///
/// ```
/// use rainshine_dcsim::{FleetConfig, Simulation};
///
/// let output = Simulation::new(FleetConfig::small(), 1).run();
/// let hardware = output.hardware_tickets();
/// assert!(!hardware.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    config: FleetConfig,
    seed: u64,
}

impl Simulation {
    /// Creates a simulation with the given configuration and seed.
    pub fn new(config: FleetConfig, seed: u64) -> Self {
        Simulation { config, seed }
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the simulation, producing the fleet, the environment model, and
    /// the full RMA ticket stream (sorted by open time, false positives
    /// included and flagged).
    ///
    /// Each generation stage draws per-rack (or per-DC) seed-derived RNG
    /// streams and merges results in rack order, so the output is a pure
    /// function of the seed: [`FleetConfig::parallelism`] changes only
    /// wall-clock time, never a ticket.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; validate with
    /// [`FleetConfig::validate`] first if the config is untrusted.
    pub fn run(self) -> SimulationOutput {
        self.run_with_obs(&Obs::disabled())
    }

    /// [`Simulation::run`] with observability: each pipeline stage records
    /// a span (generation, false positives, corruption, sanitizer, env
    /// audit) plus ticket/row counters on `obs`. Every recorded counter and
    /// item count is a pure function of `(config, seed)`, so the
    /// deterministic report section is identical at any thread count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_with_obs(self, obs: &Obs) -> SimulationOutput {
        let mut run_span = obs.span("dcsim.run");
        self.config.validate().expect("invalid simulation config");
        let fleet = {
            let _span = obs.span("dcsim.fleet_build");
            Fleet::build(&self.config)
        };
        obs.incr("fleet.racks", fleet.racks.len() as u64);
        let start_day = self.config.start.days();
        let end_day = start_day + self.config.span_days();
        let dcs: Vec<(DcId, u8)> = fleet.datacenters.iter().map(|d| (d.id, d.regions)).collect();
        // The true daily means, which hardware generation reads.
        let (env, daily_env) = {
            let _span = obs.span("dcsim.env_model");
            let env = EnvModel::paper_layout(self.seed);
            let daily_env = DailyEnvSlab::from_fn(&dcs, start_day, end_day, |dc, region, day| {
                env.daily_mean(dc, region, day)
            });
            (env, daily_env)
        };
        let par = self.config.parallelism;
        let mut all = {
            let mut span = obs.span("dcsim.tickets_hardware");
            let hw =
                tickets::generate_hardware(&fleet, &self.config, &env, &daily_env, self.seed, par);
            span.add_items(hw.len() as u64);
            hw
        };
        {
            let mut span = obs.span("dcsim.tickets_bursts");
            let bursts = tickets::generate_bursts(&fleet, &self.config, self.seed, par);
            span.add_items(bursts.len() as u64);
            all.extend(bursts);
        }
        {
            let mut span = obs.span("dcsim.tickets_non_hardware");
            let non_hw = tickets::generate_non_hardware(&fleet, &self.config, &all, self.seed, par);
            span.add_items(non_hw.len() as u64);
            all.extend(non_hw);
        }
        {
            let mut span = obs.span("dcsim.false_positives");
            let mut fp_rng =
                StdRng::seed_from_u64(derive_seed(self.seed, tickets::STREAM_FALSE_POSITIVES, 0));
            let fps = tickets::inject_false_positives(
                &all,
                self.config.false_positive_rate,
                self.config.end,
                &mut fp_rng,
            );
            span.add_items(fps.len() as u64);
            obs.incr("tickets.false_positives", fps.len() as u64);
            all.extend(fps);
        }
        rma::sort_canonical(&mut all);
        obs.incr("tickets.generated", all.len() as u64);
        obs.observe("tickets.per_rack_mean", (all.len() / fleet.racks.len().max(1)) as u64);

        // Dirty-data injection (off by default) followed by the robust
        // ingestion pass. The sanitizer always runs: on a pristine stream
        // it is a bit-identical no-op, so clean runs are unaffected, while
        // corrupted runs come out repaired/quarantined with every defect
        // accounted for in the quality report.
        let corruption_cfg = self.config.corruption.clone();
        let mut injection = InjectionLog::default();
        let mut sensor_faults = SensorFaultPlan::default();
        if corruption_cfg.is_enabled() {
            let mut span = obs.span("dcsim.corruption");
            let mut rng =
                StdRng::seed_from_u64(derive_seed(self.seed, corruption::STREAM_CORRUPTION, 0));
            injection = corruption::corrupt_tickets(
                &mut all,
                &corruption_cfg,
                (self.config.start, self.config.end),
                &mut rng,
            );
            let mut env_rng =
                StdRng::seed_from_u64(derive_seed(self.seed, corruption::STREAM_CORRUPTION, 1));
            sensor_faults = corruption::plan_sensor_faults(
                &corruption_cfg,
                &dcs,
                start_day,
                end_day,
                &mut env_rng,
            );
            injection.spiked_cells = sensor_faults.spiked_cells();
            injection.blackout_cells = sensor_faults.blackout_cells();
            span.add_items(injection.total_ticket_defects());
            obs.incr("corruption.defects_injected", injection.total_ticket_defects());
        }

        let sanitizer = Sanitizer::new(fleet.manifest(), self.config.start..self.config.end);
        let (tickets, mut quality) = {
            let mut span = obs.span("dcsim.sanitize");
            span.add_items(all.len() as u64);
            sanitizer.sanitize(all)
        };
        obs.incr("tickets.sanitized", tickets.len() as u64);
        obs.incr("tickets.quarantined", quality.tickets_seen.saturating_sub(quality.tickets_kept));

        // Environment-sensor audit: every (DC, region, day) cell as the
        // sensors reported it (NaN in a blackout, spiked in a spike cell) is
        // winsorized into the ingested slab, and each defect is recorded in
        // the report. Skipped when corruption is off: clean cells sit inside
        // the bounds, so the true slab is already the ingested one.
        let daily_env = if corruption_cfg.is_enabled() {
            let mut span = obs.span("dcsim.env_audit");
            DailyEnvSlab::from_fn(&dcs, start_day, end_day, |dc, region, day| {
                span.add_items(1);
                quality.env_cells_seen += 1;
                if sensor_faults.is_blacked_out(dc, region, day) {
                    quality.record(DefectClass::SensorBlackout, false);
                    return InletConditions { temp_f: f64::NAN, rh: f64::NAN };
                }
                let clean = daily_env.daily_mean(&env, dc, region, day);
                let spike = sensor_faults.spike_delta(dc, region, day).unwrap_or(0.0);
                let (temp_f, temp_clamped) = SENSOR_BOUNDS.winsorize_temp(clean.temp_f + spike);
                let (rh, rh_clamped) = SENSOR_BOUNDS.winsorize_rh(clean.rh);
                if temp_clamped || rh_clamped {
                    quality.record(DefectClass::SensorSpike, true);
                }
                InletConditions { temp_f, rh }
            })
        } else {
            daily_env
        };
        run_span.add_items(tickets.len() as u64);

        SimulationOutput {
            config: self.config,
            seed: self.seed,
            fleet,
            env,
            daily_env,
            tickets,
            sensor_faults,
            injection,
            quality,
        }
    }
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct SimulationOutput {
    /// The configuration that was run.
    pub config: FleetConfig,
    /// The seed that was used.
    pub seed: u64,
    /// The static fleet.
    pub fleet: Fleet,
    /// The environment model (queryable for any rack-hour).
    pub env: EnvModel,
    /// The ingested daily inlet conditions over the run's span, one cell
    /// per (DC, region, day); [`Self::ingested_daily_env`] reads it.
    daily_env: DailyEnvSlab,
    /// The sanitized RMA ticket stream, sorted by open time. Flagged false
    /// positives are included; injected defects have been repaired or
    /// quarantined (see [`Self::quality`]).
    pub tickets: Vec<RmaTicket>,
    /// Sensor faults injected into the environmental telemetry (empty when
    /// corruption is off). The readings as ingestion kept them, blackouts
    /// as NaN and spikes winsorized, are [`Self::ingested_daily_env`].
    pub sensor_faults: SensorFaultPlan,
    /// Ground truth of every defect the injector introduced.
    pub injection: InjectionLog,
    /// What the ingestion layer saw and did, row by row.
    pub quality: DataQualityReport,
}

impl SimulationOutput {
    /// Validated true-positive tickets — the population the paper analyzes.
    pub fn true_positives(&self) -> Vec<&RmaTicket> {
        rma::true_positives(&self.tickets)
    }

    /// True-positive *hardware* tickets — the population Q1–Q3 use.
    pub fn hardware_tickets(&self) -> Vec<&RmaTicket> {
        self.true_positives().into_iter().filter(|t| t.fault.is_hardware()).collect()
    }

    /// Streams every active (rack, day) in rack-major, day-ascending order,
    /// stepping days by `day_stride`, handing each visit the rack's index in
    /// `fleet.racks`, the rack, the day's [`SimTime`], and the ingested
    /// (sanitized) inlet conditions.
    ///
    /// This is the zero-copy emission path for columnar dataset assembly:
    /// callers append straight into column builders instead of materializing
    /// per-row value vectors. Returns the number of rack-days visited.
    pub fn for_each_active_rack_day<F>(&self, day_stride: NonZeroUsize, mut emit: F) -> usize
    where
        F: FnMut(usize, &crate::topology::RackInfo, SimTime, InletConditions),
    {
        let start_day = self.config.start.days();
        let end_day = self.config.end.days();
        let mut visited = 0usize;
        for (index, rack) in self.fleet.racks.iter().enumerate() {
            for day in (start_day..end_day).step_by(day_stride.get()) {
                let t = SimTime::from_days(day);
                if !rack.is_active(t) {
                    continue;
                }
                let env = self.ingested_daily_env(rack.dc, rack.region, day);
                emit(index, rack, t, env);
                visited += 1;
            }
        }
        visited
    }

    /// Daily mean inlet conditions after robust ingestion: spikes are
    /// winsorized to physical bounds, blackout cells stay NaN (downstream
    /// analyses skip or route them). Identical to the true environment when
    /// the sensors are clean, and outside the span, where the sensors have
    /// no faults and [`EnvModel::daily_mean`] answers.
    pub fn ingested_daily_env(&self, dc: DcId, region: RegionId, day: u64) -> InletConditions {
        self.daily_env.daily_mean(&self.env, dc, region, day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::ids::DcId;

    #[test]
    fn run_is_deterministic_per_seed() {
        let a = Simulation::new(FleetConfig::small(), 99).run();
        let b = Simulation::new(FleetConfig::small(), 99).run();
        assert_eq!(a.tickets, b.tickets);
        let c = Simulation::new(FleetConfig::small(), 100).run();
        assert_ne!(a.tickets.len(), 0);
        assert_ne!(a.tickets, c.tickets);
    }

    #[test]
    fn thread_count_does_not_change_the_ticket_stream() {
        use rainshine_parallel::Parallelism;
        let mut config = FleetConfig::small();
        config.parallelism = Parallelism::Sequential;
        let sequential = Simulation::new(config.clone(), 99).run();
        for par in [Parallelism::Threads(2), Parallelism::Threads(4), Parallelism::Auto] {
            config.parallelism = par;
            let parallel = Simulation::new(config.clone(), 99).run();
            assert_eq!(sequential.tickets, parallel.tickets, "{par:?}");
        }
    }

    #[test]
    fn tickets_sorted_and_mixed() {
        let out = Simulation::new(FleetConfig::small(), 3).run();
        assert!(out.tickets.windows(2).all(|w| w[0].opened <= w[1].opened));
        let tp = out.true_positives();
        let hw = out.hardware_tickets();
        assert!(!hw.is_empty());
        assert!(hw.len() < tp.len(), "software tickets exist");
        let fp_count = out.tickets.len() - tp.len();
        let fp_share = fp_count as f64 / out.tickets.len() as f64;
        assert!((fp_share - 0.08).abs() < 0.02, "fp share {fp_share}");
    }

    #[test]
    fn both_dcs_produce_tickets() {
        let out = Simulation::new(FleetConfig::small(), 4).run();
        for dc in [DcId(1), DcId(2)] {
            assert!(
                out.hardware_tickets().iter().any(|t| t.location.dc == dc),
                "no hardware tickets in {dc}"
            );
        }
    }
}
