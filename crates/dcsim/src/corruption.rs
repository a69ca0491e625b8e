//! Seeded data-corruption injector: degrades pristine simulator output the
//! way production ingestion pipelines do.
//!
//! The paper's framework exists because real RMA streams are *cloudy* —
//! duplicated tickets from pipeline retries, inverted or clock-skewed
//! intervals, mislabeled locations, censored resolution times, and flaky
//! environmental sensors. This module injects exactly those defects at
//! configurable per-class rates, deterministically from the run seed, so
//! the robust ingestion layer (`rainshine_telemetry::quality`) can be
//! exercised end-to-end and its [`DataQualityReport`] audited against the
//! ground-truth [`InjectionLog`].
//!
//! Design rules that make the accounting exact:
//!
//! * at most **one** defect per ticket (a single uniform draw against
//!   cumulative class rates), and false positives are never corrupted;
//! * every ticket defect is detectable from clean-data invariants the
//!   generators guarantee (outage ≥ 1 h, open time inside the span,
//!   locations consistent with the fleet);
//! * sensor spikes push readings outside [`SensorBounds`] by construction,
//!   and spike cells never overlap blackout windows.
//!
//! [`DataQualityReport`]: rainshine_telemetry::quality::DataQualityReport
//! [`SensorBounds`]: rainshine_telemetry::quality::SensorBounds

use rainshine_telemetry::ids::{DcId, RegionId};
use rainshine_telemetry::rma::RmaTicket;
use rainshine_telemetry::time::SimTime;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;

use crate::{Result, SimError};

/// RNG stream tag for corruption (ticket stream = index 0, sensor-fault
/// plan = index 1); tags 1–4 belong to the ticket generators.
pub(crate) const STREAM_CORRUPTION: u64 = 5;

/// Sensor spikes shift a reading by at least this much (°F). Clean inlet
/// temperatures span 56–90 °F and the ingestion bounds are 50–95 °F, so a
/// ≥ 45 °F shift always lands outside the bounds — every spike is
/// detectable.
const SPIKE_MIN_F: f64 = 45.0;
/// Upper bound on the spike magnitude (°F).
const SPIKE_MAX_F: f64 = 80.0;

/// Per-defect-class corruption rates. The default is all-zero (pristine
/// output, bit-identical to a simulator without this module); use
/// [`CorruptionConfig::dirty_default`] for the documented dirty preset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CorruptionConfig {
    /// Fraction of tickets re-reported as a near-duplicate (pipeline retry).
    pub duplicate_rate: f64,
    /// Fraction of tickets with opened/resolved swapped.
    pub inverted_rate: f64,
    /// Fraction of tickets time-shifted outside the observation span.
    pub clock_skew_rate: f64,
    /// Fraction of tickets with the datacenter field mislabeled.
    pub mislabel_rate: f64,
    /// Fraction of tickets whose resolution time is lost (`resolved ==
    /// opened`).
    pub censor_rate: f64,
    /// Per-cell probability of an out-of-bounds sensor spike (cell =
    /// DC-region × day).
    pub sensor_spike_rate: f64,
    /// Sensor blackout windows per datacenter (each in its own region).
    pub blackout_windows_per_dc: u32,
    /// Length of each blackout window in days.
    pub blackout_days: u64,
}

impl Default for CorruptionConfig {
    fn default() -> Self {
        CorruptionConfig {
            duplicate_rate: 0.0,
            inverted_rate: 0.0,
            clock_skew_rate: 0.0,
            mislabel_rate: 0.0,
            censor_rate: 0.0,
            sensor_spike_rate: 0.0,
            blackout_windows_per_dc: 0,
            blackout_days: 14,
        }
    }
}

impl CorruptionConfig {
    /// The documented dirty preset: 6 % of tickets defective (spread over
    /// the five ticket classes), one two-week sensor blackout per DC, and
    /// a sprinkling of sensor spikes.
    pub fn dirty_default() -> Self {
        CorruptionConfig {
            duplicate_rate: 0.02,
            inverted_rate: 0.01,
            clock_skew_rate: 0.005,
            mislabel_rate: 0.015,
            censor_rate: 0.01,
            sensor_spike_rate: 0.002,
            blackout_windows_per_dc: 1,
            blackout_days: 14,
        }
    }

    /// Spreads one overall ticket-defect rate evenly over the five ticket
    /// classes and scales the sensor defects to match (the `--corrupt
    /// <rate>` CLI preset).
    pub fn with_total_rate(rate: f64) -> Self {
        CorruptionConfig {
            duplicate_rate: rate / 5.0,
            inverted_rate: rate / 5.0,
            clock_skew_rate: rate / 5.0,
            mislabel_rate: rate / 5.0,
            censor_rate: rate / 5.0,
            sensor_spike_rate: rate / 20.0,
            blackout_windows_per_dc: u32::from(rate > 0.0),
            blackout_days: 14,
        }
    }

    /// Parses a `k=v,...` spec, e.g.
    /// `duplicate=0.02,censor=0.01,blackout_windows=2,blackout_days=7`.
    /// Unset keys stay at zero (clean). Keys: `duplicate`, `inverted`,
    /// `clock_skew`, `mislabel`, `censor`, `spike`, `blackout_windows`,
    /// `blackout_days`.
    pub fn parse_spec(spec: &str) -> std::result::Result<Self, String> {
        let mut cfg = CorruptionConfig::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("corrupt-spec entry `{part}` is not k=v"))?;
            let key = key.trim();
            let value = value.trim();
            let rate = || {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("corrupt-spec `{key}` has non-numeric value `{value}`"))
            };
            match key {
                "duplicate" => cfg.duplicate_rate = rate()?,
                "inverted" => cfg.inverted_rate = rate()?,
                "clock_skew" => cfg.clock_skew_rate = rate()?,
                "mislabel" => cfg.mislabel_rate = rate()?,
                "censor" => cfg.censor_rate = rate()?,
                "spike" => cfg.sensor_spike_rate = rate()?,
                "blackout_windows" => {
                    cfg.blackout_windows_per_dc = value.parse().map_err(|_| {
                        format!("corrupt-spec `blackout_windows` needs an integer, got `{value}`")
                    })?;
                }
                "blackout_days" => {
                    cfg.blackout_days = value.parse().map_err(|_| {
                        format!("corrupt-spec `blackout_days` needs an integer, got `{value}`")
                    })?;
                }
                other => return Err(format!("unknown corrupt-spec key `{other}`")),
            }
        }
        Ok(cfg)
    }

    /// Combined per-ticket defect probability.
    fn ticket_defect_rate(&self) -> f64 {
        self.duplicate_rate
            + self.inverted_rate
            + self.clock_skew_rate
            + self.mislabel_rate
            + self.censor_rate
    }

    /// Whether any defect is configured.
    pub fn is_enabled(&self) -> bool {
        self.ticket_defect_rate() > 0.0
            || self.sensor_spike_rate > 0.0
            || self.blackout_windows_per_dc > 0
    }

    /// Validates the rates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a rate is negative or not
    /// finite, ticket defect rates sum past 0.5, or a blackout is requested
    /// with zero length.
    pub fn validate(&self) -> Result<()> {
        let rates = [
            self.duplicate_rate,
            self.inverted_rate,
            self.clock_skew_rate,
            self.mislabel_rate,
            self.censor_rate,
            self.sensor_spike_rate,
        ];
        if rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err(SimError::InvalidConfig {
                field: "corruption",
                reason: "defect rates must be finite and non-negative",
            });
        }
        if self.ticket_defect_rate() > 0.5 {
            return Err(SimError::InvalidConfig {
                field: "corruption",
                reason: "combined ticket defect rate must not exceed 0.5",
            });
        }
        if self.sensor_spike_rate > 0.2 {
            return Err(SimError::InvalidConfig {
                field: "corruption",
                reason: "sensor spike rate must not exceed 0.2",
            });
        }
        if self.blackout_windows_per_dc > 0 && self.blackout_days == 0 {
            return Err(SimError::InvalidConfig {
                field: "corruption",
                reason: "blackout windows need blackout_days >= 1",
            });
        }
        Ok(())
    }
}

/// Ground truth of what the injector actually did — the reference the
/// data-quality report is audited against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionLog {
    /// Near-duplicate tickets appended.
    pub duplicates: u64,
    /// Tickets with opened/resolved swapped.
    pub inverted: u64,
    /// Tickets shifted outside the observation span.
    pub clock_skewed: u64,
    /// Tickets with the DC field mislabeled.
    pub mislabeled: u64,
    /// Tickets with the resolution time censored.
    pub censored: u64,
    /// Sensor cells spiked out of bounds.
    pub spiked_cells: u64,
    /// Sensor cells inside a blackout window.
    pub blackout_cells: u64,
}

impl InjectionLog {
    /// Total defective ticket rows injected.
    pub fn total_ticket_defects(&self) -> u64 {
        self.duplicates + self.inverted + self.clock_skewed + self.mislabeled + self.censored
    }
}

/// Corrupts a sorted ticket stream in place (appending duplicates), one
/// defect per ticket at most, skipping flagged false positives. The stream
/// is re-sorted afterwards so downstream consumers still see open-time
/// order.
pub fn corrupt_tickets(
    tickets: &mut Vec<RmaTicket>,
    config: &CorruptionConfig,
    span: (SimTime, SimTime),
    rng: &mut StdRng,
) -> InjectionLog {
    let mut log = InjectionLog::default();
    let span_hours = span.1.hours().saturating_sub(span.0.hours());
    let mut clones: Vec<RmaTicket> = Vec::new();
    for t in tickets.iter_mut() {
        if t.false_positive {
            continue;
        }
        let u: f64 = rng.gen();
        let mut edge = config.duplicate_rate;
        if u < edge {
            // Pipeline retry: same event re-reported a little later. The
            // jitter stays below both the outage and the dedup window.
            let mut dup = t.clone();
            let jitter = rng.gen_range(1..=3u64).min(dup.outage_hours().saturating_sub(1));
            dup.opened = SimTime(dup.opened.hours() + jitter);
            clones.push(dup);
            log.duplicates += 1;
            continue;
        }
        edge += config.inverted_rate;
        if u < edge {
            if t.resolved > t.opened {
                std::mem::swap(&mut t.opened, &mut t.resolved);
                log.inverted += 1;
            }
            continue;
        }
        edge += config.clock_skew_rate;
        if u < edge {
            // A full-span shift always lands the open time past the end.
            t.opened = SimTime(t.opened.hours() + span_hours);
            t.resolved = SimTime(t.resolved.hours() + span_hours);
            log.clock_skewed += 1;
            continue;
        }
        edge += config.mislabel_rate;
        if u < edge {
            t.location.dc = DcId(if t.location.dc.0 == 1 { 2 } else { 1 });
            log.mislabeled += 1;
            continue;
        }
        edge += config.censor_rate;
        if u < edge {
            t.resolved = t.opened;
            log.censored += 1;
        }
    }
    tickets.extend(clones);
    tickets.sort_by_key(|t| (t.opened, t.location.rack, t.device));
    log
}

/// One sensor blackout: a DC region reports nothing for a run of days.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlackoutWindow {
    /// Affected datacenter.
    pub dc: DcId,
    /// Affected cooling region.
    pub region: RegionId,
    /// First blacked-out day (absolute simulation day).
    pub start_day: u64,
    /// Window length in days.
    pub days: u64,
}

impl BlackoutWindow {
    /// Whether a cell falls inside this window.
    pub fn covers(&self, dc: DcId, region: RegionId, day: u64) -> bool {
        self.dc == dc
            && self.region == region
            && day >= self.start_day
            && day < self.start_day + self.days
    }
}

/// One spiked sensor cell: the daily temperature reading lands far outside
/// physical bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeCell {
    /// Affected datacenter.
    pub dc: DcId,
    /// Affected cooling region.
    pub region: RegionId,
    /// Spiked day (absolute simulation day).
    pub day: u64,
    /// Additive temperature error (°F), always ≥ `SPIKE_MIN_F` (45 °F) in
    /// magnitude.
    pub delta_f: f64,
}

/// The sensor-fault plan for one run: which env cells are blacked out and
/// which are spiked. Empty by default (clean sensors).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SensorFaultPlan {
    /// Blackout windows (disjoint by construction — one region each).
    pub blackouts: Vec<BlackoutWindow>,
    /// Spiked cells (never inside a blackout window).
    pub spikes: Vec<SpikeCell>,
}

impl SensorFaultPlan {
    /// Whether the plan has no faults at all.
    pub fn is_empty(&self) -> bool {
        self.blackouts.is_empty() && self.spikes.is_empty()
    }

    /// Whether a cell falls in any blackout window.
    pub fn is_blacked_out(&self, dc: DcId, region: RegionId, day: u64) -> bool {
        self.blackouts.iter().any(|w| w.covers(dc, region, day))
    }

    /// The spike delta for a cell, if any.
    pub fn spike_delta(&self, dc: DcId, region: RegionId, day: u64) -> Option<f64> {
        self.spikes
            .iter()
            .find(|s| s.dc == dc && s.region == region && s.day == day)
            .map(|s| s.delta_f)
    }

    /// Total blacked-out cells.
    pub fn blackout_cells(&self) -> u64 {
        self.blackouts.iter().map(|w| w.days).sum()
    }

    /// Total spiked cells.
    pub fn spiked_cells(&self) -> u64 {
        self.spikes.len() as u64
    }
}

/// Draws the sensor-fault plan for a run. `dcs` lists each datacenter with
/// its region count; days are absolute simulation days in
/// `start_day..end_day`. Blackout windows pick distinct regions per DC (so
/// windows never overlap) and spikes skip blacked-out cells, keeping every
/// fault individually countable.
pub fn plan_sensor_faults(
    config: &CorruptionConfig,
    dcs: &[(DcId, u8)],
    start_day: u64,
    end_day: u64,
    rng: &mut StdRng,
) -> SensorFaultPlan {
    let mut plan = SensorFaultPlan::default();
    let span = end_day.saturating_sub(start_day);
    if span == 0 {
        return plan;
    }
    let days = config.blackout_days.min(span);
    if config.blackout_windows_per_dc > 0 && days > 0 {
        for &(dc, regions) in dcs {
            let mut region_pool: Vec<u8> = (1..=regions).collect();
            region_pool.shuffle(rng);
            let windows = (config.blackout_windows_per_dc as usize).min(region_pool.len());
            for &region in &region_pool[..windows] {
                let latest_start = end_day - days;
                let start = if latest_start > start_day {
                    rng.gen_range(start_day..latest_start)
                } else {
                    start_day
                };
                plan.blackouts.push(BlackoutWindow {
                    dc,
                    region: RegionId(region),
                    start_day: start,
                    days,
                });
            }
        }
    }
    if config.sensor_spike_rate > 0.0 {
        for &(dc, regions) in dcs {
            for region in 1..=regions {
                for day in start_day..end_day {
                    if plan.is_blacked_out(dc, RegionId(region), day) {
                        continue;
                    }
                    if rng.gen_bool(config.sensor_spike_rate) {
                        let magnitude = rng.gen_range(SPIKE_MIN_F..SPIKE_MAX_F);
                        let delta = if rng.gen_bool(0.5) { magnitude } else { -magnitude };
                        plan.spikes.push(SpikeCell {
                            dc,
                            region: RegionId(region),
                            day,
                            delta_f: delta,
                        });
                    }
                }
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::ids::{DeviceId, RackId, RowId, ServerId, ServerLocation};
    use rainshine_telemetry::rma::FaultKind;
    use rand::SeedableRng;

    fn ticket(opened: u64, resolved: u64) -> RmaTicket {
        RmaTicket {
            device: DeviceId(1),
            location: ServerLocation {
                dc: DcId(1),
                region: RegionId(1),
                row: RowId(1),
                rack: RackId(1),
                server: ServerId(1),
            },
            fault: FaultKind::Other,
            opened: SimTime(opened),
            resolved: SimTime(resolved),
            repeat_count: 0,
            false_positive: false,
        }
    }

    #[test]
    fn default_is_clean_and_dirty_preset_meets_floor() {
        assert!(!CorruptionConfig::default().is_enabled());
        let dirty = CorruptionConfig::dirty_default();
        assert!(dirty.ticket_defect_rate() >= 0.05, "issue floor: >=5% defective");
        assert!(dirty.blackout_windows_per_dc >= 1);
        assert!(dirty.validate().is_ok());
    }

    #[test]
    fn spec_parses_and_rejects_garbage() {
        let cfg = CorruptionConfig::parse_spec(
            "duplicate=0.1, censor=0.05,blackout_windows=2,blackout_days=7",
        )
        .unwrap();
        assert_eq!(cfg.duplicate_rate, 0.1);
        assert_eq!(cfg.censor_rate, 0.05);
        assert_eq!(cfg.blackout_windows_per_dc, 2);
        assert_eq!(cfg.blackout_days, 7);
        assert_eq!(cfg.inverted_rate, 0.0);
        assert!(CorruptionConfig::parse_spec("bogus=1").is_err());
        assert!(CorruptionConfig::parse_spec("duplicate").is_err());
        assert!(CorruptionConfig::parse_spec("duplicate=x").is_err());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let cfg = CorruptionConfig { duplicate_rate: -0.1, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg = CorruptionConfig { censor_rate: 0.6, ..Default::default() };
        assert!(cfg.validate().is_err());
        let cfg =
            CorruptionConfig { blackout_windows_per_dc: 1, blackout_days: 0, ..Default::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn corruption_log_matches_stream_changes() {
        let clean: Vec<RmaTicket> = (0..2000)
            .map(|i| {
                let mut t = ticket(10 + i, 20 + i);
                t.device = DeviceId(i);
                t
            })
            .collect();
        let mut dirty = clean.clone();
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = CorruptionConfig::dirty_default();
        let log = corrupt_tickets(&mut dirty, &cfg, (SimTime(0), SimTime(5000)), &mut rng);
        assert_eq!(dirty.len() as u64, clean.len() as u64 + log.duplicates);
        assert!(log.total_ticket_defects() > 0, "2000 tickets at 6% should corrupt some");
        let inverted = dirty.iter().filter(|t| t.resolved < t.opened).count() as u64;
        assert_eq!(inverted, log.inverted);
        let skewed = dirty.iter().filter(|t| t.opened >= SimTime(5000)).count() as u64;
        assert_eq!(skewed, log.clock_skewed);
        let mislabeled = dirty.iter().filter(|t| t.location.dc == DcId(2)).count() as u64;
        assert_eq!(mislabeled, log.mislabeled);
        let censored = dirty.iter().filter(|t| t.resolved == t.opened).count() as u64;
        assert_eq!(censored, log.censored);
        // Sorted after corruption.
        assert!(dirty.windows(2).all(|w| w[0].opened <= w[1].opened));
    }

    #[test]
    fn injector_is_deterministic() {
        let clean: Vec<RmaTicket> = (0..500).map(|i| ticket(10 + i, 30 + i)).collect();
        let cfg = CorruptionConfig::dirty_default();
        let mut a = clean.clone();
        let mut b = clean.clone();
        let la = corrupt_tickets(
            &mut a,
            &cfg,
            (SimTime(0), SimTime(2000)),
            &mut StdRng::seed_from_u64(9),
        );
        let lb = corrupt_tickets(
            &mut b,
            &cfg,
            (SimTime(0), SimTime(2000)),
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn false_positives_are_never_corrupted() {
        let mut tickets: Vec<RmaTicket> = (0..300)
            .map(|i| {
                let mut t = ticket(10 + i, 30 + i);
                t.false_positive = true;
                t
            })
            .collect();
        let cfg = CorruptionConfig::dirty_default();
        let log = corrupt_tickets(
            &mut tickets,
            &cfg,
            (SimTime(0), SimTime(2000)),
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(log.total_ticket_defects(), 0);
        assert_eq!(tickets.len(), 300);
    }

    #[test]
    fn sensor_plan_counts_and_disjointness() {
        let cfg = CorruptionConfig::dirty_default();
        let dcs = [(DcId(1), 4u8), (DcId(2), 3u8)];
        let mut rng = StdRng::seed_from_u64(11);
        let plan = plan_sensor_faults(&cfg, &dcs, 0, 180, &mut rng);
        assert_eq!(plan.blackouts.len(), 2, "one window per DC");
        assert_eq!(plan.blackout_cells(), 2 * cfg.blackout_days);
        for s in &plan.spikes {
            assert!(!plan.is_blacked_out(s.dc, s.region, s.day), "spike inside blackout");
            assert!(s.delta_f.abs() >= SPIKE_MIN_F);
        }
        // Windows land on distinct regions within a DC.
        for (i, a) in plan.blackouts.iter().enumerate() {
            for b in &plan.blackouts[i + 1..] {
                assert!(a.dc != b.dc || a.region != b.region);
            }
        }
    }

    #[test]
    fn empty_span_yields_empty_plan() {
        let cfg = CorruptionConfig::dirty_default();
        let mut rng = StdRng::seed_from_u64(1);
        let plan = plan_sensor_faults(&cfg, &[(DcId(1), 4)], 10, 10, &mut rng);
        assert!(plan.is_empty());
    }
}
