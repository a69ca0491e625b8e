//! RMA ticket generation.
//!
//! Hardware tickets are sampled from the multi-factor hazard model
//! ([`crate::hazard`]) via per-rack-day Poisson draws (a thinned
//! non-homogeneous Poisson process at daily resolution, with failures
//! placed at a uniform hour within the day). One [`HazardCalendar`] per run
//! holds the season and age factors; each rack evaluates its hazard
//! through one [`RackHazard`] over it, so the rack-constant factors are
//! computed once per rack, and reads its region's daily inlet conditions
//! from a [`DailyEnvSlab`]. Only a finite, positive rate makes a Poisson
//! draw. Burst rates come from one [`RackBurstRates`] per rack. Software,
//! boot, and "other" tickets — which the paper reports in Table II but
//! does not analyze further — are generated to match Table II's per-DC
//! category shares exactly in expectation, anchored to the realized
//! hardware count.
//! False positives are injected last and flagged, mirroring the paper's
//! "we use only the true positives".

use rainshine_parallel::{derive_seed, par_map_range, Parallelism};
use rainshine_stats::dist::{Categorical, LogNormal, Poisson};
use rainshine_telemetry::ids::{DcId, DeviceId};
use rainshine_telemetry::rma::{BootFault, FaultKind, HardwareFault, RmaTicket, SoftwareFault};
use rainshine_telemetry::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::FleetConfig;
use crate::environment::{DailyEnvSlab, EnvModel};
use crate::hazard::{ComponentClass, HazardCalendar, RackBurstRates, RackHazard};
use crate::sku::SkuSpec;
use crate::topology::{Fleet, RackInfo};

/// Stream tags for [`derive_seed`]: each generation stage draws from its
/// own family of per-item RNG streams, so stages never consume each
/// other's randomness and any stage can run its items in parallel.
pub(crate) const STREAM_HARDWARE: u64 = 1;
pub(crate) const STREAM_BURSTS: u64 = 2;
pub(crate) const STREAM_NON_HARDWARE: u64 = 3;
pub(crate) const STREAM_FALSE_POSITIVES: u64 = 4;

/// Table II's per-DC ticket-category shares (percent).
fn table_ii_shares(dc: DcId) -> Vec<(FaultKind, f64)> {
    use BootFault::*;
    use FaultKind::*;
    use HardwareFault::*;
    use SoftwareFault::*;
    match dc.0 {
        1 => vec![
            (Software(Timeout), 31.27),
            (Software(Deployment), 13.95),
            (Software(Crash), 2.89),
            (Boot(Pxe), 10.53),
            (Boot(Reboot), 1.25),
            (Hardware(Disk), 18.42),
            (Hardware(Memory), 5.29),
            (Hardware(Power), 1.59),
            (Hardware(Server), 2.84),
            (Hardware(Network), 2.52),
            (Other, 9.41),
        ],
        _ => vec![
            (Software(Timeout), 38.84),
            (Software(Deployment), 14.56),
            (Software(Crash), 3.05),
            (Boot(Pxe), 13.81),
            (Boot(Reboot), 0.19),
            (Hardware(Disk), 11.23),
            (Hardware(Memory), 1.85),
            (Hardware(Power), 3.83),
            (Hardware(Server), 1.21),
            (Hardware(Network), 0.65),
            (Other, 10.77),
        ],
    }
}

fn hardware_fault_of(class: ComponentClass) -> HardwareFault {
    match class {
        ComponentClass::Disk => HardwareFault::Disk,
        ComponentClass::Dimm => HardwareFault::Memory,
        ComponentClass::Power => HardwareFault::Power,
        ComponentClass::ServerOther => HardwareFault::Server,
        ComponentClass::Network => HardwareFault::Network,
    }
}

/// Median / spread (see [`LogNormal::from_median_spread`]) of
/// time-to-resolution in hours per fault kind.
fn repair_profile(fault: FaultKind) -> (f64, f64) {
    match fault {
        FaultKind::Hardware(HardwareFault::Disk) => (8.0, 2.0),
        FaultKind::Hardware(HardwareFault::Memory) => (12.0, 2.0),
        FaultKind::Hardware(HardwareFault::Power) => (24.0, 2.2),
        FaultKind::Hardware(HardwareFault::Server) => (36.0, 2.2),
        FaultKind::Hardware(HardwareFault::Network) => (12.0, 2.0),
        FaultKind::Software(_) => (3.0, 2.5),
        FaultKind::Boot(_) => (4.0, 2.5),
        FaultKind::Other => (6.0, 2.5),
    }
}

/// Longest permitted outage (hours); extreme log-normal draws are clamped.
const MAX_REPAIR_HOURS: f64 = 21.0 * 24.0;

/// Probability that a hardware ticket is a repeat of an earlier fault.
const REPEAT_PROBABILITY: f64 = 0.1;

fn sample_repair<R: Rng + ?Sized>(fault: FaultKind, rng: &mut R) -> u64 {
    let (median, spread) = repair_profile(fault);
    let dist = LogNormal::from_median_spread(median, spread).expect("static profile is valid");
    dist.sample(rng).clamp(1.0, MAX_REPAIR_HOURS) as u64
}

/// Encodes a stable device id: server id in the low 32 bits, component
/// class in bits 32–39, unit index in bits 40–55.
fn device_id(server: u32, class: ComponentClass, unit: u32) -> DeviceId {
    let class_code = match class {
        ComponentClass::Disk => 1u64,
        ComponentClass::Dimm => 2,
        ComponentClass::Power => 3,
        ComponentClass::ServerOther => 4,
        ComponentClass::Network => 5,
    };
    DeviceId(server as u64 | (class_code << 32) | ((unit as u64) << 40))
}

fn make_hardware_ticket<R: Rng + ?Sized>(
    rack: &RackInfo,
    spec: &SkuSpec,
    class: ComponentClass,
    day: u64,
    rng: &mut R,
    end: SimTime,
) -> RmaTicket {
    let server_index = rng.gen_range(0..rack.servers);
    let location = rack.server_location(server_index);
    let unit_count = match class {
        ComponentClass::Disk => spec.disks_per_server,
        ComponentClass::Dimm => spec.dimms_per_server,
        _ => 1,
    };
    let unit = rng.gen_range(0..unit_count.max(1));
    let fault = FaultKind::Hardware(hardware_fault_of(class));
    let opened = SimTime::from_days(day).plus_hours(rng.gen_range(0..24));
    let repair = sample_repair(fault, rng);
    let resolved =
        SimTime(opened.hours().saturating_add(repair).min(end.hours()).max(opened.hours() + 1));
    // Exactly one uniform per ticket: a draw of another shape would move
    // every later ticket of the rack's stream.
    let repeat = rng.gen::<f64>() < REPEAT_PROBABILITY;
    RmaTicket {
        device: device_id(location.server.0, class, unit),
        location,
        fault,
        opened,
        resolved,
        repeat_count: if repeat { rng.gen_range(1..=3) } else { 0 },
        false_positive: false,
    }
}

/// Hardware tickets for one rack over the whole observation span, with
/// the day factors read from `calendar` and each day's inlet conditions
/// from `daily` (sampled from `env` outside it).
fn hardware_for_rack<R: Rng + ?Sized>(
    rack: &RackInfo,
    config: &FleetConfig,
    calendar: &HazardCalendar<'_>,
    env: &EnvModel,
    daily: &DailyEnvSlab,
    rng: &mut R,
) -> Vec<RmaTicket> {
    let hazard = RackHazard::new(calendar, rack);
    let spec = rack.sku_spec();
    let mut out = Vec::new();
    for day in config.start.days()..config.end.days() {
        let Some(factors) = hazard.day(day) else {
            continue;
        };
        let conditions = daily.daily_mean(env, rack.dc, rack.region, day);
        for class in ComponentClass::ALL {
            // `Poisson::new` rejects a negative or non-finite rate, and a
            // zero rate samples 0 without touching the RNG: only a finite,
            // positive rate makes a draw.
            let Ok(poisson) = Poisson::new(hazard.rate(class, &factors, conditions)) else {
                continue;
            };
            for _ in 0..poisson.sample(rng) {
                out.push(make_hardware_ticket(rack, spec, class, day, rng, config.end));
            }
        }
    }
    out
}

/// Generates hardware tickets with one seed-derived RNG stream per rack,
/// so racks evaluate in parallel; results merge in rack order, making
/// the stream a pure function of `seed` regardless of thread count. The
/// racks share one [`HazardCalendar`] of the span. Daily inlet conditions
/// come from `daily`, and from `env` for any cell outside it.
pub fn generate_hardware(
    fleet: &Fleet,
    config: &FleetConfig,
    env: &EnvModel,
    daily: &DailyEnvSlab,
    seed: u64,
    parallelism: Parallelism,
) -> Vec<RmaTicket> {
    let calendar =
        HazardCalendar::new(&config.hazard, config.start.days()..config.end.days(), &fleet.racks);
    let per_rack = par_map_range(parallelism, fleet.racks.len(), |rack_index| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_HARDWARE, rack_index as u64));
        hardware_for_rack(&fleet.racks[rack_index], config, &calendar, env, daily, &mut rng)
    });
    per_rack.into_iter().flatten().collect()
}

/// Generates correlated failure bursts: rare rack-level events (PDU trips,
/// bad-batch storms) that take several servers of one rack down
/// *simultaneously*. These produce the heavy upper tail of μ that drives
/// 100 %-SLA spare provisioning (Figs. 10–12). One seed-derived RNG
/// stream per rack; deterministic at any thread count (see
/// [`generate_hardware`]).
pub fn generate_bursts(
    fleet: &Fleet,
    config: &FleetConfig,
    seed: u64,
    parallelism: Parallelism,
) -> Vec<RmaTicket> {
    let per_rack = par_map_range(parallelism, fleet.racks.len(), |rack_index| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_BURSTS, rack_index as u64));
        bursts_for_rack(&fleet.racks[rack_index], config, &mut rng)
    });
    per_rack.into_iter().flatten().collect()
}

/// Burst tickets for one rack over the whole observation span.
fn bursts_for_rack<R: Rng + ?Sized>(
    rack: &RackInfo,
    config: &FleetConfig,
    rng: &mut R,
) -> Vec<RmaTicket> {
    use rand::seq::SliceRandom;
    let burst_rates = RackBurstRates::new(&config.hazard, rack);
    let mut out = Vec::new();
    for day in config.start.days()..config.end.days() {
        let day_start = SimTime::from_days(day);
        let rate = burst_rates.rate(day);
        if rate <= 0.0 || rng.gen::<f64>() >= rate {
            continue;
        }
        let affected = config.hazard.burst_size(rack, rng.gen::<f64>());
        let mut servers: Vec<u32> = (0..rack.servers).collect();
        servers.shuffle(rng);
        let open = day_start.plus_hours(rng.gen_range(0..24));
        let duration = LogNormal::from_median_spread(8.0, 2.0)
            .expect("static profile is valid")
            .sample(rng)
            .clamp(1.0, MAX_REPAIR_HOURS) as u64;
        // Attribution by chassis type: dense-disk racks see disk storms
        // (vibration / backplane / firmware), compute racks see
        // bad-DIMM-batch storms — both coverable by *component* spares,
        // which is what makes component-level provisioning pay off
        // (Fig. 13).
        let disk_storm = rack.sku_spec().disks_per_server >= 8;
        for &server_index in servers.iter().take(affected as usize) {
            let location = rack.server_location(server_index);
            let (fault, class) = if disk_storm {
                (FaultKind::Hardware(HardwareFault::Disk), ComponentClass::Disk)
            } else {
                (FaultKind::Hardware(HardwareFault::Memory), ComponentClass::Dimm)
            };
            let jitter = rng.gen_range(0..3u64);
            let resolved = SimTime(
                (open.hours() + duration + jitter).min(config.end.hours()).max(open.hours() + 1),
            );
            out.push(RmaTicket {
                device: device_id(location.server.0, class, 0),
                location,
                fault,
                opened: open,
                resolved,
                repeat_count: 0,
                false_positive: false,
            });
        }
    }
    out
}

/// Generates software / boot / other tickets so that the overall per-DC
/// category mix matches Table II in expectation, anchored to the realized
/// hardware ticket count of each DC. One seed-derived RNG stream per DC;
/// deterministic at any thread count (see [`generate_hardware`]).
pub fn generate_non_hardware(
    fleet: &Fleet,
    config: &FleetConfig,
    hardware: &[RmaTicket],
    seed: u64,
    parallelism: Parallelism,
) -> Vec<RmaTicket> {
    let dcs = [DcId(1), DcId(2)];
    let per_dc = par_map_range(parallelism, dcs.len(), |dc_index| {
        let mut rng =
            StdRng::seed_from_u64(derive_seed(seed, STREAM_NON_HARDWARE, dc_index as u64));
        non_hardware_for_dc(fleet, config, hardware, dcs[dc_index], &mut rng)
    });
    per_dc.into_iter().flatten().collect()
}

/// Non-hardware tickets for one DC, volume-anchored to its realized
/// hardware count.
fn non_hardware_for_dc<R: Rng + ?Sized>(
    fleet: &Fleet,
    config: &FleetConfig,
    hardware: &[RmaTicket],
    dc: DcId,
    rng: &mut R,
) -> Vec<RmaTicket> {
    let start_day = config.start.days();
    let end_day = config.end.days();
    let mut out = Vec::new();
    let hw_count = hardware.iter().filter(|t| t.location.dc == dc).count() as f64;
    if hw_count == 0.0 {
        return out;
    }
    let shares = table_ii_shares(dc);
    let hw_share: f64 = shares.iter().filter(|(k, _)| k.is_hardware()).map(|(_, s)| s).sum();
    // Racks sorted by commission day let us sample "a rack active on
    // day d" in O(log n).
    let mut racks: Vec<&RackInfo> = fleet.racks_in(dc).collect();
    racks.sort_by_key(|r| r.commissioned_day);
    // Day weights: active racks that day, weekday-boosted.
    let day_weights: Vec<f64> = (start_day..end_day)
        .map(|day| {
            let t = SimTime::from_days(day);
            let active = racks.partition_point(|r| r.commissioned_day <= day as i64) as f64;
            let dow = if t.day_of_week().is_weekday() { 1.25 } else { 0.85 };
            active * dow
        })
        .collect();
    // `Categorical::new` rejects an all-zero day table (no rack active).
    let Ok(day_dist) = Categorical::new(&day_weights) else {
        return out;
    };
    for (fault, share) in shares.into_iter().filter(|(k, _)| !k.is_hardware()) {
        let expected = hw_count * share / hw_share;
        // Exactly one uniform per fault kind: a draw of another shape would
        // move every later ticket of the stream.
        let count = expected.floor() as u64 + u64::from(rng.gen::<f64>() < expected.fract());
        for _ in 0..count {
            let day = start_day + day_dist.sample(rng) as u64;
            let active = racks.partition_point(|r| r.commissioned_day <= day as i64);
            if active == 0 {
                continue;
            }
            let rack = racks[rng.gen_range(0..active)];
            let server_index = rng.gen_range(0..rack.servers);
            let location = rack.server_location(server_index);
            let opened = SimTime::from_days(day).plus_hours(rng.gen_range(0..24));
            let repair = sample_repair(fault, rng);
            let resolved = SimTime(
                opened
                    .hours()
                    .saturating_add(repair)
                    .min(config.end.hours())
                    .max(opened.hours() + 1),
            );
            out.push(RmaTicket {
                device: device_id(location.server.0, ComponentClass::ServerOther, 0),
                location,
                fault,
                opened,
                resolved,
                repeat_count: 0,
                false_positive: false,
            });
        }
    }
    out
}

/// Injects false positives: clones of randomly chosen true tickets with a
/// jittered open time and the `false_positive` flag set, at a volume of
/// `rate / (1 − rate)` of the true tickets (so FPs are `rate` of the final
/// stream).
pub fn inject_false_positives<R: Rng + ?Sized>(
    tickets: &[RmaTicket],
    rate: f64,
    end: SimTime,
    rng: &mut R,
) -> Vec<RmaTicket> {
    if tickets.is_empty() || rate <= 0.0 {
        return Vec::new();
    }
    let count = (tickets.len() as f64 * rate / (1.0 - rate)).round() as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let template = &tickets[rng.gen_range(0..tickets.len())];
        let mut fp = template.clone();
        fp.false_positive = true;
        let jitter_days = rng.gen_range(0..14) as u64;
        fp.opened = SimTime((template.opened.hours() + jitter_days * 24).min(end.hours() - 1));
        // FPs close quickly: the engineer finds nothing.
        fp.resolved = SimTime((fp.opened.hours() + rng.gen_range(1..6u64)).min(end.hours()));
        fp.repeat_count = 0;
        out.push(fp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Fleet, FleetConfig, EnvModel) {
        let config = FleetConfig::small();
        let fleet = Fleet::build(&config);
        let env = EnvModel::paper_layout(7);
        (fleet, config, env)
    }

    /// The pipeline's hardware generator, sequential, on `seed`.
    fn hardware(fleet: &Fleet, config: &FleetConfig, env: &EnvModel, seed: u64) -> Vec<RmaTicket> {
        let dcs: Vec<_> = fleet.datacenters.iter().map(|d| (d.id, d.regions)).collect();
        let (start, end) = (config.start.days(), config.end.days());
        let daily =
            DailyEnvSlab::from_fn(&dcs, start, end, |dc, r, day| env.daily_mean(dc, r, day));
        generate_hardware(fleet, config, env, &daily, seed, Parallelism::Sequential)
    }

    #[test]
    fn table_ii_shares_sum_to_100() {
        for dc in [DcId(1), DcId(2)] {
            let total: f64 = table_ii_shares(dc).iter().map(|(_, s)| s).sum();
            assert!((total - 100.0).abs() < 0.05, "{dc}: {total}");
        }
    }

    #[test]
    fn hardware_tickets_are_valid_and_in_span() {
        let (fleet, config, env) = setup();
        let tickets = hardware(&fleet, &config, &env, 1);
        assert!(!tickets.is_empty());
        for t in &tickets {
            assert!(t.validate().is_ok());
            assert!(t.opened >= config.start && t.opened < config.end);
            assert!(t.resolved <= config.end);
            assert!(t.fault.is_hardware());
            assert!(!t.false_positive);
        }
    }

    #[test]
    fn hardware_tickets_only_on_active_racks() {
        let (fleet, config, env) = setup();
        let tickets = hardware(&fleet, &config, &env, 2);
        for t in &tickets {
            let rack = fleet.rack(t.location.rack).expect("known rack");
            assert!(rack.is_active(t.opened), "ticket before commissioning");
        }
    }

    #[test]
    fn non_hardware_mix_tracks_table_ii() {
        let (fleet, config, env) = setup();
        let hw = hardware(&fleet, &config, &env, 3);
        let sw = generate_non_hardware(&fleet, &config, &hw, 3, Parallelism::Sequential);
        assert!(!sw.is_empty());
        // Software should dominate: 45-57% of all per Table II.
        let all = hw.len() + sw.len();
        let software = sw.iter().filter(|t| matches!(t.fault, FaultKind::Software(_))).count();
        let share = software as f64 / all as f64;
        assert!((0.40..0.62).contains(&share), "software share {share}");
        for t in &sw {
            assert!(!t.fault.is_hardware());
            assert!(t.validate().is_ok());
        }
    }

    #[test]
    fn false_positive_volume_matches_rate() {
        let (fleet, config, env) = setup();
        let hw = hardware(&fleet, &config, &env, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let fps = inject_false_positives(&hw, 0.08, config.end, &mut rng);
        let expected = hw.len() as f64 * 0.08 / 0.92;
        assert!((fps.len() as f64 - expected).abs() <= 1.0);
        assert!(fps.iter().all(|t| t.false_positive));
        assert!(fps.iter().all(|t| t.validate().is_ok()));
    }

    #[test]
    fn zero_rate_no_false_positives() {
        let (fleet, config, env) = setup();
        let hw = hardware(&fleet, &config, &env, 5);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(inject_false_positives(&hw, 0.0, config.end, &mut rng).is_empty());
        assert!(inject_false_positives(&[], 0.1, config.end, &mut rng).is_empty());
    }

    #[test]
    fn device_ids_distinguish_components() {
        let a = device_id(5, ComponentClass::Disk, 0);
        let b = device_id(5, ComponentClass::Dimm, 0);
        let c = device_id(5, ComponentClass::Disk, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn bursts_hit_one_rack_with_distinct_servers() {
        use std::collections::{BTreeMap, BTreeSet};
        let config = FleetConfig::medium();
        let fleet = Fleet::build(&config);
        let bursts = generate_bursts(&fleet, &config, 8, Parallelism::Sequential);
        assert!(!bursts.is_empty(), "medium fleet over a year should see bursts");
        // Group by (rack, opened): each burst's tickets share one rack and
        // hit distinct servers.
        let mut groups: BTreeMap<(u32, u64), BTreeSet<u32>> = BTreeMap::new();
        for t in &bursts {
            assert!(t.validate().is_ok());
            assert!(t.fault.is_hardware());
            let servers = groups.entry((t.location.rack.0, t.opened.hours())).or_default();
            assert!(servers.insert(t.location.server.0), "burst hit the same server twice");
        }
        // At least one burst takes down several servers at once.
        assert!(groups.values().any(|s| s.len() >= 3));
    }

    #[test]
    fn burst_attribution_matches_chassis() {
        let config = FleetConfig::medium();
        let fleet = Fleet::build(&config);
        let bursts = generate_bursts(&fleet, &config, 8, Parallelism::Sequential);
        for t in &bursts {
            let rack = fleet.rack(t.location.rack).expect("known rack");
            if rack.sku_spec().disks_per_server >= 8 {
                assert_eq!(t.fault, FaultKind::Hardware(HardwareFault::Disk));
            } else {
                assert_eq!(t.fault, FaultKind::Hardware(HardwareFault::Memory));
            }
        }
    }

    #[test]
    fn repair_times_clamped() {
        let (fleet, config, env) = setup();
        let tickets = hardware(&fleet, &config, &env, 6);
        for t in &tickets {
            assert!(t.outage_hours() >= 1 || t.resolved == config.end);
            assert!(t.outage_hours() <= MAX_REPAIR_HOURS as u64);
        }
    }

    #[test]
    fn rates_that_are_not_finite_and_positive_make_no_draw() {
        let (fleet, mut config, env) = setup();
        config.hazard.dc2_network_factor = f64::NAN;
        config.hazard.dc2_power_infra_factor = f64::INFINITY;
        config.hazard.dimm_base = -1.0;
        let tickets = hardware(&fleet, &config, &env, 7);
        assert!(!tickets.is_empty());
        for t in &tickets {
            let dc2_network_or_power = t.location.dc == DcId(2)
                && matches!(
                    t.fault,
                    FaultKind::Hardware(HardwareFault::Network | HardwareFault::Power)
                );
            assert!(!dc2_network_or_power && t.fault != FaultKind::Hardware(HardwareFault::Memory));
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let (fleet, config, env) = setup();
        let t1 = hardware(&fleet, &config, &env, 42);
        let t2 = hardware(&fleet, &config, &env, 42);
        assert_eq!(t1, t2);
        let t3 = hardware(&fleet, &config, &env, 43);
        assert_ne!(t1, t3);
    }
}
