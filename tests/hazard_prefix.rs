//! Differential oracle for hoisted hazard evaluation (`dcsim::hazard`).
//!
//! `rack_day_rate_reference` is the single-expression hazard: every factor,
//! including the SKU and workload lookups, is evaluated per call, and the
//! product runs left to right in the formula's order. The hoisted
//! evaluator (`RackHazard` over a `HazardCalendar`, over the whole span as
//! hardware ticket generation builds it once per run, or over a single
//! day) must return the same rate, `to_bits()`, for every rack, class and
//! day under the default, SKU-spread and ablated configs.
//! `burst_rate_reference` is the single-expression burst rate;
//! `RackBurstRates` must match it the same way.
//!
//! The ticket-stream pins are FNV-1a hashes of `format!("{:?}", tickets)`
//! recorded from the single-expression implementation; a change that moves
//! any ticket or any RNG draw of generation moves them.

use proptest::prelude::*;
use rainshine::dcsim::cooling::InletConditions;
use rainshine::dcsim::hazard::{
    ComponentClass, HazardCalendar, HazardConfig, RackBurstRates, RackHazard,
};
use rainshine::dcsim::topology::{Fleet, RackInfo};
use rainshine::dcsim::workload;
use rainshine::dcsim::{CorruptionConfig, FleetConfig, Simulation, SimulationOutput};
use rainshine::parallel::Parallelism;
use rainshine::telemetry::time::SimTime;

/// The hazard as one expression, before hoisting.
fn rack_day_rate_reference(
    h: &HazardConfig,
    rack: &RackInfo,
    class: ComponentClass,
    env: InletConditions,
    day_start: SimTime,
) -> f64 {
    if !rack.is_active(day_start) {
        return 0.0;
    }
    let spec = rack.sku_spec();
    let wl = workload::spec_of(rack.workload);
    let stress = match class {
        ComponentClass::Disk => wl.disk_stress,
        ComponentClass::Dimm => wl.memory_stress,
        ComponentClass::Power | ComponentClass::ServerOther | ComponentClass::Network => {
            wl.server_stress
        }
    };
    // `HazardConfig::sku_reliability` is private; this is its body.
    let sku_reliability = if h.sku_spread == 1.0 {
        spec.reliability_factor
    } else {
        1.0 + (spec.reliability_factor - 1.0) * h.sku_spread
    };
    let units = rack.servers as f64 * h.units_per_server(rack, class);
    units
        * h.base_rate(class)
        * sku_reliability
        * stress
        * h.age_factor(rack.age_months(day_start))
        * h.dow_factor(day_start, wl.weekday_sensitivity)
        * h.season_factor(day_start)
        * h.env_factor(class, env)
        * h.power_factor(rack.power_kw)
        * h.region_factor(rack.dc, rack.region.0)
        * h.dc_component_factor(rack.dc, class)
        * rack.frailty
}

/// The burst rate as one expression, before per-band hoisting.
fn burst_rate_reference(h: &HazardConfig, rack: &RackInfo, day_start: SimTime) -> f64 {
    if !rack.is_active(day_start) {
        return 0.0;
    }
    let spec = rack.sku_spec();
    let disk_factor = if spec.disks_per_server >= 8 {
        (spec.disks_per_server as f64 / 4.0).powf(h.burst_disk_exponent)
    } else {
        h.burst_compute_factor
    };
    let power = if rack.power_kw >= h.high_power_threshold_kw { h.burst_power_factor } else { 1.0 };
    let age = rack.age_months(day_start);
    let age_factor = if age < h.infant_decay_months {
        h.burst_infant_factor
    } else if age > h.wearout_onset_months {
        h.burst_wearout_factor
    } else {
        1.0
    };
    let lot = if h
        .burst_bad_lot_windows
        .iter()
        .any(|&(lo, hi)| (lo..=hi).contains(&rack.commissioned_day))
    {
        1.0
    } else {
        h.burst_quiet_factor
    };
    // `HazardConfig::sku_reliability` is private; this is its body.
    let sku_reliability = if h.sku_spread == 1.0 {
        spec.reliability_factor
    } else {
        1.0 + (spec.reliability_factor - 1.0) * h.sku_spread
    };
    h.burst_base * disk_factor * power * age_factor * lot * sku_reliability * rack.frailty
}

/// The default config, two SKU spreads and each ablation.
fn configs() -> Vec<(&'static str, HazardConfig)> {
    let ablated = |name, ablate: fn(&mut HazardConfig)| {
        let mut h = HazardConfig::default();
        ablate(&mut h);
        (name, h)
    };
    vec![
        ("default", HazardConfig::default()),
        ("sku_spread 0.0", HazardConfig { sku_spread: 0.0, ..HazardConfig::default() }),
        ("sku_spread 0.5", HazardConfig { sku_spread: 0.5, ..HazardConfig::default() }),
        ablated("ablate_age_bathtub", HazardConfig::ablate_age_bathtub),
        ablated("ablate_environment", HazardConfig::ablate_environment),
        ablated("ablate_calendar", HazardConfig::ablate_calendar),
        ablated("ablate_bursts", HazardConfig::ablate_bursts),
    ]
}

/// Checks every rack × class × span day of `output`'s fleet under every
/// config, with each day's ingested inlet conditions, through one
/// evaluator reused across the rack's days over a calendar of the whole
/// span, as ticket generation builds it. The burst rate of every rack-day
/// goes through one `RackBurstRates` per rack the same way.
fn check_every_rack_day(output: &SimulationOutput) {
    let (start, end) = (output.config.start.days(), output.config.end.days());
    let conditions: Vec<Vec<InletConditions>> = output
        .fleet
        .racks
        .iter()
        .map(|rack| {
            (start..end).map(|d| output.ingested_daily_env(rack.dc, rack.region, d)).collect()
        })
        .collect();
    for (name, h) in configs() {
        let calendar = HazardCalendar::new(&h, start..end, &output.fleet.racks);
        for (rack, conditions) in output.fleet.racks.iter().zip(&conditions) {
            let hazard = RackHazard::new(&calendar, rack);
            let bursts = RackBurstRates::new(&h, rack);
            for (day, &env) in (start..end).zip(conditions) {
                let day_start = SimTime::from_days(day);
                let want = burst_rate_reference(&h, rack, day_start).to_bits();
                assert_eq!(bursts.rate(day).to_bits(), want, "{name}: {:?} day {day}", rack.id);
                let factors = hazard.day(day);
                for class in ComponentClass::ALL {
                    let want = rack_day_rate_reference(&h, rack, class, env, day_start).to_bits();
                    let hoisted = factors.map_or(0.0, |f| hazard.rate(class, &f, env)).to_bits();
                    assert_eq!(hoisted, want, "{name}: {:?} {class:?} day {day}", rack.id);
                }
            }
        }
    }
}

#[test]
fn rate_matches_reference_on_every_medium_dirty_rack_day() {
    let mut config = FleetConfig::medium();
    config.corruption = CorruptionConfig::dirty_default();
    let output = Simulation::new(config, 42).run();
    assert!(!output.sensor_faults.is_empty(), "blackouts and spikes reach the conditions");
    check_every_rack_day(&output);
}

/// The paper fleet over its whole span. Run with
/// `cargo test --release --test hazard_prefix -- --ignored`.
#[test]
#[ignore = "paper-scale fleet; run in release"]
fn rate_matches_reference_on_every_paper_rack_day() {
    check_every_rack_day(&Simulation::new(FleetConfig::paper_scale(), 42).run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rate_matches_reference_at_any_conditions(
        temp_f in 40.0f64..100.0,
        rh in 0.0f64..100.0,
        rack_index in 0usize..621,
        day in 0u64..1_000,
    ) {
        let fleet = Fleet::build(&FleetConfig::paper_scale());
        let rack = &fleet.racks[rack_index % fleet.racks.len()];
        let day_start = SimTime::from_days(day);
        for env in [
            InletConditions { temp_f, rh },
            InletConditions { temp_f: f64::NAN, rh },
            InletConditions { temp_f, rh: f64::NAN },
        ] {
            for (name, h) in configs() {
                // A calendar of the one day, over the whole fleet.
                let calendar = HazardCalendar::new(&h, day..day + 1, &fleet.racks);
                let hazard = RackHazard::new(&calendar, rack);
                let factors = hazard.day(day);
                for class in ComponentClass::ALL {
                    let want = rack_day_rate_reference(&h, rack, class, env, day_start).to_bits();
                    let got = factors.map_or(0.0, |f| hazard.rate(class, &f, env)).to_bits();
                    prop_assert_eq!(got, want, "{} {:?} {:?} {:?}", name, class, env, day);
                }
                let want = burst_rate_reference(&h, rack, day_start).to_bits();
                prop_assert_eq!(RackBurstRates::new(&h, rack).rate(day).to_bits(), want, "{}", name);
            }
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Runs each `(name, config, ticket count, hash)` pin at seed 42, both
/// sequentially and on two threads.
fn check_ticket_pins(pins: &[(&str, FleetConfig, usize, u64)]) {
    for (name, config, len, hash) in pins {
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let config = FleetConfig { parallelism, ..config.clone() };
            let tickets = Simulation::new(config, 42).run().tickets;
            assert_eq!(tickets.len(), *len, "{name} {parallelism:?}");
            let got = fnv1a(format!("{tickets:?}").as_bytes());
            assert_eq!(got, *hash, "{name} {parallelism:?}: {got:#018x}");
        }
    }
}

#[test]
fn ticket_streams_match_the_single_expression_pins() {
    let mut dirty = FleetConfig::medium();
    dirty.corruption = CorruptionConfig::dirty_default();
    let pins = [
        ("small", FleetConfig::small(), 2_283, 0x62c0_1b9f_2e49_63e4_u64),
        ("medium", FleetConfig::medium(), 19_345, 0xf706_0db0_6696_6a16),
        ("medium dirty_default", dirty, 19_255, 0x07d8_5681_6b79_5247),
    ];
    check_ticket_pins(&pins);
}

/// The paper fleet's ticket streams, clean and dirty, recorded from the
/// evaluator that computed the day factors per rack-day. Run with
/// `cargo test --release --test hazard_prefix -- --ignored`.
#[test]
#[ignore = "paper-scale fleet; run in release"]
fn paper_ticket_streams_match_the_pins() {
    let mut dirty = FleetConfig::paper_scale();
    dirty.corruption = CorruptionConfig::dirty_default();
    let pins = [
        ("paper", FleetConfig::paper_scale(), 135_458, 0x71f3_32a5_cc29_425b_u64),
        ("paper dirty_default", dirty, 134_812, 0x7923_07f8_4a8e_4244),
    ];
    check_ticket_pins(&pins);
}
