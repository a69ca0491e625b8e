//! Differential oracle for the rack-day count index
//! (`analysis::dataset::RackDayCounts`).
//!
//! For every `FaultFilter`, `on` must equal a plain `BTreeMap` count over
//! the true-positive stream for every (rack, day) of the span, and
//! `between` must equal the sum of `on` over its day range — including
//! ranges that start before or end after the span, empty and inverted
//! ranges, and rack indices past the fleet. The fleets are a small clean
//! one, a medium dirty one, and the small one with its span trimmed at both
//! ends so that tickets fall outside it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use rainshine::analysis::dataset::{FaultFilter, RackDayCounts};
use rainshine::dcsim::{CorruptionConfig, FleetConfig, Simulation, SimulationOutput};
use rainshine::telemetry::ids::{DeviceId, RackId};
use rainshine::telemetry::rma::{FaultKind, HardwareFault, RmaTicket, SoftwareFault};
use rainshine::telemetry::time::SimTime;

fn filters() -> Vec<FaultFilter> {
    let mut filters = vec![FaultFilter::All, FaultFilter::AllHardware, FaultFilter::OtherHardware];
    filters.extend(HardwareFault::ALL.map(FaultFilter::Component));
    filters
}

/// A fleet with its count index for every filter.
struct Fleet {
    output: SimulationOutput,
    counts: Vec<(FaultFilter, RackDayCounts)>,
}

impl Fleet {
    fn new(output: SimulationOutput) -> Self {
        let counts = filters().into_iter().map(|f| (f, RackDayCounts::new(&output, f))).collect();
        Fleet { output, counts }
    }

    fn span(&self) -> (u64, u64) {
        (self.output.config.start.days(), self.output.config.end.days())
    }
}

fn small_clean() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| Fleet::new(Simulation::new(FleetConfig::small(), 11).run()))
}

fn medium_dirty() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        let mut config = FleetConfig::medium();
        config.corruption = CorruptionConfig::dirty_default();
        Fleet::new(Simulation::new(config, 47).run())
    })
}

/// The small clean fleet with 30 days cut from each end of its span; the
/// tickets of the cut days stay in the stream.
fn small_trimmed() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        let mut output = Simulation::new(FleetConfig::small(), 11).run();
        output.config.start = SimTime::from_days(output.config.start.days() + 30);
        output.config.end = SimTime::from_days(output.config.end.days() - 30);
        Fleet::new(output)
    })
}

fn fleets() -> [&'static Fleet; 3] {
    [small_clean(), medium_dirty(), small_trimmed()]
}

/// Matching true-positive tickets per (rack, day), counted the direct way.
fn reference(output: &SimulationOutput, filter: FaultFilter) -> BTreeMap<(RackId, u64), u32> {
    let mut counts = BTreeMap::new();
    for t in output.true_positives() {
        if filter.matches(t.fault) {
            *counts.entry((t.location.rack, t.opened.days())).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn on_matches_a_btreemap_count_on_every_rack_day() {
    for fleet in fleets() {
        let (start, end) = fleet.span();
        for (filter, counts) in &fleet.counts {
            let want = reference(&fleet.output, *filter);
            let mut total = 0;
            for (index, rack) in fleet.output.fleet.racks.iter().enumerate() {
                for day in start..end {
                    let expected = want.get(&(rack.id, day)).copied().unwrap_or(0);
                    assert_eq!(counts.on(index, day), expected, "{filter:?} {} day {day}", rack.id);
                    total += expected;
                }
                for outside in start.checked_sub(1).into_iter().chain([end]) {
                    assert_eq!(counts.on(index, outside), 0, "{filter:?} day {outside} is outside");
                }
            }
            assert!(total > 0, "{filter:?} counts nothing");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn between_is_the_sum_of_on(
        which in 0usize..3,
        rack_draw in 0usize..1_000,
        from_draw in 0u64..1_000,
        to_draw in 0u64..1_000,
    ) {
        let fleet = fleets()[which];
        let (start, end) = fleet.span();
        // Days reach 40 past either end of the span; every eighth rack index
        // is past the fleet.
        let racks = fleet.output.fleet.racks.len();
        let rack = if rack_draw % 8 == 0 { racks + rack_draw } else { rack_draw % racks };
        let reach = end - start + 80;
        let from = (start + from_draw % reach).saturating_sub(40);
        let to = (start + to_draw % reach).saturating_sub(40);
        for (_, counts) in &fleet.counts {
            // `from > to` half the time: an inverted range sums nothing.
            let sum: u32 = (from..to).map(|day| counts.on(rack, day)).sum();
            prop_assert_eq!(counts.between(rack, from, to), sum);
            prop_assert_eq!(counts.between(rack, from, from), 0);
        }
    }
}

#[test]
fn tickets_outside_the_span_are_ignored() {
    let mut output = Simulation::new(FleetConfig::small(), 11).run();
    output.config.start = SimTime::from_days(10);
    output.config.end = SimTime::from_days(20);
    let on_rack = |rack: usize, day: u64, fault: FaultKind| {
        let location = output.fleet.racks[rack].server_location(0);
        RmaTicket {
            device: DeviceId(u64::from(location.server.0)),
            location,
            fault,
            opened: SimTime::from_days(day),
            resolved: SimTime(SimTime::from_days(day).hours() + 5),
            repeat_count: 0,
            false_positive: false,
        }
    };
    let disk = FaultKind::Hardware(HardwareFault::Disk);
    let mut unknown_rack = on_rack(0, 12, disk);
    unknown_rack.location.rack = RackId(u32::MAX);
    let mut false_positive = on_rack(0, 12, disk);
    false_positive.false_positive = true;
    output.tickets = vec![
        on_rack(0, 9, disk),
        on_rack(0, 10, disk),
        on_rack(0, 10, disk),
        on_rack(0, 12, FaultKind::Software(SoftwareFault::Timeout)),
        on_rack(0, 19, disk),
        on_rack(0, 20, disk),
        on_rack(1, 15, disk),
        unknown_rack,
        false_positive,
    ];

    let hardware = RackDayCounts::new(&output, FaultFilter::AllHardware);
    assert_eq!(hardware.on(0, 9), 0, "opened before the span");
    assert_eq!(hardware.on(0, 10), 2);
    assert_eq!(hardware.on(0, 12), 0, "software ticket under a hardware filter");
    assert_eq!(hardware.on(0, 19), 1);
    assert_eq!(hardware.on(0, 20), 0, "opened on the end day");
    assert_eq!(hardware.between(0, 0, 100), 3);
    assert_eq!(hardware.between(1, 0, 100), 1);
    assert_eq!(hardware.between(0, 11, 19), 0);
    assert_eq!(hardware.between(0, 19, 10), 0, "inverted range");
    assert_eq!(hardware.between(output.fleet.racks.len(), 0, 100), 0, "rack index past the fleet");

    let all = RackDayCounts::new(&output, FaultFilter::All);
    assert_eq!(all.on(0, 12), 1, "the false positive and the unknown rack are not counted");
    assert_eq!(all.between(0, 0, u64::MAX), 4);
}
