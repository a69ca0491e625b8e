//! Differential oracle for the μ engine (`telemetry::metrics::mu`).
//!
//! `mu_reference` is the original per-window implementation: every
//! (unit, window) a ticket touches goes into a `BTreeSet` of devices, and
//! the set sizes are the series. The sort-and-sweep engine must return the
//! same map, `==` as a whole, on synthetic streams built to hit its edge
//! cases (same-device overlaps and touching outages, zero-length tickets,
//! tickets straddling both span ends, empty and inverted spans) and on
//! simulated fleets at every temporal granularity.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use rainshine::dcsim::{CorruptionConfig, FleetConfig, Simulation, SimulationOutput};
use rainshine::telemetry::ids::{
    DcId, DeviceId, RackId, RegionId, RowId, ServerId, ServerLocation,
};
use rainshine::telemetry::metrics::{mu, SpatialGranularity, SpatialKey, WindowedSeries};
use rainshine::telemetry::rma::{FaultKind, HardwareFault, RmaTicket};
use rainshine::telemetry::time::{SimTime, TimeGranularity};

const TEMPORAL: [TimeGranularity; 4] = [
    TimeGranularity::Hourly,
    TimeGranularity::Daily,
    TimeGranularity::Weekly,
    TimeGranularity::Monthly,
];

const SPATIAL: [SpatialGranularity; 5] = [
    SpatialGranularity::Datacenter,
    SpatialGranularity::Region,
    SpatialGranularity::Row,
    SpatialGranularity::Rack,
    SpatialGranularity::Server,
];

/// The original μ: one `BTreeSet` insert per (ticket, window).
fn mu_reference(
    tickets: &[&RmaTicket],
    spatial: SpatialGranularity,
    temporal: TimeGranularity,
    start: SimTime,
    end: SimTime,
) -> BTreeMap<SpatialKey, WindowedSeries> {
    let windows = temporal.window_count(start, end);
    let base = temporal.window_of(start);
    // (unit, window) -> distinct devices.
    let mut per_unit: BTreeMap<SpatialKey, BTreeMap<u64, BTreeSet<u64>>> = BTreeMap::new();
    for t in tickets {
        if t.resolved < start || t.opened >= end {
            continue;
        }
        let open = t.opened.hours().max(start.hours());
        let close = t.resolved.hours().clamp(open + 1, end.hours().max(open + 1));
        let w_from = temporal.window_of(SimTime(open)).saturating_sub(base);
        let w_to = temporal
            .window_of(SimTime(close - 1))
            .saturating_sub(base)
            .min(windows.saturating_sub(1));
        let unit = per_unit.entry(spatial.key(&t.location)).or_default();
        for w in w_from..=w_to {
            unit.entry(w).or_default().insert(t.device.0);
        }
    }
    per_unit
        .into_iter()
        .map(|(key, by_window)| {
            let mut series = WindowedSeries::zeros(windows);
            for (w, devices) in by_window {
                series.add(w, devices.len() as u64);
            }
            (key, series)
        })
        .collect()
}

/// Compares engine and reference for one stream at one setting.
fn check(
    tickets: &[&RmaTicket],
    spatial: SpatialGranularity,
    temporal: TimeGranularity,
    start: SimTime,
    end: SimTime,
) {
    let got = mu(tickets, spatial, temporal, start, end);
    let want = mu_reference(tickets, spatial, temporal, start, end);
    assert!(
        got == want,
        "mu differs from the reference at {spatial:?}/{temporal:?} over [{start:?}, {end:?})"
    );
}

/// Tickets on a pool of at most 4 devices per rack, so one device's
/// outages overlap and touch. A quarter are zero-length, and opening
/// times reach from well before any span start to past any span end.
fn ticket_strategy() -> impl Strategy<Value = RmaTicket> {
    (1u8..=2, 1u8..=2, 1u16..=2, 1u32..=3, 1u32..=4, 0u64..3_000, 0u64..4, 1u64..300).prop_map(
        |(dc, region, row, rack, server, opened, shape, length)| RmaTicket {
            device: DeviceId(u64::from(server) | u64::from(rack) << 32),
            location: ServerLocation {
                dc: DcId(dc),
                region: RegionId(region),
                row: RowId(row),
                rack: RackId(rack),
                server: ServerId(server),
            },
            fault: FaultKind::Hardware(HardwareFault::Disk),
            opened: SimTime(opened),
            resolved: SimTime(opened + if shape == 0 { 0 } else { length }),
            repeat_count: 0,
            false_positive: false,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_reference_on_synthetic_streams(
        tickets in prop::collection::vec(ticket_strategy(), 0..40),
        start in 0u64..1_500,
        length in 0u64..2_400,
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let start = SimTime(start);
        // A quarter of spans are inverted or empty (`end <= start`).
        let end = SimTime((start.hours() + length).saturating_sub(600));
        for spatial in SPATIAL {
            for temporal in TEMPORAL {
                let got = mu(&refs, spatial, temporal, start, end);
                let want = mu_reference(&refs, spatial, temporal, start, end);
                prop_assert_eq!(got, want, "{:?}/{:?} over [{:?}, {:?})", spatial, temporal, start, end);
            }
        }
    }
}

/// Checks a simulated fleet's hardware and all-ticket streams over the
/// full span, an inner span, and an empty and an inverted span.
fn check_fleet(output: &SimulationOutput, spatial: &[SpatialGranularity]) {
    let (start, end) = (output.config.start, output.config.end);
    let inner = (start.plus_days(45), SimTime(end.hours() - 24 * 60));
    let spans = [(start, end), inner, (inner.0, inner.0), (inner.1, inner.0)];
    let hardware = output.hardware_tickets();
    let all: Vec<&RmaTicket> = output.tickets.iter().collect();
    for tickets in [&hardware, &all] {
        for &s in spatial {
            for t in TEMPORAL {
                for (from, to) in spans {
                    check(tickets, s, t, from, to);
                }
            }
        }
    }
}

#[test]
fn engine_matches_reference_on_small_clean_fleet() {
    let output = Simulation::new(FleetConfig::small(), 5).run();
    assert!(!output.tickets.is_empty());
    check_fleet(&output, &SPATIAL);
}

#[test]
fn engine_matches_reference_on_medium_dirty_fleet() {
    let mut config = FleetConfig::medium();
    config.corruption = CorruptionConfig::dirty_default();
    let output = Simulation::new(config, 9).run();
    assert!(!output.quality.classes.is_empty(), "the dirty preset injected defects");
    check_fleet(&output, &[SpatialGranularity::Rack, SpatialGranularity::Server]);
}

/// Paper scale, as the Q1 experiments call μ. Run with
/// `cargo test --release --test mu_engine -- --ignored`.
#[test]
#[ignore = "paper-scale fleet; run in release"]
fn engine_matches_reference_at_paper_scale() {
    let output = Simulation::new(FleetConfig::paper_scale(), 42).run();
    let (start, end) = (output.config.start, output.config.end);
    let hardware = output.hardware_tickets();
    let all: Vec<&RmaTicket> = output.tickets.iter().collect();
    for tickets in [&hardware, &all] {
        for t in TEMPORAL {
            check(tickets, SpatialGranularity::Rack, t, start, end);
        }
    }
}
