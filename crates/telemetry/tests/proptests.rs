//! Property-based tests for the telemetry data model.

use proptest::prelude::*;
use rainshine_telemetry::ids::{DcId, DeviceId, RackId, RegionId, RowId, ServerId, ServerLocation};
use rainshine_telemetry::metrics::{lambda, mu, SpatialGranularity};
use rainshine_telemetry::rma::{FaultKind, HardwareFault, RmaTicket};
use rainshine_telemetry::time::{SimTime, TimeGranularity};

fn ticket_strategy() -> impl Strategy<Value = RmaTicket> {
    (1u8..=2, 1u8..=3, 1u16..=6, 1u32..=8, 1u32..=40, 0u64..2000, 1u64..200).prop_map(
        |(dc, region, row, rack, server, opened, duration)| RmaTicket {
            device: DeviceId(server as u64 | (rack as u64) << 32),
            location: ServerLocation {
                dc: DcId(dc),
                region: RegionId(region),
                row: RowId(row),
                rack: RackId(rack),
                server: ServerId(server),
            },
            fault: FaultKind::Hardware(HardwareFault::Disk),
            opened: SimTime(opened),
            resolved: SimTime(opened + duration),
            repeat_count: 0,
            false_positive: false,
        },
    )
}

proptest! {
    #[test]
    fn calendar_roundtrip(days in 0u64..2000, hour in 0u8..24) {
        let t = SimTime::from_days(days).plus_hours(hour as u64);
        let d = t.date();
        let rebuilt = SimTime::from_date(d.year, d.month, d.day, t.hour_of_day());
        prop_assert_eq!(rebuilt, t);
        prop_assert!((1..=12).contains(&d.month));
        prop_assert!((1..=31).contains(&d.day));
        prop_assert!((1..=53).contains(&t.week_of_year()));
    }

    #[test]
    fn windows_are_consistent(hours in 0u64..50_000) {
        let t = SimTime(hours);
        for g in [
            TimeGranularity::Hourly,
            TimeGranularity::Daily,
            TimeGranularity::Weekly,
            TimeGranularity::Monthly,
        ] {
            let w = g.window_of(t);
            let start = g.window_start(w);
            // The window's start is at or before t, and t falls inside the
            // window that starts there.
            prop_assert!(start <= t, "{g:?}");
            prop_assert_eq!(g.window_of(start), w);
        }
    }

    #[test]
    fn lambda_total_equals_in_span_tickets(
        tickets in prop::collection::vec(ticket_strategy(), 1..60),
        span_days in 10u64..120,
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let start = SimTime(0);
        let end = SimTime::from_days(span_days);
        let map = lambda(&refs, SpatialGranularity::Datacenter, TimeGranularity::Daily, start, end);
        let total: u64 = map.values().map(|s| s.total()).sum();
        let expected =
            tickets.iter().filter(|t| t.opened >= start && t.opened < end).count() as u64;
        prop_assert_eq!(total, expected);
    }

    #[test]
    fn mu_hourly_never_exceeds_daily(
        tickets in prop::collection::vec(ticket_strategy(), 1..60),
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let start = SimTime(0);
        let end = SimTime::from_days(100);
        let daily = mu(&refs, SpatialGranularity::Rack, TimeGranularity::Daily, start, end);
        let hourly = mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, start, end);
        for (key, hourly_series) in &hourly {
            let daily_max = daily.get(key).map(|s| s.max()).unwrap_or(0);
            // Any hour's device set is a subset of its day's device set.
            prop_assert!(
                hourly_series.max() <= daily_max,
                "hourly {} > daily {}",
                hourly_series.max(),
                daily_max
            );
        }
    }

    #[test]
    fn mu_bounded_by_distinct_devices(
        tickets in prop::collection::vec(ticket_strategy(), 1..60),
    ) {
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let start = SimTime(0);
        let end = SimTime::from_days(100);
        let map = mu(&refs, SpatialGranularity::Datacenter, TimeGranularity::Daily, start, end);
        use std::collections::BTreeSet;
        for (key, series) in &map {
            let devices: BTreeSet<u64> = tickets
                .iter()
                .filter(|t| SpatialGranularity::Datacenter.key(&t.location) == *key)
                .map(|t| t.device.0)
                .collect();
            prop_assert!(series.max() <= devices.len() as u64);
        }
    }
}
