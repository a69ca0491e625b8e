//! Property-based tests for the ingestion sanitizer: whatever garbage the
//! stream contains, sanitized output is valid; sanitization is idempotent;
//! and dedup never folds genuinely distinct true positives.

use proptest::prelude::*;
use rainshine_telemetry::ids::{DcId, DeviceId, RackId, RegionId, RowId, ServerId, ServerLocation};
use rainshine_telemetry::quality::{FleetManifest, Sanitizer};
use rainshine_telemetry::rma::{FaultKind, HardwareFault, RmaTicket};
use rainshine_telemetry::time::SimTime;

fn location(dc: u8, region: u8, row: u16, rack: u32, server: u32) -> ServerLocation {
    ServerLocation {
        dc: DcId(dc),
        region: RegionId(region),
        row: RowId(row),
        rack: RackId(rack),
        server: ServerId(server),
    }
}

/// Tickets with every defect the sanitizer handles: inverted or censored
/// intervals, out-of-span timestamps, false-positive flags, repeats.
fn dirty_ticket_strategy() -> impl Strategy<Value = RmaTicket> {
    (1u8..=2, 1u8..=3, 1u16..=6, 1u32..=8, 1u32..=40, 0u64..2000, -150i64..200, 0u8..2, 0u32..3)
        .prop_map(|(dc, region, row, rack, server, opened, dur, fp, repeat)| {
            let resolved = (opened as i64 + dur).max(0) as u64;
            RmaTicket {
                device: DeviceId(server as u64 | (rack as u64) << 32),
                location: location(dc, region, row, rack, server),
                fault: FaultKind::Hardware(HardwareFault::Disk),
                opened: SimTime(opened),
                resolved: SimTime(resolved),
                repeat_count: repeat,
                false_positive: fp == 1,
            }
        })
}

fn sanitizer() -> Sanitizer {
    // Empty manifest: location repair is skipped, all other passes run.
    Sanitizer::new(FleetManifest::new(), SimTime(0)..SimTime::from_days(60))
}

proptest! {
    #[test]
    fn sanitized_output_always_validates(
        tickets in prop::collection::vec(dirty_ticket_strategy(), 0..80),
    ) {
        let (kept, report) = sanitizer().sanitize(&tickets);
        // Every non-FP survivor is valid and in-span. False positives pass
        // through untouched whatever their shape — they are flagged, not
        // analyzed, so repairing them would only mask the flag.
        for t in kept.iter().filter(|t| !t.false_positive) {
            prop_assert!(t.validate().is_ok(), "invalid ticket survived: {t:?}");
            prop_assert!(t.opened >= SimTime(0) && t.opened < SimTime::from_days(60));
        }
        // False positives pass through untouched, in equal number.
        let fp_in = tickets.iter().filter(|t| t.false_positive).count();
        let fp_out = kept.iter().filter(|t| t.false_positive).count();
        prop_assert_eq!(fp_in, fp_out);
        prop_assert_eq!(fp_out as u64, report.false_positives_flagged);
        // Nothing vanishes unaccounted: seen = kept + quarantined.
        prop_assert_eq!(
            report.tickets_seen,
            report.tickets_kept + report.total_quarantined()
        );
        prop_assert_eq!(report.tickets_seen as usize, tickets.len());
        prop_assert_eq!(report.tickets_kept as usize, kept.len());
    }

    #[test]
    fn sanitization_is_idempotent(
        tickets in prop::collection::vec(dirty_ticket_strategy(), 0..80),
    ) {
        let (once, _) = sanitizer().sanitize(&tickets);
        let (twice, report) = sanitizer().sanitize(&once);
        prop_assert_eq!(&twice, &once, "second pass changed the stream");
        prop_assert_eq!(report.total_detected(), 0, "second pass found defects: {report}");
        prop_assert_eq!(report.tickets_kept, report.tickets_seen);
    }

    #[test]
    fn dedup_never_removes_distinct_true_positives(
        spans in prop::collection::vec((0u64..1440, 1u64..200), 1..60),
    ) {
        // Distinct by construction: every ticket gets its own device id, so
        // no pair can be a duplicate no matter how close the timestamps are.
        let tickets: Vec<RmaTicket> = spans
            .iter()
            .enumerate()
            .map(|(i, &(opened, dur))| RmaTicket {
                device: DeviceId(i as u64),
                location: location(1, 1, 1, 1, i as u32),
                fault: FaultKind::Hardware(HardwareFault::Disk),
                opened: SimTime(opened),
                resolved: SimTime(opened + dur),
                repeat_count: 0,
                false_positive: false,
            })
            .collect();
        let (kept, report) = sanitizer().sanitize(&tickets);
        prop_assert_eq!(kept.len(), tickets.len(), "a distinct ticket was dropped");
        prop_assert_eq!(report.total_detected(), 0);
        let mut ids: Vec<u64> = kept.iter().map(|t| t.device.0).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..tickets.len() as u64).collect::<Vec<_>>());
    }
}
