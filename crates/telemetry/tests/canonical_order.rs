//! Oracle for `rma::sort_canonical`: on every stream it must give what a
//! stable `sort_by_key(|t| (t.opened, t.location.rack, t.device))` gives,
//! element for element. Each ticket carries its stream position in
//! `repeat_count`, so tickets with the same full key are told apart and a
//! tie put out of stream order fails.
//!
//! The streams are collision-dense (a few hours, racks and devices), drawn
//! from a handful of `opened` values across all 64 bits (so every radix
//! digit runs), or spread over a few hundred hours above a random base (so
//! runs cross digit boundaries); each is also checked sorted and reversed.

use proptest::prelude::*;
use rainshine_telemetry::ids::{DcId, DeviceId, RackId, RegionId, RowId, ServerId, ServerLocation};
use rainshine_telemetry::rma::{sort_canonical, FaultKind, RmaTicket};
use rainshine_telemetry::time::SimTime;

/// A ticket at stream position `pos`.
fn ticket(pos: usize, opened: u64, rack: u32, device: u64) -> RmaTicket {
    RmaTicket {
        device: DeviceId(device),
        location: ServerLocation {
            dc: DcId(1),
            region: RegionId(1),
            row: RowId(1),
            rack: RackId(rack),
            server: ServerId(rack * 40),
        },
        fault: FaultKind::Other,
        opened: SimTime(opened),
        resolved: SimTime(opened),
        repeat_count: pos as u32,
        false_positive: false,
    }
}

fn stream(rows: impl IntoIterator<Item = (u64, u32, u64)>) -> Vec<RmaTicket> {
    rows.into_iter()
        .enumerate()
        .map(|(pos, (opened, rack, device))| ticket(pos, opened, rack, device))
        .collect()
}

fn reference(tickets: &[RmaTicket]) -> Vec<RmaTicket> {
    let mut sorted = tickets.to_vec();
    sorted.sort_by_key(|t| (t.opened, t.location.rack, t.device));
    sorted
}

/// Checks the stream as given, then its reference order, then that order
/// reversed (ties reversed too).
fn check(tickets: Vec<RmaTicket>) -> Result<(), TestCaseError> {
    let want = reference(&tickets);
    let reversed: Vec<RmaTicket> = want.iter().rev().cloned().collect();
    for (what, given) in [("as given", tickets), ("sorted", want.clone()), ("reversed", reversed)] {
        let want = reference(&given);
        let mut got = given;
        sort_canonical(&mut got);
        prop_assert!(got == want, "{what}: got {got:?}\nwant {want:?}");
    }
    Ok(())
}

#[test]
fn empty_and_single_streams() {
    let mut empty: Vec<RmaTicket> = Vec::new();
    sort_canonical(&mut empty);
    assert!(empty.is_empty());
    let one = vec![ticket(0, u64::MAX, 7, 3)];
    let mut got = one.clone();
    sort_canonical(&mut got);
    assert_eq!(got, one);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn collision_dense_streams(rows in prop::collection::vec((0u64..4, 0u32..3, 0u64..3), 0..200)) {
        check(stream(rows))?;
    }

    #[test]
    fn hours_across_all_64_bits(
        pool in prop::collection::vec(0u64..=u64::MAX, 1..6),
        rows in prop::collection::vec((0usize..6, 0u32..3, 0u64..3), 0..200),
    ) {
        check(stream(rows.into_iter().map(|(k, rack, device)| (pool[k % pool.len()], rack, device))))?;
    }

    #[test]
    fn hours_spread_above_a_base(
        base in 0u64..u64::MAX - 1024,
        rows in prop::collection::vec((0u64..600, 0u32..4, 0u64..4), 0..300),
    ) {
        check(stream(rows.into_iter().map(|(h, rack, device)| (base + h, rack, device))))?;
    }
}
