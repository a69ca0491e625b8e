//! The paper's two failure metrics (Section V):
//!
//! * **λ (failure generation rate)** — how many failure tickets a spatial
//!   unit generates per time window;
//! * **μ (concurrent failures)** — how many devices of a spatial unit are
//!   *simultaneously* unavailable during a time window. μ captures temporal
//!   correlation: two failures that overlap in time need two spares, two
//!   that don't can share one.
//!
//! Both metrics are computed at arbitrary spatial ([`SpatialGranularity`])
//! and temporal ([`TimeGranularity`]) resolution. Distributions are stored
//! sparsely: most windows see zero failures, so we keep only non-zero
//! windows plus the total window count.

use std::collections::BTreeMap;

use crate::ids::ServerLocation;
use crate::rma::RmaTicket;
use crate::time::{SimTime, TimeGranularity};

/// Spatial aggregation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpatialGranularity {
    /// Whole datacenter.
    Datacenter,
    /// Region within a datacenter.
    Region,
    /// Row of racks.
    Row,
    /// Rack (the paper's provisioning granularity).
    Rack,
    /// Individual server.
    Server,
}

/// Key identifying one spatial unit at some granularity. Fields below the
/// granularity are zeroed so keys compare equal within a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpatialKey {
    /// Datacenter number.
    pub dc: u8,
    /// Region number (0 below Region granularity).
    pub region: u8,
    /// Row number (0 below Row granularity).
    pub row: u16,
    /// Rack number (0 below Rack granularity).
    pub rack: u32,
    /// Server number (0 below Server granularity).
    pub server: u32,
}

impl SpatialGranularity {
    /// Projects a server location onto a key at this granularity.
    pub fn key(&self, loc: &ServerLocation) -> SpatialKey {
        let mut key = SpatialKey { dc: loc.dc.0, region: 0, row: 0, rack: 0, server: 0 };
        if *self >= SpatialGranularity::Region {
            key.region = loc.region.0;
        }
        if *self >= SpatialGranularity::Row {
            key.row = loc.row.0;
        }
        if *self >= SpatialGranularity::Rack {
            key.rack = loc.rack.0;
        }
        if *self >= SpatialGranularity::Server {
            key.server = loc.server.0;
        }
        key
    }
}

/// A sparse per-window count distribution (λ) or distinct-device
/// distribution (μ) over a fixed number of windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSeries {
    /// Total number of windows in the observation span.
    pub windows: u64,
    /// Non-zero windows: window index → value.
    pub nonzero: BTreeMap<u64, u64>,
}

impl WindowedSeries {
    /// Creates an all-zero series over `windows` windows.
    pub fn zeros(windows: u64) -> Self {
        WindowedSeries { windows, nonzero: BTreeMap::new() }
    }

    /// Sum of values over all windows.
    pub fn total(&self) -> u64 {
        self.nonzero.values().sum()
    }

    /// Adds `delta` at window `w`. Out-of-range windows clamp to the last
    /// window, so a stray ticket can never create more non-zero entries
    /// than the span has windows. No-op on a zero-window span.
    pub fn add(&mut self, w: u64, delta: u64) {
        if self.windows == 0 || delta == 0 {
            return;
        }
        let w = w.min(self.windows - 1);
        *self.nonzero.entry(w).or_insert(0) += delta;
    }

    /// Maximum value over all windows (zero if no non-zero window).
    pub fn max(&self) -> u64 {
        self.nonzero.values().copied().max().unwrap_or(0)
    }
}

/// λ: tickets opened per (spatial unit, time window).
///
/// Only tickets within `[start, end)` are counted. Units absent from the
/// ticket stream are absent from the map.
pub fn lambda(
    tickets: &[&RmaTicket],
    spatial: SpatialGranularity,
    temporal: TimeGranularity,
    start: SimTime,
    end: SimTime,
) -> BTreeMap<SpatialKey, WindowedSeries> {
    let windows = temporal.window_count(start, end);
    let base = temporal.window_of(start);
    let mut out: BTreeMap<SpatialKey, WindowedSeries> = BTreeMap::new();
    for t in tickets {
        if t.opened < start || t.opened >= end {
            continue;
        }
        let key = spatial.key(&t.location);
        let w = temporal.window_of(t.opened) - base;
        let series = out.entry(key).or_insert_with(|| WindowedSeries::zeros(windows));
        series.add(w, 1);
    }
    out
}

/// μ: number of **distinct devices** unavailable during each (spatial unit,
/// time window) — the paper's "number of devices with failures over a
/// duration".
///
/// A device contributes to every window its outage `[opened, resolved)`
/// overlaps. This is the provisioning-relevant count: a spare allocated for
/// a window must cover every device that fails within it, so two
/// *non-overlapping* failures in the same day still need two spares at
/// daily granularity but only one at hourly granularity — the temporal
/// multiplexing the paper exploits in Fig. 12. Tickets still open at `end`
/// are clamped; a ticket with `resolved == opened` still occupies its
/// opening window.
///
/// The engine clamps each in-span ticket to an inclusive window range and
/// sorts the `(unit, device, first, last)` ranges once. Per unit, it merges
/// each device's overlapping or touching ranges into runs, so a device
/// counts once per window, and sweeps the runs' ±1 boundary events in
/// window order, emitting each non-zero window's device count as it goes:
/// `O(n log n + non-zero windows)` for `n` tickets, with no per-window set.
/// A unit with an in-span ticket is present even when its series is empty
/// (a zero-window span).
pub fn mu(
    tickets: &[&RmaTicket],
    spatial: SpatialGranularity,
    temporal: TimeGranularity,
    start: SimTime,
    end: SimTime,
) -> BTreeMap<SpatialKey, WindowedSeries> {
    let windows = temporal.window_count(start, end);
    let base = temporal.window_of(start);
    // (unit, device, first window, last window); an empty range (first >
    // last) keeps the unit without touching any window.
    let mut ranges: Vec<(SpatialKey, u64, u64, u64)> = Vec::with_capacity(tickets.len());
    for t in tickets {
        if t.resolved < start || t.opened >= end {
            continue;
        }
        let open = t.opened.hours().max(start.hours());
        let close = t.resolved.hours().clamp(open + 1, end.hours().max(open + 1));
        let (w_from, w_to) = match windows.checked_sub(1) {
            Some(last) => (
                temporal.window_of(SimTime(open)).saturating_sub(base),
                temporal.window_of(SimTime(close - 1)).saturating_sub(base).min(last),
            ),
            None => (1, 0),
        };
        ranges.push((spatial.key(&t.location), t.device.0, w_from, w_to));
    }
    ranges.sort_unstable();

    let mut out = Vec::new();
    let mut events: Vec<(u64, i64)> = Vec::new();
    for unit in ranges.chunk_by(|a, b| a.0 == b.0) {
        events.clear();
        for device in unit.chunk_by(|a, b| a.1 == b.1) {
            // Ranges arrive sorted by first window: merge overlapping or
            // touching ones into runs of the device being down.
            let mut run: Option<(u64, u64)> = None;
            for &(_, _, from, to) in device.iter().filter(|r| r.2 <= r.3) {
                run = match run {
                    Some((a, b)) if from <= b + 1 => Some((a, b.max(to))),
                    _ => {
                        if let Some((a, b)) = run {
                            events.extend([(a, 1), (b + 1, -1)]);
                        }
                        Some((from, to))
                    }
                };
            }
            if let Some((a, b)) = run {
                events.extend([(a, 1), (b + 1, -1)]);
            }
        }
        events.sort_unstable();
        let mut nonzero = Vec::new();
        let mut down: i64 = 0;
        for (i, &(w, delta)) in events.iter().enumerate() {
            down += delta;
            // The count holds from `w` up to the next boundary; the last
            // event always closes a run, so it never leaves a tail.
            if let Some(&(next, _)) = events.get(i + 1) {
                if down > 0 {
                    nonzero.extend((w..next).map(|w| (w, down as u64)));
                }
            }
        }
        out.push((unit[0].0, WindowedSeries { windows, nonzero: nonzero.into_iter().collect() }));
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DcId, DeviceId, RackId, RegionId, RowId, ServerId};
    use crate::rma::{FaultKind, HardwareFault, RmaTicket};

    fn ticket(rack: u32, server: u32, opened: u64, resolved: u64) -> RmaTicket {
        RmaTicket {
            device: DeviceId(server as u64),
            location: ServerLocation {
                dc: DcId(1),
                region: RegionId(1),
                row: RowId(1),
                rack: RackId(rack),
                server: ServerId(server),
            },
            fault: FaultKind::Hardware(HardwareFault::Disk),
            opened: SimTime(opened),
            resolved: SimTime(resolved),
            repeat_count: 0,
            false_positive: false,
        }
    }

    #[test]
    fn lambda_counts_per_window() {
        let tickets = [ticket(1, 1, 2, 5), ticket(1, 2, 30, 31), ticket(2, 3, 2, 3)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map = lambda(
            &refs,
            SpatialGranularity::Rack,
            TimeGranularity::Daily,
            SimTime(0),
            SimTime(48),
        );
        let rack1 = SpatialGranularity::Rack.key(&tickets[0].location);
        let s = &map[&rack1];
        assert_eq!(s.windows, 2);
        assert_eq!(s.nonzero[&0], 1);
        assert_eq!(s.nonzero[&1], 1);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn lambda_ignores_out_of_span() {
        let tickets = [ticket(1, 1, 100, 101)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map = lambda(
            &refs,
            SpatialGranularity::Rack,
            TimeGranularity::Daily,
            SimTime(0),
            SimTime(48),
        );
        assert!(map.is_empty());
    }

    #[test]
    fn mu_counts_devices_per_window() {
        // Two devices down during day 0; one still down on day 1.
        let tickets = [ticket(1, 1, 5, 20), ticket(1, 2, 10, 30)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Daily, SimTime(0), SimTime(72));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        let s = &map[&key];
        assert_eq!(s.nonzero[&0], 2);
        assert_eq!(s.nonzero[&1], 1);
        assert_eq!(s.max(), 2);
    }

    #[test]
    fn mu_daily_stacks_but_hourly_multiplexes() {
        // Non-overlapping outages in one day: both devices count at daily
        // granularity (2 spares needed for the day) but hourly windows see
        // at most one at a time (Fig. 12's multiplexing).
        let tickets = [ticket(1, 1, 1, 3), ticket(1, 2, 10, 12)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let daily =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Daily, SimTime(0), SimTime(24));
        let hourly =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, SimTime(0), SimTime(24));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        assert_eq!(daily[&key].max(), 2);
        assert_eq!(hourly[&key].max(), 1);
        assert_eq!(hourly[&key].nonzero.len(), 4);
    }

    #[test]
    fn mu_dedupes_same_device_within_window() {
        // The same device failing twice in one day needs one spare.
        let tickets = [ticket(1, 1, 1, 3), ticket(1, 1, 10, 12)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let daily =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Daily, SimTime(0), SimTime(24));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        assert_eq!(daily[&key].max(), 1);
    }

    #[test]
    fn mu_instant_ticket_occupies_opening_window() {
        let tickets = [ticket(1, 1, 5, 5)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, SimTime(0), SimTime(24));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        assert_eq!(map[&key].nonzero[&5], 1);
    }

    #[test]
    fn mu_overlapping_tickets_on_one_device_count_once() {
        // Device 1 has two overlapping outages; device 2 overlaps both.
        let tickets = [ticket(1, 1, 2, 10), ticket(1, 1, 5, 12), ticket(1, 2, 8, 9)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, SimTime(0), SimTime(24));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        let expected: BTreeMap<u64, u64> =
            (2..12).map(|w| (w, if w == 8 { 2 } else { 1 })).collect();
        assert_eq!(map[&key].nonzero, expected);
    }

    #[test]
    fn mu_back_to_back_tickets_merge_into_one_run() {
        // [2, 5) and [5, 8) touch: one device down through hours 2..=7,
        // never counted twice at the seam.
        let tickets = [ticket(1, 1, 5, 8), ticket(1, 1, 2, 5)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, SimTime(0), SimTime(24));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        let expected: BTreeMap<u64, u64> = (2..8).map(|w| (w, 1)).collect();
        assert_eq!(map[&key].nonzero, expected);
    }

    #[test]
    fn mu_ticket_open_past_end_fills_through_last_window() {
        let tickets = [ticket(1, 1, 40, 1_000)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let map =
            mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, SimTime(0), SimTime(48));
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        let expected: BTreeMap<u64, u64> = (40..48).map(|w| (w, 1)).collect();
        assert_eq!(map[&key].windows, 48);
        assert_eq!(map[&key].nonzero, expected);
    }

    #[test]
    fn mu_inverted_span_keeps_straddling_unit_with_empty_series() {
        // opened < end <= start <= resolved: the ticket qualifies, but the
        // span has no windows to put it in.
        let tickets = [ticket(1, 1, 5, 50)];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let key = SpatialGranularity::Rack.key(&tickets[0].location);
        for end in [SimTime(10), SimTime(24)] {
            let map =
                mu(&refs, SpatialGranularity::Rack, TimeGranularity::Hourly, SimTime(24), end);
            assert_eq!(map.len(), 1);
            assert_eq!(map[&key], WindowedSeries::zeros(0));
        }
    }

    #[test]
    fn spatial_keys_zero_below_granularity() {
        let loc = ServerLocation {
            dc: DcId(2),
            region: RegionId(3),
            row: RowId(4),
            rack: RackId(5),
            server: ServerId(6),
        };
        let dc_key = SpatialGranularity::Datacenter.key(&loc);
        assert_eq!(dc_key, SpatialKey { dc: 2, region: 0, row: 0, rack: 0, server: 0 });
        let server_key = SpatialGranularity::Server.key(&loc);
        assert_eq!(server_key.server, 6);
        assert_eq!(server_key.rack, 5);
    }

    #[test]
    fn windowed_series_stats() {
        let mut s = WindowedSeries::zeros(10);
        s.nonzero.insert(3, 2);
        s.nonzero.insert(7, 4);
        assert_eq!(s.total(), 6);
        assert_eq!(s.max(), 4);
        assert_eq!(WindowedSeries::zeros(10).max(), 0);
    }

    #[test]
    fn add_clamps_out_of_range_windows() {
        let mut s = WindowedSeries::zeros(4);
        s.add(99, 2);
        s.add(1_000_000, 3);
        assert_eq!(s.nonzero.len(), 1);
        assert_eq!(s.nonzero[&3], 5);
        assert_eq!(s.max(), 5);
        // Zero-window spans swallow writes instead of panicking.
        let mut empty = WindowedSeries::zeros(0);
        empty.add(0, 1);
        assert!(empty.nonzero.is_empty());
    }
}
