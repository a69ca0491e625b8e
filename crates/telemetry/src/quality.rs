//! Robust ingestion: sanitizing dirty RMA/telemetry streams.
//!
//! Real cloud reliability data is never clean — the paper's premise is that
//! useful conclusions must survive duplicated tickets, inverted or skewed
//! intervals, mislabeled locations, censored resolution times, and flaky
//! environmental sensors. This module is the ingestion side of that story:
//! a [`Sanitizer`] that repairs what it can, quarantines what it cannot,
//! and accounts for every row in a structured [`DataQualityReport`] instead
//! of silently dropping data.
//!
//! The sanitizer is deliberately conservative: every repair is either exact
//! (location restored from the fleet manifest, inverted interval swapped
//! back) or clearly marked as an imputation (censored resolution times get
//! the per-fault median outage). On a clean stream it is a bit-identical
//! no-op.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use serde::Serialize;

use crate::ids::{DcId, RackId, RegionId, RowId};
use crate::rma::{FaultKind, RmaTicket};
use crate::time::SimTime;

/// The defect taxonomy the ingestion layer detects and accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefectClass {
    /// Same fault reported more than once for one device (pipeline retry).
    DuplicateTicket,
    /// `resolved < opened` — timestamps swapped at ingestion.
    InvertedInterval,
    /// Ticket opened outside the observation span (clock skew).
    ClockSkew,
    /// Location fields inconsistent with the fleet inventory.
    MislabeledLocation,
    /// `resolved == opened` — resolution time lost (censored).
    CensoredResolution,
    /// Environmental sensor reading far outside physical bounds.
    SensorSpike,
    /// Environmental sensor cell missing entirely (blackout window).
    SensorBlackout,
}

impl DefectClass {
    /// All defect classes, in report order.
    pub const ALL: [DefectClass; 7] = [
        DefectClass::DuplicateTicket,
        DefectClass::InvertedInterval,
        DefectClass::ClockSkew,
        DefectClass::MislabeledLocation,
        DefectClass::CensoredResolution,
        DefectClass::SensorSpike,
        DefectClass::SensorBlackout,
    ];

    /// Stable machine-readable name (used as the serialized map key).
    pub fn name(&self) -> &'static str {
        match self {
            DefectClass::DuplicateTicket => "duplicate_ticket",
            DefectClass::InvertedInterval => "inverted_interval",
            DefectClass::ClockSkew => "clock_skew",
            DefectClass::MislabeledLocation => "mislabeled_location",
            DefectClass::CensoredResolution => "censored_resolution",
            DefectClass::SensorSpike => "sensor_spike",
            DefectClass::SensorBlackout => "sensor_blackout",
        }
    }
}

impl fmt::Display for DefectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl serde::MapKey for DefectClass {
    fn to_key(&self) -> String {
        self.name().to_string()
    }
}

/// Per-class defect accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DefectCounts {
    /// Defective rows (or env cells) detected.
    pub detected: u64,
    /// Rows fixed in place and kept.
    pub repaired: u64,
    /// Rows removed from the sanitized stream.
    pub quarantined: u64,
}

/// Structured account of everything the ingestion layer saw and did.
///
/// Every row of the raw stream ends up in exactly one bucket: kept
/// unchanged, repaired, or quarantined — there are no silent drops.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct DataQualityReport {
    /// Rows in the raw ticket stream.
    pub tickets_seen: u64,
    /// Rows in the sanitized stream (flagged false positives included).
    pub tickets_kept: u64,
    /// Rows flagged `false_positive` and passed through untouched (the
    /// analysis layer, not the sanitizer, decides what to do with them).
    pub false_positives_flagged: u64,
    /// Per-class defect counts.
    pub classes: BTreeMap<DefectClass, DefectCounts>,
    /// Environmental sensor cells audited (DC-region × day).
    pub env_cells_seen: u64,
    /// False positives excluded downstream by `rma::true_positives_audited`.
    pub false_positives_excluded: u64,
    /// Invalid tickets dropped downstream by `rma::true_positives_audited`
    /// (zero after sanitization — the sanitizer repairs or quarantines them).
    pub invalid_dropped: u64,
}

impl DataQualityReport {
    /// Counts for one defect class (zero if never recorded).
    pub fn counts(&self, class: DefectClass) -> DefectCounts {
        self.classes.get(&class).copied().unwrap_or_default()
    }

    /// Records one detected defect, repaired (`true`) or quarantined.
    pub fn record(&mut self, class: DefectClass, repaired: bool) {
        let c = self.classes.entry(class).or_default();
        c.detected += 1;
        if repaired {
            c.repaired += 1;
        } else {
            c.quarantined += 1;
        }
    }

    /// Total defects detected across all classes.
    pub fn total_detected(&self) -> u64 {
        self.classes.values().map(|c| c.detected).sum()
    }

    /// Total rows/cells quarantined across all classes.
    pub fn total_quarantined(&self) -> u64 {
        self.classes.values().map(|c| c.quarantined).sum()
    }
}

impl fmt::Display for DataQualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "data quality: {} tickets seen, {} kept ({} false positives flagged), {} env cells",
            self.tickets_seen, self.tickets_kept, self.false_positives_flagged, self.env_cells_seen
        )?;
        for class in DefectClass::ALL {
            let c = self.counts(class);
            if c.detected > 0 {
                writeln!(
                    f,
                    "  {:<20} detected {:>6}  repaired {:>6}  quarantined {:>6}",
                    class.name(),
                    c.detected,
                    c.repaired,
                    c.quarantined
                )?;
            }
        }
        if self.total_detected() == 0 {
            writeln!(f, "  no defects detected")?;
        }
        Ok(())
    }
}

/// Inventory record for one rack: the ground truth the sanitizer checks
/// ticket locations against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RackRecord {
    /// Datacenter hosting the rack.
    pub dc: DcId,
    /// Cooling region within the DC.
    pub region: RegionId,
    /// Row within the region.
    pub row: RowId,
}

/// Fleet inventory keyed by rack id — rack ids are globally unique, so a
/// ticket's rack id pins down every other location field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetManifest {
    racks: BTreeMap<u32, RackRecord>,
}

impl FleetManifest {
    /// Empty manifest (every rack unknown).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a rack.
    pub fn insert(&mut self, rack: RackId, record: RackRecord) {
        self.racks.insert(rack.0, record);
    }

    /// Looks up a rack.
    pub fn get(&self, rack: RackId) -> Option<&RackRecord> {
        self.racks.get(&rack.0)
    }

    /// Registered racks.
    pub fn len(&self) -> usize {
        self.racks.len()
    }

    /// Whether no racks are registered.
    pub fn is_empty(&self) -> bool {
        self.racks.is_empty()
    }
}

/// Physical plausibility bounds for environmental sensor readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorBounds {
    /// Lowest plausible inlet temperature (°F).
    pub temp_min_f: f64,
    /// Highest plausible inlet temperature (°F).
    pub temp_max_f: f64,
    /// Lowest plausible relative humidity (%).
    pub rh_min: f64,
    /// Highest plausible relative humidity (%).
    pub rh_max: f64,
}

/// The ingestion bounds: the sensor audit and the ingested environment view
/// both winsorize against these. They bracket everything the simulated
/// cooling plants can produce (inlet temperature is clamped to 56–90 °F, RH
/// to roughly 5–87 %), so winsorizing never touches a genuine reading —
/// only sensor spikes.
pub const SENSOR_BOUNDS: SensorBounds =
    SensorBounds { temp_min_f: 50.0, temp_max_f: 95.0, rh_min: 3.0, rh_max: 90.0 };

/// Two reports of the same (device, fault, resolution) whose open times
/// are within this many hours are one event.
pub const DEDUP_WINDOW_HOURS: u64 = 6;

impl SensorBounds {
    /// Winsorizes a temperature reading; returns the clamped value and
    /// whether clamping fired. NaN (blackout) passes through unchanged.
    pub fn winsorize_temp(&self, t: f64) -> (f64, bool) {
        if !t.is_finite() {
            return (t, false);
        }
        let clamped = t.clamp(self.temp_min_f, self.temp_max_f);
        (clamped, clamped != t)
    }

    /// Winsorizes a relative-humidity reading; same contract as
    /// [`winsorize_temp`](Self::winsorize_temp).
    pub fn winsorize_rh(&self, rh: f64) -> (f64, bool) {
        if !rh.is_finite() {
            return (rh, false);
        }
        let clamped = rh.clamp(self.rh_min, self.rh_max);
        (clamped, clamped != rh)
    }
}

/// Fallback imputed outage (hours) when a fault class has no clean
/// exemplars to take a median from.
const FALLBACK_OUTAGE_HOURS: u64 = 4;

/// Repairs-or-quarantines a raw ticket stream against a fleet manifest.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    manifest: FleetManifest,
    /// The manifest's records indexed by rack id, covering ids below
    /// `4 * len + 64` so a hostile sparse id cannot size the table; ids past
    /// its end fall back to the manifest map.
    racks: Vec<Option<RackRecord>>,
    /// The observation span: tickets must open at or after its start and
    /// strictly before its end.
    span: Range<SimTime>,
}

impl Sanitizer {
    /// Builds a sanitizer for one fleet and observation span. The dedup
    /// window and the sensor bounds are the constants
    /// [`DEDUP_WINDOW_HOURS`] and [`SENSOR_BOUNDS`].
    pub fn new(manifest: FleetManifest, span: Range<SimTime>) -> Self {
        let ids = manifest.racks.last_key_value().map_or(0, |(&id, _)| id as usize + 1);
        let mut racks = vec![None; ids.min(4 * manifest.len() + 64)];
        for (&id, record) in &manifest.racks {
            if let Some(slot) = racks.get_mut(id as usize) {
                *slot = Some(*record);
            }
        }
        Self { manifest, racks, span }
    }

    /// The manifest record of a rack, `None` when it is not registered.
    fn rack(&self, rack: RackId) -> Option<&RackRecord> {
        match self.racks.get(rack.0 as usize) {
            Some(slot) => slot.as_ref(),
            None => self.manifest.get(rack),
        }
    }

    /// Sanitizes a ticket stream.
    ///
    /// Passes, in order:
    /// 1. flagged false positives pass through untouched (counted);
    /// 2. locations are checked against the manifest and repaired from the
    ///    rack record (rack ids are globally unique);
    /// 3. tickets opened outside the span are quarantined (clock skew);
    /// 4. inverted intervals are swapped back;
    /// 5. censored resolutions (`resolved == opened`) get the per-fault
    ///    median outage imputed from the clean part of the stream;
    /// 6. repeated reports of one (device, fault, resolution, location)
    ///    are deduplicated: the first report in stream order is kept, and a
    ///    later one is quarantined when it opened within the dedup window
    ///    of the earliest `opened` among them (on the simulator's sorted
    ///    stream the first report is the earliest);
    /// 7. the stream is re-sorted by `(opened, rack, device)`.
    ///
    /// The returned report accounts for every input row. On a stream with
    /// no defects the output is bit-identical to the input.
    pub fn sanitize(&self, tickets: &[RmaTicket]) -> (Vec<RmaTicket>, DataQualityReport) {
        let mut report =
            DataQualityReport { tickets_seen: tickets.len() as u64, ..Default::default() };

        // Passes 1–4: pass-through, location repair, span check, un-invert.
        let mut kept: Vec<RmaTicket> = Vec::with_capacity(tickets.len());
        let mut censored: Vec<usize> = Vec::new();
        for t in tickets {
            if t.false_positive {
                report.false_positives_flagged += 1;
                kept.push(t.clone());
                continue;
            }
            let mut t = t.clone();
            match self.rack(t.location.rack) {
                Some(rec) => {
                    if t.location.dc != rec.dc
                        || t.location.region != rec.region
                        || t.location.row != rec.row
                    {
                        t.location.dc = rec.dc;
                        t.location.region = rec.region;
                        t.location.row = rec.row;
                        report.record(DefectClass::MislabeledLocation, true);
                    }
                }
                None => {
                    if !self.manifest.is_empty() {
                        // Unknown rack: nothing to repair against.
                        report.record(DefectClass::MislabeledLocation, false);
                        continue;
                    }
                }
            }
            if !self.span.contains(&t.opened) {
                report.record(DefectClass::ClockSkew, false);
                continue;
            }
            if t.resolved < t.opened {
                std::mem::swap(&mut t.opened, &mut t.resolved);
                report.record(DefectClass::InvertedInterval, true);
            }
            if t.resolved == t.opened {
                censored.push(kept.len());
            }
            kept.push(t);
        }

        // Pass 5: impute censored resolutions from the clean population.
        if !censored.is_empty() {
            let medians = median_outage_by_fault(&kept);
            for &i in &censored {
                let t = &mut kept[i];
                let hours = medians.get(&t.fault).copied().unwrap_or(FALLBACK_OUTAGE_HOURS);
                t.resolved = SimTime(t.opened.hours().saturating_add(hours.max(1)));
                report.record(DefectClass::CensoredResolution, true);
            }
        }

        // Pass 6: dedup. Two non-FP tickets share an event when every field
        // except `opened` matches. Sorting (key, stream index) lays each
        // event's reports out as one run in stream order; in a run, the
        // first report is kept and a later one is a pipeline retry when it
        // opened within the window of the run's earliest `opened`, once an
        // earlier report of the run has been kept.
        let mut keyed: Vec<(DedupKey, usize)> = kept
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.false_positive)
            .map(|(i, t)| (DedupKey::of(t), i))
            .collect();
        keyed.sort_unstable();
        let mut duplicate = vec![false; kept.len()];
        for run in keyed.chunk_by(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
            let first = run.iter().map(|&(_, i)| kept[i].opened.hours()).min().unwrap_or(0);
            let mut emitted = false;
            for &(_, i) in run {
                if emitted && kept[i].opened.hours().saturating_sub(first) <= DEDUP_WINDOW_HOURS {
                    duplicate[i] = true;
                    report.record(DefectClass::DuplicateTicket, false);
                } else {
                    emitted = true;
                }
            }
        }
        let mut is_duplicate = duplicate.into_iter();
        kept.retain(|_| !is_duplicate.next().unwrap_or(false));

        // Pass 7: restore canonical stream order. Stable sort on the same
        // key the simulator uses, so an already-clean stream is untouched.
        kept.sort_by(|a, b| {
            (a.opened, a.location.rack, a.device).cmp(&(b.opened, b.location.rack, b.device))
        });

        report.tickets_kept = kept.len() as u64;
        (kept, report)
    }
}

/// Identity of a failure event for dedup: everything but the open time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct DedupKey {
    device: u64,
    fault: FaultKind,
    resolved: SimTime,
    rack: u32,
    server: u32,
    repeat_count: u32,
}

impl DedupKey {
    fn of(t: &RmaTicket) -> Self {
        Self {
            device: t.device.0,
            fault: t.fault,
            resolved: t.resolved,
            rack: t.location.rack.0,
            server: t.location.server.0,
            repeat_count: t.repeat_count,
        }
    }
}

/// Median outage hours per fault kind over valid, uncensored tickets.
fn median_outage_by_fault(tickets: &[RmaTicket]) -> BTreeMap<FaultKind, u64> {
    let mut samples: BTreeMap<FaultKind, Vec<u64>> = BTreeMap::new();
    for t in tickets {
        if t.false_positive || t.resolved <= t.opened {
            continue;
        }
        samples.entry(t.fault).or_default().push(t.outage_hours());
    }
    samples
        .into_iter()
        .map(|(fault, mut hours)| {
            let mid = hours.len() / 2;
            (fault, *hours.select_nth_unstable(mid).1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DeviceId, ServerId, ServerLocation};

    fn manifest() -> FleetManifest {
        let mut m = FleetManifest::new();
        for rack in 1..=4u32 {
            m.insert(
                RackId(rack),
                RackRecord {
                    dc: DcId(if rack <= 2 { 1 } else { 2 }),
                    region: RegionId(1),
                    row: RowId(1),
                },
            );
        }
        m
    }

    fn ticket(rack: u32, device: u64, opened: u64, resolved: u64) -> RmaTicket {
        RmaTicket {
            device: DeviceId(device),
            location: ServerLocation {
                dc: DcId(if rack <= 2 { 1 } else { 2 }),
                region: RegionId(1),
                row: RowId(1),
                rack: RackId(rack),
                server: ServerId((rack - 1) * 40 + 1),
            },
            fault: FaultKind::Other,
            opened: SimTime(opened),
            resolved: SimTime(resolved),
            repeat_count: 0,
            false_positive: false,
        }
    }

    fn sanitizer() -> Sanitizer {
        Sanitizer::new(manifest(), SimTime(0)..SimTime(1000))
    }

    #[test]
    fn clean_stream_is_untouched() {
        let tickets = vec![ticket(1, 10, 5, 9), ticket(2, 11, 7, 20), ticket(3, 12, 7, 30)];
        let (out, report) = sanitizer().sanitize(&tickets);
        assert_eq!(out, tickets);
        assert_eq!(report.tickets_seen, 3);
        assert_eq!(report.tickets_kept, 3);
        assert_eq!(report.total_detected(), 0);
    }

    #[test]
    fn inverted_interval_is_swapped_back() {
        let mut t = ticket(1, 10, 5, 9);
        std::mem::swap(&mut t.opened, &mut t.resolved);
        let (out, report) = sanitizer().sanitize(&[t]);
        assert_eq!(out[0].opened, SimTime(5));
        assert_eq!(out[0].resolved, SimTime(9));
        assert_eq!(report.counts(DefectClass::InvertedInterval).repaired, 1);
    }

    #[test]
    fn out_of_span_ticket_is_quarantined() {
        let t = ticket(1, 10, 5000, 5004);
        let (out, report) = sanitizer().sanitize(&[t]);
        assert!(out.is_empty());
        assert_eq!(report.counts(DefectClass::ClockSkew).quarantined, 1);
        assert_eq!(report.tickets_kept, 0);
    }

    #[test]
    fn mislabeled_location_is_repaired_from_manifest() {
        let mut t = ticket(1, 10, 5, 9);
        t.location.dc = DcId(2); // rack 1 lives in DC1
        let (out, report) = sanitizer().sanitize(&[t]);
        assert_eq!(out[0].location.dc, DcId(1));
        assert_eq!(report.counts(DefectClass::MislabeledLocation).repaired, 1);
    }

    #[test]
    fn censored_resolution_gets_median_imputed() {
        let clean: Vec<RmaTicket> =
            [4u64, 6, 8].iter().map(|&h| ticket(1, h, 10, 10 + h)).collect();
        let mut tickets = clean;
        tickets.push(ticket(2, 99, 50, 50)); // censored
        let (out, report) = sanitizer().sanitize(&tickets);
        let imputed = out.iter().find(|t| t.device.0 == 99).unwrap();
        assert_eq!(imputed.resolved, SimTime(56)); // median outage = 6h
        assert_eq!(report.counts(DefectClass::CensoredResolution).repaired, 1);
    }

    #[test]
    fn duplicates_within_window_collapse_to_earliest() {
        let original = ticket(1, 10, 5, 20);
        let mut dup = original.clone();
        dup.opened = SimTime(7); // same resolution, +2h open
        let distinct = ticket(1, 10, 100, 120); // same device+fault, far later
        let (out, report) = sanitizer().sanitize(&[original.clone(), dup, distinct.clone()]);
        assert_eq!(out, vec![original, distinct]);
        assert_eq!(report.counts(DefectClass::DuplicateTicket).quarantined, 1);
    }

    #[test]
    fn unsorted_duplicates_keep_the_first_report_in_stream_order() {
        let first = ticket(1, 10, 10, 20);
        let mut earlier = first.clone();
        earlier.opened = SimTime(8); // same event, reported later in the stream
        let (out, report) = sanitizer().sanitize(&[first.clone(), earlier]);
        assert_eq!(out, vec![first]);
        assert_eq!(report.counts(DefectClass::DuplicateTicket).quarantined, 1);
    }

    #[test]
    fn unknown_racks_miss_like_the_manifest_map() {
        let mut m = manifest();
        let far = RackRecord { dc: DcId(2), region: RegionId(1), row: RowId(1) };
        m.insert(RackId(1_000_000), far);
        let s = Sanitizer::new(m, SimTime(0)..SimTime(1000));
        for rack in [0, 5, 999_999, 1_000_001, u32::MAX] {
            assert_eq!(s.rack(RackId(rack)), None, "rack {rack}");
        }
        assert_eq!(s.rack(RackId(1_000_000)), Some(&far));
        assert_eq!(s.rack(RackId(3)).map(|r| r.dc), Some(DcId(2)));
        let (out, report) = s.sanitize(&[ticket(1, 10, 5, 9), ticket(5, 11, 5, 9)]);
        assert_eq!(out.len(), 1);
        assert_eq!(report.counts(DefectClass::MislabeledLocation).quarantined, 1);
    }

    #[test]
    fn false_positives_pass_through_untouched() {
        let mut fp = ticket(1, 10, 5, 9);
        fp.false_positive = true;
        let dup_fp = fp.clone();
        let (out, report) = sanitizer().sanitize(&[fp, dup_fp]);
        assert_eq!(out.len(), 2, "flagged FPs are never deduped or repaired");
        assert_eq!(report.false_positives_flagged, 2);
    }

    #[test]
    fn report_accounts_for_every_row() {
        let tickets = vec![
            ticket(1, 1, 5, 9),
            ticket(1, 2, 5000, 5004), // clock skew
            ticket(2, 3, 9, 5),       // inverted
        ];
        let (out, report) = sanitizer().sanitize(&tickets);
        assert_eq!(report.tickets_seen, 3);
        assert_eq!(report.tickets_kept as usize, out.len());
        assert_eq!(report.tickets_seen, report.tickets_kept + report.total_quarantined());
    }

    #[test]
    fn sensor_bounds_clamp_only_outliers() {
        let b = SENSOR_BOUNDS;
        assert_eq!(b.winsorize_temp(72.0), (72.0, false));
        assert_eq!(b.winsorize_temp(140.0), (95.0, true));
        assert_eq!(b.winsorize_temp(10.0), (50.0, true));
        assert_eq!(b.winsorize_rh(96.5), (90.0, true));
        let (nan, fired) = b.winsorize_temp(f64::NAN);
        assert!(nan.is_nan() && !fired);
    }
}
