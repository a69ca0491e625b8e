//! Differential oracle for the in-place sanitizer
//! (`telemetry::quality::Sanitizer`), whose dedup groups rows by `resolved`
//! hour and whose final ordering is `rma::sort_canonical`, both radix sorts.
//!
//! `sanitize_reference` is the map-based sanitizer: passes 1–4 look racks up
//! in the manifest's map, and pass 6 keeps two `BTreeMap`s keyed on the
//! dedup identity (the earliest `opened` per key, and how many reports of
//! each key were already emitted). The sanitizer must return the same
//! stream and the same `DataQualityReport` (`==`) on every input, sorted
//! or not: collision-dense random streams against a manifest with
//! mislabeled and unknown racks, and the paper fleet's streams clean and
//! with the `dirty_default` corruption applied. On the paper fleet's clean
//! stream, which the simulation has already sanitized, a second pass must
//! be the identity: the same stream bit for bit and no defect recorded.

use std::collections::BTreeMap;
use std::ops::Range;

use proptest::prelude::*;
use rainshine::dcsim::corruption::corrupt_tickets;
use rainshine::dcsim::{CorruptionConfig, FleetConfig, Simulation};
use rainshine::telemetry::ids::{
    DcId, DeviceId, RackId, RegionId, RowId, ServerId, ServerLocation,
};
use rainshine::telemetry::quality::{
    DataQualityReport, DefectClass, FleetManifest, RackRecord, Sanitizer, DEDUP_WINDOW_HOURS,
};
use rainshine::telemetry::rma::{FaultKind, HardwareFault, RmaTicket};
use rainshine::telemetry::time::SimTime;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The dedup identity: every ticket field but `opened` and the flag.
type DedupKey = (u64, FaultKind, SimTime, u32, u32, u32);

fn dedup_key(t: &RmaTicket) -> DedupKey {
    (t.device.0, t.fault, t.resolved, t.location.rack.0, t.location.server.0, t.repeat_count)
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
            hours.sort_unstable();
            (fault, hours[hours.len() / 2])
        })
        .collect()
}

/// The map-based sanitizer, pass for pass.
fn sanitize_reference(
    manifest: &FleetManifest,
    span: &Range<SimTime>,
    tickets: &[RmaTicket],
) -> (Vec<RmaTicket>, DataQualityReport) {
    let mut report = DataQualityReport { tickets_seen: tickets.len() as u64, ..Default::default() };

    let mut kept: Vec<RmaTicket> = Vec::with_capacity(tickets.len());
    let mut censored: Vec<usize> = Vec::new();
    for t in tickets {
        if t.false_positive {
            report.false_positives_flagged += 1;
            kept.push(t.clone());
            continue;
        }
        let mut t = t.clone();
        match manifest.get(t.location.rack) {
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
                if !manifest.is_empty() {
                    report.record(DefectClass::MislabeledLocation, false);
                    continue;
                }
            }
        }
        if t.opened < span.start || t.opened >= span.end {
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

    if !censored.is_empty() {
        let medians = median_outage_by_fault(&kept);
        for &i in &censored {
            let t = &mut kept[i];
            let hours = medians.get(&t.fault).copied().unwrap_or(4);
            t.resolved = SimTime(t.opened.hours().saturating_add(hours.max(1)));
            report.record(DefectClass::CensoredResolution, true);
        }
    }

    let mut earliest: BTreeMap<DedupKey, SimTime> = BTreeMap::new();
    for t in kept.iter().filter(|t| !t.false_positive) {
        earliest
            .entry(dedup_key(t))
            .and_modify(|first| *first = (*first).min(t.opened))
            .or_insert(t.opened);
    }
    let window = DEDUP_WINDOW_HOURS;
    let mut seen: BTreeMap<DedupKey, u64> = BTreeMap::new();
    let mut out: Vec<RmaTicket> = Vec::with_capacity(kept.len());
    for t in kept {
        if t.false_positive {
            out.push(t);
            continue;
        }
        let key = dedup_key(&t);
        let first = earliest[&key];
        let within = t.opened.hours().saturating_sub(first.hours()) <= window;
        let repeats = seen.entry(key).or_insert(0);
        if within && *repeats > 0 {
            report.record(DefectClass::DuplicateTicket, false);
            continue;
        }
        *repeats += 1;
        out.push(t);
    }

    out.sort_by(|a, b| {
        (a.opened, a.location.rack, a.device).cmp(&(b.opened, b.location.rack, b.device))
    });
    report.tickets_kept = out.len() as u64;
    (out, report)
}

/// Asserts the sanitizer matches the reference on `tickets` as given and
/// in the simulator's sorted order.
fn check(manifest: &FleetManifest, span: &Range<SimTime>, tickets: &[RmaTicket], what: &str) {
    let sanitizer = Sanitizer::new(manifest.clone(), span.clone());
    let mut sorted = tickets.to_vec();
    sorted.sort_by_key(|t| (t.opened, t.location.rack, t.device));
    for (order, stream) in [("as given", tickets), ("sorted", &sorted)] {
        let (want, want_report) = sanitize_reference(manifest, span, stream);
        let (got, got_report) = sanitizer.sanitize(stream.to_vec());
        assert_eq!(got_report, want_report, "{what}, {order}: report");
        // `assert!`, not `assert_eq!`: a paper stream's Debug dump is huge.
        assert!(got == want, "{what}, {order}: stream differs");
    }
}

/// Racks 1–4 in two DCs; racks 0 and 5 are unknown.
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

/// One reported failure and its pipeline retries: a few devices, two
/// faults, `resolved` in a three-hour band, in a band past 2^40 (so the
/// dedup buckets need the high radix digits) or equal to `opened`
/// (censored, so copies collide only after imputation), `opened` past the
/// band (inverted), past the span end (clock skew) or past 2^50 (a
/// far-future false positive passes untouched, so the final ordering needs
/// the high digits too), the DC flipped (mislabeled), an unknown rack, a
/// false-positive flag, and up to three copies `step` hours apart, inside
/// and outside the 6 h window.
fn event_strategy() -> impl Strategy<Value = Vec<RmaTicket>> {
    (
        (0u64..3, 0u8..2, 0u32..6, 0u8..5, 0u32..2, 0u8..6),
        (0u64..40, 0u64..4, 0u8..4, 0usize..4, 0u64..9),
    )
        .prop_map(
            |((device, fault, rack, flip, repeat, fp), (opened, res, reach, copies, step))| {
                let home = if rack <= 2 { 1 } else { 2 };
                let opened = if reach == 1 { (1 << 50) + opened } else { opened };
                let band = if reach == 0 { 1 << 40 } else { 20 };
                let ticket = |opened: u64| RmaTicket {
                    device: DeviceId(device),
                    location: ServerLocation {
                        dc: DcId(if flip == 0 { 3 - home } else { home }),
                        region: RegionId(1),
                        row: RowId(1),
                        rack: RackId(rack),
                        server: ServerId(rack * 40),
                    },
                    fault: if fault == 0 {
                        FaultKind::Hardware(HardwareFault::Disk)
                    } else {
                        FaultKind::Other
                    },
                    opened: SimTime(opened),
                    resolved: SimTime(if res == 0 { opened } else { band + res }),
                    repeat_count: repeat,
                    false_positive: fp == 0,
                };
                (0..=copies as u64).map(|k| ticket(opened + k * step)).collect()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sanitizer_matches_the_map_based_reference(
        events in prop::collection::vec(event_strategy(), 0..40),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let mut tickets: Vec<RmaTicket> = events.into_iter().flatten().collect();
        tickets.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let span = SimTime(0)..SimTime(36);
        check(&manifest(), &span, &tickets, "manifest");
        check(&FleetManifest::new(), &span, &tickets, "empty manifest");
    }
}

/// The paper fleet for seeds 1, 2 and 11: the clean stream, and the same
/// stream after `dirty_default` corruption, in sorted and shuffled order;
/// and the sanitizer's fixed point on the clean stream.
/// Run with `cargo test --release --test sanitizer_oracle -- --ignored`.
#[test]
#[ignore = "paper-scale fleet; run in release"]
fn sanitizer_matches_the_reference_on_paper_streams() {
    for seed in [1, 2, 11] {
        let output = Simulation::new(FleetConfig::paper_scale(), seed).run();
        let manifest = output.fleet.manifest();
        let span = output.config.start..output.config.end;
        check(&manifest, &span, &output.tickets, &format!("seed {seed}, clean"));

        // Fixed point: the simulation's clean stream is already sanitized,
        // so a second pass returns it bit for bit and records no defect.
        let sanitizer = Sanitizer::new(manifest.clone(), span.clone());
        let (again, report) = sanitizer.sanitize(output.tickets.clone());
        assert!(again == output.tickets, "seed {seed}: re-sanitizing changed the clean stream");
        assert_eq!(report.total_detected(), 0, "seed {seed}: second pass {report:?}");
        assert_eq!(report.tickets_kept, report.tickets_seen, "seed {seed}: second pass kept");

        let mut dirty = output.tickets.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let log = corrupt_tickets(
            &mut dirty,
            &CorruptionConfig::dirty_default(),
            (span.start, span.end),
            &mut rng,
        );
        assert!(log.duplicates > 0 && log.censored > 0 && log.mislabeled > 0, "seed {seed}");
        check(&manifest, &span, &dirty, &format!("seed {seed}, dirty_default"));
        dirty.shuffle(&mut rng);
        check(&manifest, &span, &dirty, &format!("seed {seed}, dirty_default shuffled"));
    }
}
