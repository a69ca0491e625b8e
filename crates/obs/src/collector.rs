//! The metric store: counters, gauges, histograms, and per-stage stats.
//!
//! A [`Collector`] is plain owned data with no interior mutability. Every
//! map is a `BTreeMap`, so iteration — and therefore serialization —
//! happens in stable key order regardless of the order metrics were first
//! touched.
//!
//! Determinism contract: counters, gauges, histograms, and the
//! `calls`/`items` halves of [`StageStats`] are pure functions of the
//! work performed (u64 sums are commutative, so even racy interleaving
//! through a shared lock cannot reorder them into different totals).
//! Only `wall_nanos` is wall-clock dependent; report builders must keep
//! it out of any byte-identity contract.

use std::collections::BTreeMap;

use serde::Serialize;

/// Wall-time and throughput accounting for one named stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage ran.
    pub calls: u64,
    /// Work items the stage processed (rows, tickets, trees, replicates —
    /// whatever the stage counts).
    pub items: u64,
    /// Total wall-clock time spent in the stage, in nanoseconds.
    /// **Non-deterministic**: excluded from the deterministic report.
    pub wall_nanos: u64,
}

/// A log₂-bucketed histogram of `u64` observations.
///
/// Bucket `b` holds values `v` with `bit_width(v) == b`, i.e. bucket 0 is
/// exactly zero, bucket 1 is `{1}`, bucket 2 is `{2, 3}`, bucket `b` is
/// `[2^(b-1), 2^b)`. Coarse and allocation-light; every field is an
/// integer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Bucket index (`bit_width` of the value) → observation count.
    pub buckets: BTreeMap<u8, u64>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        *self.buckets.entry(bucket_of(value)).or_insert(0) += 1;
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }
}

/// Bucket index of a value: its bit width (`0` for zero).
fn bucket_of(value: u64) -> u8 {
    (u64::BITS - value.leading_zeros()) as u8
}

/// An owned set of metrics: the unit of collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Collector {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Named histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-stage call/item/wall-time accounting.
    pub stages: BTreeMap<String, StageStats>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Adds `delta` to the counter `name`.
    pub fn incr(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Records `value` in the histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms.entry(name.to_string()).or_default().observe(value);
    }

    /// Adds one call with `items` work items and `wall_nanos` of wall time
    /// to the stage `name`.
    pub fn record_stage(&mut self, name: &str, items: u64, wall_nanos: u64) {
        let s = self.stages.entry(name.to_string()).or_default();
        s.calls += 1;
        s.items += items;
        s.wall_nanos += wall_nanos;
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[&0], 1); // {0}
        assert_eq!(h.buckets[&1], 1); // {1}
        assert_eq!(h.buckets[&2], 2); // {2,3}
        assert_eq!(h.buckets[&3], 2); // {4..7}
        assert_eq!(h.buckets[&4], 1); // {8..15}
        assert_eq!(h.buckets[&11], 1); // {1024..2047}
        assert!((h.mean() - 1049.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_collector_reports_empty() {
        let mut c = Collector::new();
        assert!(c.is_empty());
        c.incr("x", 1);
        assert!(!c.is_empty());
    }
}
