//! The serializable run report.
//!
//! A [`RunReport`] splits what a run recorded into two sections with
//! different contracts:
//!
//! * [`DeterministicReport`] — counters, gauges, histograms, per-stage
//!   call/item counts, free-form metadata, and the data-quality payload.
//!   For a fixed seed this section is **byte-identical** at any
//!   `Parallelism` setting; it is what `--report PATH` writes to disk.
//! * [`WallTimes`] — per-stage wall-clock nanoseconds. Inherently
//!   machine- and schedule-dependent, so it is rendered only into the
//!   human summary on stderr and never into the report file.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::collector::{Collector, Histogram};

/// Schema version written into every report.
pub const SCHEMA_VERSION: u32 = 1;

/// The deterministic half of a stage's stats: wall time stripped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageCounts {
    /// Times the stage ran.
    pub calls: u64,
    /// Work items the stage processed.
    pub items: u64,
}

/// Everything about a run that is a pure function of (config, seed).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeterministicReport {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Free-form run metadata (scale, seed, corruption spec — but *not*
    /// the thread count, which must not influence this section's bytes).
    pub meta: BTreeMap<String, Value>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-stage call/item counts.
    pub stages: BTreeMap<String, StageCounts>,
    /// The sanitizer's `DataQualityReport`, serialized to a value tree by
    /// the caller (keeps this crate free of a telemetry dependency).
    pub quality: Option<Value>,
}

/// Per-stage wall-clock time. Non-deterministic; human summary only.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WallTimes {
    /// Sum of all stage wall times, in nanoseconds.
    pub total_nanos: u64,
    /// Stage name → wall nanoseconds.
    pub stages: BTreeMap<String, u64>,
}

/// A full run report: deterministic section plus wall-clock section.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The byte-stable section written by `--report`.
    pub deterministic: DeterministicReport,
    /// Wall-clock timings for the human summary.
    pub wall: WallTimes,
}

impl RunReport {
    /// Builds a report from a collector snapshot, splitting stage stats
    /// into deterministic counts and wall times.
    pub fn from_collector(collector: &Collector) -> Self {
        let mut deterministic = DeterministicReport {
            schema_version: SCHEMA_VERSION,
            meta: BTreeMap::new(),
            counters: collector.counters.clone(),
            gauges: collector.gauges.clone(),
            histograms: collector.histograms.clone(),
            stages: BTreeMap::new(),
            quality: None,
        };
        let mut wall = WallTimes::default();
        for (name, stats) in &collector.stages {
            deterministic
                .stages
                .insert(name.clone(), StageCounts { calls: stats.calls, items: stats.items });
            wall.stages.insert(name.clone(), stats.wall_nanos);
            wall.total_nanos = wall.total_nanos.saturating_add(stats.wall_nanos);
        }
        RunReport { deterministic, wall }
    }

    /// Records a metadata entry in the deterministic section. Callers must
    /// not put schedule-dependent values (thread counts, timestamps) here.
    pub fn set_meta(&mut self, key: &str, value: Value) {
        self.deterministic.meta.insert(key.to_string(), value);
    }

    /// Attaches the data-quality payload to the deterministic section.
    pub fn set_quality(&mut self, quality: Value) {
        self.deterministic.quality = Some(quality);
    }

    /// The deterministic section as pretty-printed JSON — the exact bytes
    /// `--report PATH` writes (plus a trailing newline at the call site).
    pub fn deterministic_json(&self) -> String {
        serde_json::to_string_pretty(&self.deterministic).expect("report is serializable")
    }

    /// A human-readable multi-line summary including wall times, suitable
    /// for stderr. Never written to the report file.
    pub fn human_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("== run report ==\n");
        for (key, value) in &self.deterministic.meta {
            let rendered =
                serde_json::to_string(value).unwrap_or_else(|_| "<unserializable>".to_string());
            out.push_str(&format!("  {key}: {rendered}\n"));
        }
        if !self.deterministic.stages.is_empty() {
            out.push_str("  stages (calls / items / wall):\n");
            for (name, counts) in &self.deterministic.stages {
                let nanos = self.wall.stages.get(name).copied().unwrap_or(0);
                out.push_str(&format!(
                    "    {name:<28} {:>6} / {:>10} / {:>10}\n",
                    counts.calls,
                    counts.items,
                    format_nanos(nanos)
                ));
            }
            out.push_str(&format!(
                "    {:<28} {:>6}   {:>10}   {:>10}\n",
                "total",
                "",
                "",
                format_nanos(self.wall.total_nanos)
            ));
        }
        if !self.deterministic.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, value) in &self.deterministic.counters {
                out.push_str(&format!("    {name:<28} {value}\n"));
            }
        }
        if !self.deterministic.gauges.is_empty() {
            out.push_str("  gauges:\n");
            for (name, value) in &self.deterministic.gauges {
                out.push_str(&format!("    {name:<28} {value}\n"));
            }
        }
        if !self.deterministic.histograms.is_empty() {
            out.push_str("  histograms (count / mean / min / max):\n");
            for (name, hist) in &self.deterministic.histograms {
                out.push_str(&format!(
                    "    {name:<28} {} / {:.2} / {} / {}\n",
                    hist.count,
                    hist.mean(),
                    hist.min,
                    hist.max
                ));
            }
        }
        out
    }
}

/// Formats nanoseconds as a short human duration.
fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_collector() -> Collector {
        let mut c = Collector::new();
        c.incr("tickets.total", 42);
        c.set_gauge("quality.drop_fraction", 0.125);
        c.observe("tree.depth", 9);
        c.record_stage("dcsim.generate", 42, 1_500_000);
        c.record_stage("experiment.f18", 1, 3_000_000);
        c
    }

    #[test]
    fn wall_times_are_split_out_of_the_deterministic_section() {
        let report = RunReport::from_collector(&sample_collector());
        assert_eq!(report.wall.stages["dcsim.generate"], 1_500_000);
        assert_eq!(report.wall.total_nanos, 4_500_000);
        assert_eq!(
            report.deterministic.stages["dcsim.generate"],
            StageCounts { calls: 1, items: 42 }
        );
        // The serialized deterministic section must not mention wall time.
        assert!(!report.deterministic_json().contains("nanos"));
    }

    #[test]
    fn deterministic_json_is_independent_of_wall_times() {
        let mut a = sample_collector();
        let mut b = sample_collector();
        a.record_stage("extra", 0, 999_999);
        b.record_stage("extra", 0, 1);
        let ra = RunReport::from_collector(&a);
        let rb = RunReport::from_collector(&b);
        assert_eq!(ra.deterministic_json(), rb.deterministic_json());
        assert_ne!(ra.wall, rb.wall);
    }

    #[test]
    fn report_roundtrips_through_serde() {
        let mut report = RunReport::from_collector(&sample_collector());
        report.set_meta("seed", Value::U64(7));
        report.set_quality(Value::Object(vec![("rows_dropped".to_string(), Value::U64(3))]));
        let value = serde::Serialize::to_value(&report);
        let back: RunReport = serde::Deserialize::from_value(&value).expect("roundtrip");
        assert_eq!(report, back);
    }

    #[test]
    fn human_summary_mentions_stages_and_counters() {
        let mut report = RunReport::from_collector(&sample_collector());
        report.set_meta("scale", Value::Str("small".to_string()));
        let text = report.human_summary();
        assert!(text.contains("dcsim.generate"));
        assert!(text.contains("tickets.total"));
        assert!(text.contains("quality.drop_fraction"));
        assert!(text.contains("scale"));
    }
}
