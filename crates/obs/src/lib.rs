//! `rainshine-obs` — deterministic observability for the rainshine
//! pipeline.
//!
//! Three layers:
//!
//! * [`Collector`] — the owned metric store (counters, gauges, log₂
//!   histograms, per-stage call/item/wall-time stats), all `BTreeMap`s so
//!   iteration is key-ordered.
//! * [`Obs`] — the handle threaded through `dcsim`, `conformance`, and
//!   the experiment driver. Disabled handles are free (no lock, no clock
//!   read).
//! * [`RunReport`] — the rollup. Its serialized deterministic section
//!   (written by `--report PATH`) is byte-identical for a fixed seed at
//!   any `Parallelism` setting; wall-clock timings live in a separate
//!   section rendered only to the stderr human summary.

mod collector;
mod handle;
mod report;

pub use collector::{Collector, Histogram, StageStats};
pub use handle::{Obs, Span};
pub use report::{DeterministicReport, RunReport, StageCounts, WallTimes, SCHEMA_VERSION};
