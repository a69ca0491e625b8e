//! Telemetry data model for the `rainshine` workspace.
//!
//! This crate defines the vocabulary shared by the simulator
//! (`rainshine-dcsim`) and the analysis framework (`rainshine-core`):
//!
//! * [`ids`] — strongly-typed identifiers for the spatial hierarchy
//!   (datacenter → region → row → rack → server → component) plus the SKU
//!   (S1–S7) and workload (W1–W7) catalogs from Table III of the paper;
//! * [`time`] — a simulation calendar ([`time::SimTime`], hours since
//!   2012-01-01) with day-of-week / month / year decomposition and
//!   aggregation windows ([`time::TimeGranularity`]);
//! * [`rma`] — RMA failure tickets with the paper's Table II taxonomy
//!   (software / boot / hardware / other, with per-category fault types);
//! * [`frame`] — the typed columnar table ([`frame::Frame`]: continuous /
//!   nominal / ordinal columns) used as the dataset representation for
//!   CART: contiguous typed column buffers, shared category dictionaries,
//!   materialized row subsets;
//! * [`schema`] — the canonical candidate-feature schema (Table III);
//! * [`metrics`] — the paper's two failure metrics: generation rate λ and
//!   concurrent-failure count μ, at arbitrary spatial × temporal
//!   granularity;
//! * [`quality`] — robust ingestion for dirty streams: a sanitizer that
//!   dedups, repairs, or quarantines defective tickets and accounts for
//!   every row in a [`quality::DataQualityReport`].

pub mod frame;
pub mod ids;
pub mod metrics;
pub mod quality;
pub mod rma;
pub mod schema;
pub mod time;

mod error;

pub use error::TelemetryError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TelemetryError>;
