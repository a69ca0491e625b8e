//! The paper's multi-factor failure-analysis framework.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*"Rain or Shine? — Making Sense of Cloudy Reliability Data"*,
//! ICDCS 2017): a systematic way to answer datacenter provisioning and
//! operations questions from multi-factor failure data, contrasted against
//! conventional single-factor (SF) analyses.
//!
//! * [`dataset`] — assembles analysis tables (rack-day and rack-level rows
//!   with the Table III feature schema) from a simulation run;
//! * [`evidence`] — the Section V-B "evidence of multi-factor influence"
//!   series (failure rate by region / day-of-week / month / humidity /
//!   workload / SKU / power / age — Figs. 2–9);
//! * [`q1`] — spare provisioning (Figs. 10–13): lower-bound vs
//!   single-factor vs multi-factor, server-level and component-level,
//!   daily and hourly multiplexing;
//! * [`q2`] — SKU reliability ranking (Figs. 14–15): SF histogramming vs
//!   MF partial-dependence normalization;
//! * [`q3`] — environmental operating ranges (Figs. 16–18): temperature /
//!   relative-humidity threshold discovery per DC;
//! * [`tco`] — the total-cost-of-ownership model used for Table IV and the
//!   Q2 procurement scenarios;
//! * [`predict`] — the paper's flagged future-work extension: failure
//!   prediction with class balancing and a time-ordered train/test split;
//! * [`analyses`] — [`analyses::FleetAnalyses`], the memo that computes each
//!   of one fleet's shared tables and results once for every reader.
//!
//! # Example
//!
//! ```
//! use rainshine_dcsim::{FleetConfig, Simulation};
//! use rainshine_core::dataset::{rack_day_table, FaultFilter};
//!
//! let output = Simulation::new(FleetConfig::small(), 7).run();
//! let table = rack_day_table(&output, FaultFilter::AllHardware, 4)?;
//! assert!(table.rows() > 0);
//! # Ok::<(), rainshine_core::AnalysisError>(())
//! ```

pub mod analyses;
pub mod dataset;
pub mod evidence;
pub mod predict;
pub mod q1;
pub mod q2;
pub mod q3;
pub mod tco;

mod error;

pub use error::AnalysisError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AnalysisError>;
