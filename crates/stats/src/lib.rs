//! Statistics substrate for the `rainshine` workspace.
//!
//! The paper this workspace reproduces (*"Rain or Shine? — Making Sense of
//! Cloudy Reliability Data"*, ICDCS 2017) leans on R's statistics stack for
//! its analysis. The Rust ecosystem offers no comparably complete offline
//! substitute, so this crate implements the required statistical machinery
//! from scratch:
//!
//! * the streaming mean and variance accumulator ([`running`]),
//! * empirical CDF steps and quantiles ([`ecdf`]),
//! * binning ([`hist`]),
//! * the random-variate distributions the simulator samples — Poisson,
//!   log-normal, categorical ([`dist`]),
//! * isotonic (pool-adjacent-violators) regression ([`timeseries`]).
//!
//! # Example
//!
//! ```
//! use rainshine_stats::ecdf::{quantile_interpolated, steps};
//!
//! let sample = [3.0, 1.0, 4.0, 1.0, 5.0];
//! assert_eq!(quantile_interpolated(&sample, 0.5)?, 3.0);
//! assert_eq!(steps(&sample)?[2], (4.0, 0.8));
//! # Ok::<(), rainshine_stats::StatsError>(())
//! ```

pub mod dist;
pub mod ecdf;
pub mod hist;
pub mod running;
pub mod timeseries;

mod error;

pub use error::StatsError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
