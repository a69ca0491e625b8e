//! Generative datacenter fleet simulator.
//!
//! The paper analyzes 2.5 years of proprietary telemetry from two production
//! cloud datacenters. That data cannot be shipped, so this crate builds the
//! closest synthetic equivalent: a seeded, deterministic generator whose
//! **ground-truth hazard model embeds the same multi-factor effect
//! structure** the paper reports (see `DESIGN.md` §3), producing the same
//! artifacts the paper's analysis consumes — a fleet inventory, RMA tickets
//! (Table II taxonomy), and per-rack environmental telemetry.
//!
//! Subsystems:
//!
//! * [`config`] — fleet scale, observation span, hazard knobs;
//! * [`sku`] — the S1–S7 hardware catalog (composition, reliability, cost);
//! * [`workload`] — the W1–W7 workload catalog (component stress profiles);
//! * [`climate`] — site weather models (warm-dry vs temperate-humid) with
//!   hash-based deterministic noise;
//! * [`cooling`] — adiabatic vs chilled-water transfer functions from
//!   outdoor weather to rack-inlet temperature / relative humidity;
//! * [`environment`] — the per-(DC, region, hour) environment sampler;
//! * [`topology`] — fleet construction with the paper's confounded
//!   placement (compute SKUs concentrated in the hot DC, etc.);
//! * [`hazard`] — the multi-factor hardware hazard model (bathtub age, SKU,
//!   workload, power density, day-of-week, season, temperature/humidity
//!   thresholds, region, per-rack frailty);
//! * [`tickets`] — RMA ticket generation (hardware via non-homogeneous
//!   Poisson sampling; software/boot/other matched to Table II shares;
//!   repair times; false-positive injection);
//! * [`corruption`] — seeded dirty-data injection (duplicate / inverted /
//!   skewed / mislabeled / censored tickets, sensor spikes and blackouts);
//! * [`simulation`] — the top-level [`simulation::Simulation`] driver.
//!
//! # Example
//!
//! ```
//! use rainshine_dcsim::{FleetConfig, Simulation};
//!
//! let output = Simulation::new(FleetConfig::small(), 7).run();
//! assert!(!output.tickets.is_empty());
//! // Same seed, same tickets.
//! let again = Simulation::new(FleetConfig::small(), 7).run();
//! assert_eq!(output.tickets.len(), again.tickets.len());
//! ```

pub mod climate;
pub mod config;
pub mod cooling;
pub mod corruption;
pub mod environment;
pub mod hazard;
pub mod simulation;
pub mod sku;
pub mod tickets;
pub mod topology;
pub mod workload;

mod error;

pub use config::{FleetConfig, Scale};
pub use corruption::CorruptionConfig;
pub use error::SimError;
pub use simulation::{Simulation, SimulationOutput};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
