//! Statistical conformance harness for the rainshine pipeline.
//!
//! The simulator plants known multi-factor effect structure (DESIGN.md §3);
//! the analyses claim to recover it. This crate turns that claim into a
//! machine-checked contract with two layers:
//!
//! * [`scenario`] — declarative, serde-serializable [`scenario::Scenario`]
//!   specs (checked in under `scenarios/*.json`) that plant or ablate
//!   individual ground-truth effects in a
//!   [`rainshine_dcsim::FleetConfig`] and state what each analysis must
//!   (or must not) find, with explicit tolerance envelopes.
//! * [`power`] — a multi-seed runner that evaluates every claim across a
//!   seed sweep via `rainshine-parallel`, reporting per-claim recovery
//!   rates and effect-size quartiles (Q1/Q2/Q3). Test tolerances become
//!   *derived* envelopes ("the 78 °F split is found in ≥ 18/20 seeds")
//!   instead of hand-tuned per-seed constants.
//!
//! [`report::ConformanceReport`] aggregates both with the same
//! deterministic/wall split as [`rainshine_obs::RunReport`]: the
//! deterministic section is byte-identical across thread counts and is
//! what `rainshine conformance` gates against a committed baseline.

pub mod error;
pub mod eval;
pub mod power;
pub mod report;
pub mod scenario;

pub use error::{ConformanceError, Result};
// Re-exported so downstream tests can drive the runner without depending
// on the parallel/obs crates directly.
pub use eval::{Measurement, SeedRun};
pub use power::{run_scenario, ClaimOutcome, ScenarioOutcome};
pub use rainshine_obs::Obs;
pub use rainshine_parallel::Parallelism;
pub use report::ConformanceReport;
pub use scenario::{CartSpec, Claim, ClaimSpec, EffectToggles, Expect, Scenario};
