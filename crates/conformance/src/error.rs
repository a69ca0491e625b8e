//! Typed errors for the conformance harness.

use std::error::Error;
use std::fmt;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ConformanceError>;

/// Everything that can go wrong loading a scenario or running the harness.
#[derive(Debug)]
pub enum ConformanceError {
    /// A scenario file or value failed validation.
    InvalidScenario {
        /// What was wrong.
        what: String,
    },
    /// A scenario or report failed to parse.
    Parse(String),
    /// The scenario's fleet configuration was rejected by the simulator.
    Sim(rainshine_dcsim::SimError),
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::InvalidScenario { what } => write!(f, "invalid scenario: {what}"),
            ConformanceError::Parse(what) => write!(f, "parse error: {what}"),
            ConformanceError::Sim(e) => write!(f, "simulator rejected scenario config: {e}"),
        }
    }
}

impl Error for ConformanceError {}

impl From<rainshine_dcsim::SimError> for ConformanceError {
    fn from(e: rainshine_dcsim::SimError) -> Self {
        ConformanceError::Sim(e)
    }
}
