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
    /// An underlying analysis error outside claim evaluation (claim-level
    /// analysis errors are captured per-measurement instead).
    Analysis(rainshine_core::AnalysisError),
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::InvalidScenario { what } => write!(f, "invalid scenario: {what}"),
            ConformanceError::Parse(what) => write!(f, "parse error: {what}"),
            ConformanceError::Sim(e) => write!(f, "simulator rejected scenario config: {e}"),
            ConformanceError::Analysis(e) => write!(f, "analysis error: {e}"),
        }
    }
}

impl Error for ConformanceError {}

impl From<rainshine_dcsim::SimError> for ConformanceError {
    fn from(e: rainshine_dcsim::SimError) -> Self {
        ConformanceError::Sim(e)
    }
}

impl From<rainshine_core::AnalysisError> for ConformanceError {
    fn from(e: rainshine_core::AnalysisError) -> Self {
        ConformanceError::Analysis(e)
    }
}
