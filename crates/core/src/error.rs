use std::error::Error;
use std::fmt;

/// Error type for the analysis framework.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// An underlying telemetry (table/schema) error.
    Telemetry(rainshine_telemetry::TelemetryError),
    /// An underlying CART error.
    Cart(rainshine_cart::CartError),
    /// An underlying statistics error.
    Stats(rainshine_stats::StatsError),
    /// The requested analysis had no observations to work with.
    NoData {
        /// What was empty.
        what: String,
    },
    /// An analysis parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Telemetry(e) => write!(f, "telemetry error: {e}"),
            AnalysisError::Cart(e) => write!(f, "cart error: {e}"),
            AnalysisError::Stats(e) => write!(f, "statistics error: {e}"),
            AnalysisError::NoData { what } => write!(f, "no data: {what}"),
            AnalysisError::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` has invalid value {value}")
            }
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Telemetry(e) => Some(e),
            AnalysisError::Cart(e) => Some(e),
            AnalysisError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rainshine_telemetry::TelemetryError> for AnalysisError {
    fn from(e: rainshine_telemetry::TelemetryError) -> Self {
        AnalysisError::Telemetry(e)
    }
}

impl From<rainshine_cart::CartError> for AnalysisError {
    fn from(e: rainshine_cart::CartError) -> Self {
        AnalysisError::Cart(e)
    }
}

impl From<rainshine_stats::StatsError> for AnalysisError {
    fn from(e: rainshine_stats::StatsError) -> Self {
        AnalysisError::Stats(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: AnalysisError = rainshine_stats::StatsError::EmptyInput.into();
        assert!(Error::source(&e).is_some());
        let e: AnalysisError = rainshine_cart::CartError::EmptyDataset.into();
        assert!(e.to_string().contains("cart"));
        let e = AnalysisError::NoData { what: "W1 racks".into() };
        assert!(e.to_string().contains("W1"));
    }
}
