use std::error::Error;
use std::fmt;

/// Error type for statistical computations.
///
/// Every fallible public function in this crate returns [`StatsError`] via
/// the crate-level [`Result`](crate::Result) alias.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The input sample was empty where at least one observation is needed.
    EmptyInput,
    /// The input contained a NaN where only finite values are valid.
    NonFiniteInput {
        /// Index of the first offending observation.
        index: usize,
    },
    /// A probability-like argument fell outside `[0, 1]`.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// A distribution parameter was outside its valid domain.
    InvalidParameter {
        /// Parameter name, e.g. `"lambda"`.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Two paired samples had different lengths.
    LengthMismatch {
        /// Length of the first sample.
        left: usize,
        /// Length of the second sample.
        right: usize,
    },
    /// A histogram or contingency dimension was degenerate (zero bins/rows).
    DegenerateDimension {
        /// Human-readable description of the degenerate dimension.
        what: &'static str,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input sample was empty"),
            StatsError::NonFiniteInput { index } => {
                write!(f, "non-finite value at index {index}")
            }
            StatsError::InvalidProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            StatsError::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` has invalid value {value}")
            }
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired samples have mismatched lengths {left} and {right}")
            }
            StatsError::DegenerateDimension { what } => {
                write!(f, "degenerate dimension: {what}")
            }
        }
    }
}

impl Error for StatsError {}

/// Validates that every value in `data` is finite.
pub(crate) fn ensure_finite(data: &[f64]) -> crate::Result<()> {
    for (index, v) in data.iter().enumerate() {
        if !v.is_finite() {
            return Err(StatsError::NonFiniteInput { index });
        }
    }
    Ok(())
}

/// Validates that `data` is non-empty and finite.
pub(crate) fn ensure_sample(data: &[f64]) -> crate::Result<()> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    ensure_finite(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let msgs = [
            StatsError::EmptyInput.to_string(),
            StatsError::NonFiniteInput { index: 3 }.to_string(),
            StatsError::InvalidProbability { value: 1.5 }.to_string(),
            StatsError::InvalidParameter { name: "lambda", value: -1.0 }.to_string(),
            StatsError::LengthMismatch { left: 2, right: 3 }.to_string(),
            StatsError::DegenerateDimension { what: "zero bins" }.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'));
            assert!(m.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn ensure_sample_rejects_empty_and_nan() {
        assert_eq!(ensure_sample(&[]), Err(StatsError::EmptyInput));
        assert_eq!(ensure_sample(&[1.0, f64::NAN]), Err(StatsError::NonFiniteInput { index: 1 }));
        assert!(ensure_sample(&[1.0, 2.0]).is_ok());
    }
}
