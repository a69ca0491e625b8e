use std::error::Error;
use std::fmt;

/// Error type for simulator configuration and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration field was out of its valid range.
    InvalidConfig {
        /// Field name.
        field: &'static str,
        /// Explanation of the constraint.
        reason: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { field, reason } => {
                write!(f, "invalid config `{field}`: {reason}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = SimError::InvalidConfig { field: "span", reason: "end before start" };
        assert!(e.to_string().contains("span"));
    }
}
