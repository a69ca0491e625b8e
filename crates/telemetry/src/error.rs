use std::error::Error;
use std::fmt;

/// Error type for telemetry data-model operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryError {
    /// A column name was not found in a table.
    UnknownColumn {
        /// The requested column name.
        name: String,
    },
    /// A column name was given twice where names must be distinct.
    DuplicateColumn {
        /// The repeated column name.
        name: String,
    },
    /// A column was accessed with the wrong feature kind.
    KindMismatch {
        /// Column name.
        name: String,
        /// The kind that was requested.
        requested: &'static str,
        /// The column's actual kind.
        actual: &'static str,
    },
    /// A row had the wrong number of values for the schema.
    RowArity {
        /// Expected number of columns.
        expected: usize,
        /// Provided number of values.
        got: usize,
    },
    /// A row value's type did not match its column's kind.
    ValueKind {
        /// Column index of the offending value.
        column: usize,
    },
    /// A nominal column held a code with no label in its dictionary.
    UnlabelledCode {
        /// Column index of the offending code.
        column: usize,
        /// The code without a label.
        code: u32,
    },
    /// A ticket interval was inverted (resolved before opened).
    InvertedInterval,
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::UnknownColumn { name } => write!(f, "unknown column `{name}`"),
            TelemetryError::DuplicateColumn { name } => write!(f, "column `{name}` named twice"),
            TelemetryError::KindMismatch { name, requested, actual } => {
                write!(f, "column `{name}` is {actual}, not {requested}")
            }
            TelemetryError::RowArity { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            TelemetryError::ValueKind { column } => {
                write!(f, "value kind mismatch at column {column}")
            }
            TelemetryError::UnlabelledCode { column, code } => {
                write!(f, "nominal code {code} at column {column} has no label")
            }
            TelemetryError::InvertedInterval => {
                write!(f, "ticket resolved before it was opened")
            }
        }
    }
}

impl Error for TelemetryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TelemetryError::UnknownColumn { name: "temp".into() };
        assert!(e.to_string().contains("temp"));
        let e = TelemetryError::KindMismatch {
            name: "sku".into(),
            requested: "continuous",
            actual: "nominal",
        };
        assert!(e.to_string().contains("nominal"));
    }
}
