//! Error type shared by the statistics routines.

use std::fmt;

/// Errors produced by statistics routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample set was empty but the operation needs data.
    Empty,
    /// Two paired inputs had different lengths.
    MismatchedLengths {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// A parameter was outside its valid domain (e.g. a percentile > 100).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
    /// An input contained a non-finite value (NaN or infinity).
    NonFinite,
    /// An encoded state record failed a decoding check (see
    /// [`crate::state`]).
    Corrupt {
        /// The check that failed.
        what: &'static str,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "empty input"),
            StatsError::MismatchedLengths { left, right } => {
                write!(f, "mismatched input lengths: {left} vs {right}")
            }
            StatsError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            StatsError::NonFinite => write!(f, "input contains a non-finite value"),
            StatsError::Corrupt { what } => write!(f, "corrupt state record: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        assert_eq!(StatsError::Empty.to_string(), "empty input");
        assert_eq!(
            StatsError::MismatchedLengths { left: 3, right: 4 }.to_string(),
            "mismatched input lengths: 3 vs 4"
        );
        assert_eq!(
            StatsError::InvalidParameter {
                what: "q in [0, 1]"
            }
            .to_string(),
            "invalid parameter: q in [0, 1]"
        );
        assert_eq!(
            StatsError::NonFinite.to_string(),
            "input contains a non-finite value"
        );
    }
}
