//! Error type for cluster simulation.

use std::fmt;

/// Errors produced by the cluster scheduler substrate.
#[derive(Debug)]
pub enum SchedulerError {
    /// A configuration value was outside its valid domain.
    InvalidConfig {
        /// Description of the violated constraint.
        what: String,
    },
    /// An error from the overcommit core (predictor build, statistics).
    Core(oc_core::CoreError),
    /// An error from the trace substrate (workload models).
    Trace(oc_trace::TraceError),
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::InvalidConfig { what } => write!(f, "invalid config: {what}"),
            SchedulerError::Core(e) => write!(f, "core error: {e}"),
            SchedulerError::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for SchedulerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedulerError::Core(e) => Some(e),
            SchedulerError::Trace(e) => Some(e),
            SchedulerError::InvalidConfig { .. } => None,
        }
    }
}

impl From<oc_core::CoreError> for SchedulerError {
    fn from(e: oc_core::CoreError) -> Self {
        SchedulerError::Core(e)
    }
}

impl From<oc_trace::TraceError> for SchedulerError {
    fn from(e: oc_trace::TraceError) -> Self {
        SchedulerError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = SchedulerError::InvalidConfig {
            what: "machines must be > 0".into(),
        };
        assert!(e.to_string().contains("machines"));
        assert!(e.source().is_none());
        let e = SchedulerError::from(oc_core::CoreError::InvalidConfig { what: "x".into() });
        assert!(e.source().is_some());
    }
}
