//! Error type for the client layer.

use oc_serve::proto::{ProtoError, Response};
use std::fmt;

/// Errors produced by [`crate::Client`] and the load generator.
#[derive(Debug)]
pub enum ClientError {
    /// A configuration value was outside its valid domain.
    Config(String),
    /// A terminal socket error (transient ones are retried internally).
    Io(std::io::Error),
    /// The server sent a line the protocol cannot parse.
    Proto(ProtoError),
    /// The server answered, but not with the response the call expects
    /// (e.g. `ERR shutdown` to an `OBSERVE`).
    Server {
        /// The verb the call expected.
        expected: &'static str,
        /// The response actually received, encoded.
        got: String,
    },
    /// The retry budget ran out.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// Description of the last failure.
        last: String,
    },
    /// A trace-generation error (load generator).
    Trace(oc_trace::TraceError),
}

impl ClientError {
    /// Builds the [`ClientError::Server`] variant from the offending
    /// response.
    pub fn unexpected(expected: &'static str, got: &Response) -> ClientError {
        ClientError::Server {
            expected,
            got: got.encode(),
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Config(what) => write!(f, "invalid client config: {what}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { expected, got } => {
                write!(f, "expected {expected} response, got `{got}`")
            }
            ClientError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "retry budget exhausted after {attempts} attempts: {last}"
                )
            }
            ClientError::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Proto(e) => Some(e),
            ClientError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<oc_trace::TraceError> for ClientError {
    fn from(e: oc_trace::TraceError) -> Self {
        ClientError::Trace(e)
    }
}
