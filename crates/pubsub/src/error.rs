//! The middleware error type.

use std::fmt;

use dimmer_core::bytes::Truncated;

/// Errors raised by the publish/subscribe middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PubSubError {
    /// A topic string violated the topic grammar.
    InvalidTopic {
        /// The offending input.
        input: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A filter string violated the filter grammar.
    InvalidFilter {
        /// The offending input.
        input: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A wire packet could not be decoded.
    DecodePacket {
        /// What was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for PubSubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PubSubError::InvalidTopic { input, reason } => {
                write!(f, "invalid topic {input:?}: {reason}")
            }
            PubSubError::InvalidFilter { input, reason } => {
                write!(f, "invalid filter {input:?}: {reason}")
            }
            PubSubError::DecodePacket { reason } => {
                write!(f, "cannot decode pubsub packet: {reason}")
            }
        }
    }
}

impl std::error::Error for PubSubError {}

impl From<Truncated> for PubSubError {
    fn from(_: Truncated) -> Self {
        PubSubError::DecodePacket {
            reason: "truncated",
        }
    }
}
