//! The protocol error type.

use std::fmt;

use dimmer_core::bytes::Truncated;

/// Errors raised by the protocol codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The byte stream ended before the frame was complete.
    Truncated {
        /// Which layer/field was being decoded.
        context: &'static str,
    },
    /// A checksum or FCS did not match.
    BadChecksum {
        /// Which checksum failed.
        context: &'static str,
        /// The expected value.
        expected: u32,
        /// The value found in the frame.
        found: u32,
    },
    /// A sync byte / magic number was wrong.
    BadSync {
        /// The byte found instead.
        found: u8,
    },
    /// A field held a value the codec does not support.
    Unsupported {
        /// Which field.
        context: &'static str,
        /// The unsupported raw value.
        value: u64,
    },
    /// The frame is syntactically valid but semantically inconsistent.
    Malformed {
        /// What is wrong.
        reason: &'static str,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { context } => {
                write!(f, "truncated frame while decoding {context}")
            }
            ProtocolError::BadChecksum {
                context,
                expected,
                found,
            } => write!(
                f,
                "bad {context} checksum: expected {expected:#x}, found {found:#x}"
            ),
            ProtocolError::BadSync { found } => {
                write!(f, "bad sync byte {found:#04x}")
            }
            ProtocolError::Unsupported { context, value } => {
                write!(f, "unsupported {context} value {value:#x}")
            }
            ProtocolError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<Truncated> for ProtocolError {
    fn from(Truncated { context }: Truncated) -> Self {
        ProtocolError::Truncated { context }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = ProtocolError::BadChecksum {
            context: "fcs",
            expected: 0xBEEF,
            found: 0xDEAD,
        };
        let text = e.to_string();
        assert!(text.contains("fcs") && text.contains("0xbeef") && text.contains("0xdead"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProtocolError>();
    }
}
