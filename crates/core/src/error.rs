//! The crate-wide error type.

use std::fmt;

/// Errors produced by the common data model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An identifier string violated the identifier grammar.
    InvalidId {
        /// What kind of identifier was being parsed.
        kind: &'static str,
        /// The offending input.
        input: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A URI string could not be parsed.
    InvalidUri {
        /// The offending input.
        input: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// JSON text could not be parsed.
    ParseJson {
        /// Byte offset of the failure.
        offset: usize,
        /// Why parsing failed.
        reason: String,
    },
    /// XML text could not be parsed.
    ParseXml {
        /// Byte offset of the failure.
        offset: usize,
        /// Why parsing failed.
        reason: String,
    },
    /// A decoded [`Value`](crate::Value) did not have the shape required
    /// by the target type.
    Shape {
        /// What was being decoded.
        target: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// A timestamp string could not be parsed.
    ParseTimestamp {
        /// The offending input.
        input: String,
    },
    /// An enum symbol (unit, quantity kind, …) was not recognized.
    UnknownSymbol {
        /// Which vocabulary was searched.
        vocabulary: &'static str,
        /// The unknown symbol.
        symbol: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidId {
                kind,
                input,
                reason,
            } => write!(f, "invalid {kind} identifier {input:?}: {reason}"),
            CoreError::InvalidUri { input, reason } => {
                write!(f, "invalid uri {input:?}: {reason}")
            }
            CoreError::ParseJson { offset, reason } => {
                write!(f, "json parse error at byte {offset}: {reason}")
            }
            CoreError::ParseXml { offset, reason } => {
                write!(f, "xml parse error at byte {offset}: {reason}")
            }
            CoreError::Shape { target, reason } => {
                write!(f, "value does not describe a {target}: {reason}")
            }
            CoreError::ParseTimestamp { input } => {
                write!(f, "invalid timestamp {input:?}")
            }
            CoreError::UnknownSymbol { vocabulary, symbol } => {
                write!(f, "unknown {vocabulary} symbol {symbol:?}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = CoreError::InvalidUri {
            input: "::".into(),
            reason: "missing scheme",
        };
        assert_eq!(e.to_string(), "invalid uri \"::\": missing scheme");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
