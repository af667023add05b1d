//! The storage error type.

use std::fmt;

/// Errors raised by the storage substrates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// A row did not match the table schema.
    SchemaMismatch {
        /// The table involved.
        table: String,
        /// What was wrong.
        reason: String,
    },
    /// A referenced column does not exist.
    UnknownColumn {
        /// The table involved.
        table: String,
        /// The missing column.
        column: String,
    },
    /// A legacy-format document failed to parse.
    ParseLegacy {
        /// Which format.
        format: &'static str,
        /// Line (1-based) of the failure, 0 when not line-oriented.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// An id was already taken.
    DuplicateId {
        /// The offending id.
        id: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::SchemaMismatch { table, reason } => {
                write!(f, "row does not match schema of table {table:?}: {reason}")
            }
            StorageError::UnknownColumn { table, column } => {
                write!(f, "table {table:?} has no column {column:?}")
            }
            StorageError::ParseLegacy {
                format,
                line,
                reason,
            } => write!(f, "{format} parse error at line {line}: {reason}"),
            StorageError::DuplicateId { id } => {
                write!(f, "id {id:?} already exists")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::UnknownColumn {
            table: "bim".into(),
            column: "ghost".into(),
        };
        assert!(e.to_string().contains("bim") && e.to_string().contains("ghost"));
    }
}
