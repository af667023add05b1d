//! Fixed-width record files.
//!
//! Distribution-network (SIM) data often comes out of decades-old
//! utility systems as fixed-width text records: every line is exactly
//! the sum of its field widths, values right-padded with spaces. A
//! [`RecordLayout`] describes the fields; encode/parse convert between
//! lines and string field vectors.

use crate::StorageError;

/// One field of a fixed-width layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldSpec {
    /// Field name.
    pub name: String,
    /// Width in bytes (ASCII).
    pub(crate) width: usize,
}

impl FieldSpec {
    /// Creates a field spec.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(name: impl Into<String>, width: usize) -> Self {
        assert!(width > 0, "field width must be positive");
        FieldSpec {
            name: name.into(),
            width,
        }
    }
}

/// A fixed-width record layout.
///
/// ```
/// use storage::legacy::fixedwidth::{RecordLayout, FieldSpec};
/// # fn main() -> Result<(), storage::StorageError> {
/// let layout = RecordLayout::new(vec![
///     FieldSpec::new("node", 8),
///     FieldSpec::new("kind", 4),
///     FieldSpec::new("load_kw", 8),
/// ]);
/// let line = layout.encode_record(&["SUB-0007", "SUB", "1250.5"])?;
/// assert_eq!(line.len(), 20);
/// let records = layout.parse_document(&line)?;
/// assert_eq!(records, vec![vec!["SUB-0007", "SUB", "1250.5"]]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLayout {
    fields: Vec<FieldSpec>,
    total_width: usize,
}

impl RecordLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty.
    pub fn new(fields: Vec<FieldSpec>) -> Self {
        assert!(!fields.is_empty(), "a layout needs at least one field");
        let total_width = fields.iter().map(|f| f.width).sum();
        RecordLayout {
            fields,
            total_width,
        }
    }

    /// Encodes one record as a line (no terminator), right-padding each
    /// value with spaces.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SchemaMismatch`] if the value count is
    /// wrong, a value exceeds its width, or a value is not ASCII.
    pub fn encode_record(&self, values: &[&str]) -> Result<String, StorageError> {
        if values.len() != self.fields.len() {
            return Err(StorageError::SchemaMismatch {
                table: "fixed-width".into(),
                reason: format!(
                    "expected {} values, got {}",
                    self.fields.len(),
                    values.len()
                ),
            });
        }
        let mut out = String::with_capacity(self.total_width);
        for (value, spec) in values.iter().zip(&self.fields) {
            if !value.is_ascii() {
                return Err(StorageError::SchemaMismatch {
                    table: "fixed-width".into(),
                    reason: format!("field {:?} is not ascii", spec.name),
                });
            }
            if value.len() > spec.width {
                return Err(StorageError::SchemaMismatch {
                    table: "fixed-width".into(),
                    reason: format!(
                        "value {value:?} exceeds width {} of field {:?}",
                        spec.width, spec.name
                    ),
                });
            }
            out.push_str(value);
            for _ in value.len()..spec.width {
                out.push(' ');
            }
        }
        Ok(out)
    }

    /// Parses one line into trimmed field values.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ParseLegacy`] if the line has the wrong
    /// length or is not ASCII.
    pub(crate) fn parse_record(&self, line: &str) -> Result<Vec<String>, StorageError> {
        if !line.is_ascii() {
            return Err(StorageError::ParseLegacy {
                format: "fixed-width",
                line: 0,
                reason: "line is not ascii".into(),
            });
        }
        if line.len() != self.total_width {
            return Err(StorageError::ParseLegacy {
                format: "fixed-width",
                line: 0,
                reason: format!(
                    "line length {} does not match layout width {}",
                    line.len(),
                    self.total_width
                ),
            });
        }
        let mut out = Vec::with_capacity(self.fields.len());
        let mut pos = 0;
        for spec in &self.fields {
            let raw = &line[pos..pos + spec.width];
            out.push(raw.trim_end().to_owned());
            pos += spec.width;
        }
        Ok(out)
    }

    /// Encodes many records as a newline-terminated document.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RecordLayout::encode_record`] error.
    pub fn encode_document(&self, records: &[Vec<String>]) -> Result<String, StorageError> {
        let mut out = String::new();
        for rec in records {
            let refs: Vec<&str> = rec.iter().map(String::as_str).collect();
            out.push_str(&self.encode_record(&refs)?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a newline-separated document; blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ParseLegacy`] with the 1-based line number
    /// of the first bad record.
    pub fn parse_document(&self, text: &str) -> Result<Vec<Vec<String>>, StorageError> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            match self.parse_record(line) {
                Ok(rec) => out.push(rec),
                Err(StorageError::ParseLegacy { format, reason, .. }) => {
                    return Err(StorageError::ParseLegacy {
                        format,
                        line: i + 1,
                        reason,
                    })
                }
                Err(other) => return Err(other),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> RecordLayout {
        RecordLayout::new(vec![
            FieldSpec::new("node", 8),
            FieldSpec::new("kind", 4),
            FieldSpec::new("load", 8),
        ])
    }

    #[test]
    fn record_round_trip() {
        let l = layout();
        let line = l.encode_record(&["SUB-0007", "SUB", "1250.5"]).unwrap();
        assert_eq!(line, "SUB-0007SUB 1250.5  ");
        assert_eq!(
            l.parse_record(&line).unwrap(),
            vec!["SUB-0007", "SUB", "1250.5"]
        );
    }

    #[test]
    fn document_round_trip() {
        let l = layout();
        let records = vec![
            vec!["N1".to_owned(), "PLT".to_owned(), "90".to_owned()],
            vec!["N2".to_owned(), "CON".to_owned(), "12.5".to_owned()],
        ];
        let text = l.encode_document(&records).unwrap();
        assert_eq!(l.parse_document(&text).unwrap(), records);
    }

    #[test]
    fn blank_lines_skipped() {
        let l = layout();
        let text = format!(
            "{}\n\n{}\n",
            l.encode_record(&["A", "B", "C"]).unwrap(),
            l.encode_record(&["D", "E", "F"]).unwrap()
        );
        assert_eq!(l.parse_document(&text).unwrap().len(), 2);
    }

    #[test]
    fn wrong_length_rejected_with_line_number() {
        let l = layout();
        let good = l.encode_record(&["A", "B", "C"]).unwrap();
        let text = format!("{good}\nshort\n");
        match l.parse_document(&text).unwrap_err() {
            StorageError::ParseLegacy { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn oversized_value_rejected() {
        let l = layout();
        assert!(l.encode_record(&["WAY-TOO-LONG-NODE", "SUB", "1"]).is_err());
    }

    #[test]
    fn wrong_arity_rejected() {
        let l = layout();
        assert!(l.encode_record(&["A", "B"]).is_err());
    }

    #[test]
    fn non_ascii_rejected() {
        let l = layout();
        assert!(l.encode_record(&["é", "B", "C"]).is_err());
        assert!(l.parse_record("é                  ").is_err());
    }

    #[test]
    fn trailing_spaces_inside_values_are_trimmed() {
        let l = RecordLayout::new(vec![FieldSpec::new("a", 4)]);
        assert_eq!(l.parse_record("x   ").unwrap(), vec!["x"]);
        // Leading spaces are significant (numeric right-alignment).
        assert_eq!(l.parse_record("  1 ").unwrap(), vec!["  1"]);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        FieldSpec::new("a", 0);
    }
}
