//! RFC 4180-style CSV with a header row.
//!
//! Measurement archives arrive as CSV exports. The dialect: comma
//! separator, `"` quoting with `""` escapes, first record is the header,
//! `\n` or `\r\n` record separators, fields may contain embedded
//! newlines when quoted.

use crate::StorageError;

/// A parsed CSV document: a header plus data records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CsvDocument {
    /// Column names from the header record.
    pub(crate) header: Vec<String>,
    /// Data records; every record has `header.len()` fields.
    pub records: Vec<Vec<String>>,
}

impl CsvDocument {
    /// Creates a document with the given header and no records.
    pub fn new(header: Vec<String>) -> Self {
        CsvDocument {
            header,
            records: Vec::new(),
        }
    }

    /// Appends a record.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SchemaMismatch`] when the field count does
    /// not match the header.
    pub fn push(&mut self, record: Vec<String>) -> Result<(), StorageError> {
        if record.len() != self.header.len() {
            return Err(StorageError::SchemaMismatch {
                table: "csv".into(),
                reason: format!(
                    "record has {} fields, header has {}",
                    record.len(),
                    self.header.len()
                ),
            });
        }
        self.records.push(record);
        Ok(())
    }

    /// The index of a header column.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }

    /// Serializes with minimal quoting.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        write_record(&self.header, &mut out);
        for rec in &self.records {
            write_record(rec, &mut out);
        }
        out
    }

    /// Parses CSV text.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ParseLegacy`] on unbalanced quotes or
    /// ragged records.
    pub fn parse(text: &str) -> Result<Self, StorageError> {
        let mut records: Vec<Vec<String>> = Vec::new();
        let mut record: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut chars = text.chars().peekable();
        let mut in_quotes = false;
        let mut line = 1usize;
        let mut field_open = false; // saw content or a separator on this record

        let err = |line: usize, reason: &str| StorageError::ParseLegacy {
            format: "csv",
            line,
            reason: reason.to_owned(),
        };

        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        line += 1;
                        field.push(c);
                    }
                    c => field.push(c),
                }
                continue;
            }
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(err(line, "quote inside unquoted field"));
                    }
                    in_quotes = true;
                    field_open = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                    field_open = true;
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                    line += 1;
                    field_open = false;
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                    line += 1;
                    field_open = false;
                }
                c => {
                    field.push(c);
                    field_open = true;
                }
            }
        }
        if in_quotes {
            return Err(err(line, "unterminated quoted field"));
        }
        if field_open || !field.is_empty() || !record.is_empty() {
            record.push(field);
            records.push(record);
        }
        if records.is_empty() {
            return Err(err(1, "missing header record"));
        }
        let header = records.remove(0);
        for (i, rec) in records.iter().enumerate() {
            if rec.len() != header.len() {
                return Err(err(i + 2, "record width differs from header"));
            }
        }
        Ok(CsvDocument { header, records })
    }
}

fn write_record(fields: &[String], out: &mut String) {
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if f.contains(['"', ',', '\n', '\r']) {
            out.push('"');
            for c in f.chars() {
                if c == '"' {
                    out.push('"');
                }
                out.push(c);
            }
            out.push('"');
        } else {
            out.push_str(f);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn simple_round_trip() {
        let mut doc = CsvDocument::new(strings(&["ts", "device", "value"]));
        doc.push(strings(&["100", "d1", "21.5"])).unwrap();
        doc.push(strings(&["200", "d2", "19.0"])).unwrap();
        let text = doc.encode();
        assert_eq!(CsvDocument::parse(&text).unwrap(), doc);
    }

    #[test]
    fn quoting_round_trip() {
        let mut doc = CsvDocument::new(strings(&["a", "b"]));
        doc.push(strings(&["has,comma", "has\"quote"])).unwrap();
        doc.push(strings(&["has\nnewline", ""])).unwrap();
        doc.push(strings(&["", "plain"])).unwrap();
        let text = doc.encode();
        assert_eq!(CsvDocument::parse(&text).unwrap(), doc);
    }

    #[test]
    fn crlf_accepted() {
        let doc = CsvDocument::parse("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(doc.records, vec![strings(&["1", "2"])]);
    }

    #[test]
    fn missing_trailing_newline_accepted() {
        let doc = CsvDocument::parse("a,b\n1,2").unwrap();
        assert_eq!(doc.records.len(), 1);
    }

    #[test]
    fn ragged_records_rejected() {
        assert!(CsvDocument::parse("a,b\n1\n").is_err());
        assert!(CsvDocument::parse("a,b\n1,2,3\n").is_err());
    }

    #[test]
    fn bad_quoting_rejected() {
        assert!(CsvDocument::parse("a\nfoo\"bar\n").is_err());
        assert!(CsvDocument::parse("a\n\"unterminated\n").is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(CsvDocument::parse("").is_err());
    }

    #[test]
    fn header_only_is_valid() {
        let doc = CsvDocument::parse("a,b\n").unwrap();
        assert!(doc.records.is_empty());
        assert_eq!(doc.column("b"), Some(1));
        assert_eq!(doc.column("c"), None);
    }

    #[test]
    fn push_validates_width() {
        let mut doc = CsvDocument::new(strings(&["a", "b"]));
        assert!(doc.push(strings(&["1"])).is_err());
    }

    #[test]
    fn error_reports_line() {
        let err = CsvDocument::parse("a,b\n1,2\n3\n").unwrap_err();
        match err {
            StorageError::ParseLegacy { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other}"),
        }
    }
}
