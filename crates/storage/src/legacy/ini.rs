//! INI configuration documents.
//!
//! Facility-management metadata (commissioning data, device inventories)
//! commonly ships as INI files: `[section]` headers followed by
//! `key = value` pairs, `#`/`;` comments. Sections and keys preserve
//! insertion order within a section; duplicate keys keep the last value.

use std::collections::BTreeMap;

use crate::StorageError;

/// A parsed INI document: section name → (key → value).
///
/// Keys before any section header land in the `""` (global) section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IniDocument {
    sections: BTreeMap<String, BTreeMap<String, String>>,
}

impl IniDocument {
    /// Creates an empty document.
    pub fn new() -> Self {
        IniDocument::default()
    }

    /// Sets `key` in `section` (creating the section), returning the old
    /// value.
    pub fn set(
        &mut self,
        section: impl Into<String>,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> Option<String> {
        self.sections
            .entry(section.into())
            .or_default()
            .insert(key.into(), value.into())
    }

    /// Serializes the document.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        if let Some(global) = self.sections.get("") {
            for (k, v) in global {
                out.push_str(k);
                out.push_str(" = ");
                out.push_str(v);
                out.push('\n');
            }
        }
        for (name, kv) in &self.sections {
            if name.is_empty() {
                continue;
            }
            out.push('[');
            out.push_str(name);
            out.push_str("]\n");
            for (k, v) in kv {
                out.push_str(k);
                out.push_str(" = ");
                out.push_str(v);
                out.push('\n');
            }
        }
        out
    }

    /// Parses INI text.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::ParseLegacy`] on malformed section headers
    /// or lines without `=`.
    pub fn parse(text: &str) -> Result<Self, StorageError> {
        let mut doc = IniDocument::new();
        let mut current = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            if let Some(stripped) = line.strip_prefix('[') {
                let Some(name) = stripped.strip_suffix(']') else {
                    return Err(StorageError::ParseLegacy {
                        format: "ini",
                        line: i + 1,
                        reason: "unterminated section header".into(),
                    });
                };
                let name = name.trim();
                if name.is_empty() {
                    return Err(StorageError::ParseLegacy {
                        format: "ini",
                        line: i + 1,
                        reason: "empty section name".into(),
                    });
                }
                current = name.to_owned();
                doc.sections.entry(current.clone()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(StorageError::ParseLegacy {
                    format: "ini",
                    line: i + 1,
                    reason: "expected key = value".into(),
                });
            };
            let key = key.trim();
            if key.is_empty() {
                return Err(StorageError::ParseLegacy {
                    format: "ini",
                    line: i + 1,
                    reason: "empty key".into(),
                });
            }
            doc.set(current.clone(), key, value.trim());
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut doc = IniDocument::new();
        doc.set("", "site", "turin-north");
        doc.set("building.b1", "bim_db", "bim_b1.tbl");
        doc.set("building.b1", "floors", "4");
        doc.set("network.dh1", "sim_db", "dh1.dat");
        let text = doc.encode();
        assert_eq!(IniDocument::parse(&text).unwrap(), doc);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let doc = IniDocument::parse("# comment\n; another\n\n[s]\n  key = value with spaces  \n")
            .unwrap();
        assert_eq!(doc.sections["s"]["key"], "value with spaces");
    }

    #[test]
    fn global_section() {
        let doc = IniDocument::parse("top = 1\n[s]\nk = 2\n").unwrap();
        assert_eq!(doc.sections[""]["top"], "1");
        assert_eq!(doc.sections["s"]["k"], "2");
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let doc = IniDocument::parse("[s]\nk = 1\nk = 2\n").unwrap();
        assert_eq!(doc.sections["s"]["k"], "2");
        assert_eq!(doc.sections["s"].len(), 1);
    }

    #[test]
    fn values_may_contain_equals() {
        let doc = IniDocument::parse("[s]\nuri = sim://n1/path?a=b\n").unwrap();
        assert_eq!(doc.sections["s"]["uri"], "sim://n1/path?a=b");
    }

    #[test]
    fn malformed_rejected_with_line() {
        for (text, bad_line) in [
            ("[unterminated\n", 1),
            ("[]\n", 1),
            ("[s]\nno-equals\n", 2),
            ("[s]\n= novalue\n", 2),
        ] {
            match IniDocument::parse(text).unwrap_err() {
                StorageError::ParseLegacy { line, .. } => {
                    assert_eq!(line, bad_line, "{text:?}")
                }
                other => panic!("unexpected {other}"),
            }
        }
    }

    #[test]
    fn empty_sections_survive() {
        let doc = IniDocument::parse("[empty]\n").unwrap();
        assert!(doc.sections["empty"].is_empty());
    }

    #[test]
    fn iteration_is_sorted() {
        let doc = IniDocument::parse("[z]\nk=1\n[a]\nb=2\nc=3\n").unwrap();
        assert_eq!(doc.sections.keys().collect::<Vec<_>>(), vec!["a", "z"]);
        assert_eq!(
            doc.sections["a"].iter().collect::<Vec<_>>(),
            vec![
                (&"b".to_owned(), &"2".to_owned()),
                (&"c".to_owned(), &"3".to_owned())
            ]
        );
    }
}
