//! A document store keyed by string ids.
//!
//! GIS databases store feature documents; the master node snapshots its
//! ontology as documents. This store keeps whole common-data-format
//! [`Value`]s per id with optional secondary indexes over top-level
//! fields.

use std::collections::BTreeMap;

use crate::StorageError;
use dimmer_core::Value;

/// An in-memory document database.
///
/// ```
/// use storage::document::DocumentStore;
/// use dimmer_core::Value;
/// # fn main() -> Result<(), storage::StorageError> {
/// let mut store = DocumentStore::new();
/// store.insert("b1", Value::object([("kind", Value::from("building"))]))?;
/// store.create_index("kind");
/// assert_eq!(store.find_eq("kind", &Value::from("building")).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DocumentStore {
    docs: BTreeMap<String, Value>,
    /// field name -> (encoded field value -> doc ids)
    indexes: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

fn index_key(v: &Value) -> String {
    // Compact JSON is a stable, injective encoding for index keys.
    dimmer_core::json::to_string(v)
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        DocumentStore::default()
    }

    /// Number of documents.
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Inserts a new document.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::DuplicateId`] if `id` is taken; use
    /// [`DocumentStore::upsert`] to overwrite.
    pub fn insert(&mut self, id: impl Into<String>, doc: Value) -> Result<(), StorageError> {
        let id = id.into();
        if self.docs.contains_key(&id) {
            return Err(StorageError::DuplicateId { id });
        }
        self.index_doc(&id, &doc);
        self.docs.insert(id, doc);
        Ok(())
    }

    /// Inserts or replaces a document, returning the previous one.
    pub fn upsert(&mut self, id: impl Into<String>, doc: Value) -> Option<Value> {
        let id = id.into();
        let old = self.remove(&id);
        self.index_doc(&id, &doc);
        self.docs.insert(id, doc);
        old
    }

    /// Fetches a document by id.
    pub fn get(&self, id: &str) -> Option<&Value> {
        self.docs.get(id)
    }

    /// Removes a document, returning it.
    pub fn remove(&mut self, id: &str) -> Option<Value> {
        let doc = self.docs.remove(id)?;
        for (field, index) in self.indexes.iter_mut() {
            if let Some(v) = doc.get(field) {
                if let Some(ids) = index.get_mut(&index_key(v)) {
                    ids.retain(|d| d != id);
                    if ids.is_empty() {
                        index.remove(&index_key(v));
                    }
                }
            }
        }
        Some(doc)
    }

    /// Iterates over `(id, document)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.docs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Builds a secondary index over top-level `field`.
    pub fn create_index(&mut self, field: impl Into<String>) {
        let field = field.into();
        let mut index: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (id, doc) in &self.docs {
            if let Some(v) = doc.get(&field) {
                index.entry(index_key(v)).or_default().push(id.clone());
            }
        }
        self.indexes.insert(field, index);
    }

    /// Finds documents whose top-level `field` equals `value`. Uses the
    /// secondary index when one exists, otherwise scans.
    pub fn find_eq(&self, field: &str, value: &Value) -> Vec<(&str, &Value)> {
        if let Some(index) = self.indexes.get(field) {
            index
                .get(&index_key(value))
                .map(|ids| {
                    ids.iter()
                        .filter_map(|id| self.docs.get(id).map(|d| (id.as_str(), d)))
                        .collect()
                })
                .unwrap_or_default()
        } else {
            self.iter()
                .filter(|(_, doc)| doc.get(field) == Some(value))
                .collect()
        }
    }

    fn index_doc(&mut self, id: &str, doc: &Value) {
        for (field, index) in self.indexes.iter_mut() {
            if let Some(v) = doc.get(field) {
                index.entry(index_key(v)).or_default().push(id.to_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(kind: &str, n: i64) -> Value {
        Value::object([("kind", Value::from(kind)), ("n", Value::from(n))])
    }

    #[test]
    fn insert_get_remove() {
        let mut s = DocumentStore::new();
        s.insert("a", doc("building", 1)).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.get("a").unwrap().get("n").and_then(Value::as_i64),
            Some(1)
        );
        assert!(s.insert("a", doc("building", 2)).is_err(), "duplicate id");
        let old = s.remove("a").unwrap();
        assert_eq!(old.get("n").and_then(Value::as_i64), Some(1));
        assert_eq!(s.len(), 0);
        assert!(s.remove("a").is_none());
    }

    #[test]
    fn upsert_replaces() {
        let mut s = DocumentStore::new();
        assert!(s.upsert("a", doc("x", 1)).is_none());
        let old = s.upsert("a", doc("x", 2)).unwrap();
        assert_eq!(old.get("n").and_then(Value::as_i64), Some(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn find_eq_without_index_scans() {
        let mut s = DocumentStore::new();
        s.insert("a", doc("building", 1)).unwrap();
        s.insert("b", doc("network", 2)).unwrap();
        s.insert("c", doc("building", 3)).unwrap();
        let hits = s.find_eq("kind", &Value::from("building"));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, "a");
    }

    #[test]
    fn indexed_find_agrees_with_scan_and_tracks_mutations() {
        let mut s = DocumentStore::new();
        s.insert("a", doc("building", 1)).unwrap();
        s.insert("b", doc("network", 2)).unwrap();
        s.create_index("kind");
        assert_eq!(s.find_eq("kind", &Value::from("building")).len(), 1);
        // Insert after index creation is indexed too.
        s.insert("c", doc("building", 3)).unwrap();
        assert_eq!(s.find_eq("kind", &Value::from("building")).len(), 2);
        // Remove updates the index.
        s.remove("a");
        assert_eq!(s.find_eq("kind", &Value::from("building")).len(), 1);
        // Upsert changing the field moves the doc between index buckets.
        s.upsert("c", doc("network", 3));
        assert!(s.find_eq("kind", &Value::from("building")).is_empty());
        assert_eq!(s.find_eq("kind", &Value::from("network")).len(), 2);
    }

    #[test]
    fn find_on_missing_field_is_empty() {
        let mut s = DocumentStore::new();
        s.insert("a", doc("x", 1)).unwrap();
        assert!(s.find_eq("ghost", &Value::from(1)).is_empty());
        s.create_index("ghost");
        assert!(s.find_eq("ghost", &Value::from(1)).is_empty());
    }

    #[test]
    fn iter_is_id_ordered() {
        let mut s = DocumentStore::new();
        s.insert("z", doc("x", 1)).unwrap();
        s.insert("a", doc("x", 2)).unwrap();
        let ids: Vec<&str> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec!["a", "z"]);
    }

    #[test]
    fn index_distinguishes_value_types() {
        let mut s = DocumentStore::new();
        s.insert("a", Value::object([("k", Value::from(1))]))
            .unwrap();
        s.insert("b", Value::object([("k", Value::from("1"))]))
            .unwrap();
        s.create_index("k");
        assert_eq!(s.find_eq("k", &Value::from(1)).len(), 1);
        assert_eq!(s.find_eq("k", &Value::from("1")).len(), 1);
    }
}
