//! A miniature relational table store.
//!
//! BIM and SIM models are usually *exported* to relational databases —
//! "there is a database for each building … and for each distribution
//! network". This module provides the relational substrate those exports
//! land in: typed schemas, validated inserts and row scans. The
//! Database-proxy reads tables through this API and translates rows into
//! the common data format.

use std::fmt;

use crate::StorageError;
use dimmer_core::Value;

/// The type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An integer cell.
    Int(i64),
    /// A float cell.
    Float(f64),
    /// A text cell.
    Text(String),
    /// A boolean cell.
    Bool(bool),
    /// SQL-style NULL (allowed in any column).
    Null,
}

impl Cell {
    /// Whether the cell is admissible in a column of `ty`.
    pub(crate) fn fits(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Cell::Int(_), ColumnType::Int)
                | (Cell::Float(_), ColumnType::Float)
                | (Cell::Text(_), ColumnType::Text)
                | (Cell::Bool(_), ColumnType::Bool)
                | (Cell::Null, _)
        )
    }

    /// Translates the cell into the common data format.
    pub(crate) fn to_value(&self) -> Value {
        match self {
            Cell::Int(i) => Value::Int(*i),
            Cell::Float(f) => Value::Float(*f),
            Cell::Text(s) => Value::Str(s.clone()),
            Cell::Bool(b) => Value::Bool(*b),
            Cell::Null => Value::Null,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Int(i) => write!(f, "{i}"),
            Cell::Float(x) => write!(f, "{x}"),
            Cell::Text(s) => write!(f, "{s}"),
            Cell::Bool(b) => write!(f, "{b}"),
            Cell::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_owned())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

impl From<bool> for Cell {
    fn from(v: bool) -> Self {
        Cell::Bool(v)
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// The column name.
    pub name: String,
    /// The column type.
    pub(crate) ty: ColumnType,
}

impl Column {
    /// Creates a column definition.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// A typed in-memory table.
///
/// ```
/// use storage::table::{Table, Column, ColumnType};
/// # fn main() -> Result<(), storage::StorageError> {
/// let mut rooms = Table::new("rooms", vec![
///     Column::new("id", ColumnType::Text),
///     Column::new("floor", ColumnType::Int),
///     Column::new("area_m2", ColumnType::Float),
/// ]);
/// rooms.insert(vec!["r1".into(), 2.into(), 24.5.into()])?;
/// rooms.insert(vec!["r2".into(), 2.into(), 18.0.into()])?;
/// assert_eq!(rooms.scan().count(), 2);
/// assert!(rooms.insert(vec!["r3".into()]).is_err(), "arity is checked");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or contains duplicate names.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            assert!(seen.insert(&c.name), "duplicate column {:?}", c.name);
        }
        Table {
            name: name.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// The position of a column by name.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnknownColumn`] when absent.
    pub fn column_index(&self, name: &str) -> Result<usize, StorageError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_owned(),
            })
    }

    /// Inserts a row after validating it against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::SchemaMismatch`] on arity or type errors.
    pub fn insert(&mut self, row: Vec<Cell>) -> Result<(), StorageError> {
        if row.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch {
                table: self.name.clone(),
                reason: format!("expected {} cells, got {}", self.columns.len(), row.len()),
            });
        }
        for (cell, col) in row.iter().zip(&self.columns) {
            if !cell.fits(col.ty) {
                return Err(StorageError::SchemaMismatch {
                    table: self.name.clone(),
                    reason: format!("cell {cell} does not fit column {:?}", col.name),
                });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// The rows in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = &[Cell]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// Translates a row into a common-data-format object keyed by column
    /// names.
    pub(crate) fn row_to_value(&self, row: &[Cell]) -> Value {
        Value::object(
            self.columns
                .iter()
                .zip(row)
                .map(|(c, cell)| (c.name.as_str(), cell.to_value())),
        )
    }

    /// Translates the whole table: `{name, columns, rows: [...]}`.
    pub fn to_value(&self) -> Value {
        Value::object([
            ("name", Value::from(self.name.as_str())),
            (
                "columns",
                Value::Array(
                    self.columns
                        .iter()
                        .map(|c| Value::from(c.name.as_str()))
                        .collect(),
                ),
            ),
            (
                "rows",
                Value::Array(self.rows.iter().map(|r| self.row_to_value(r)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rooms() -> Table {
        let mut t = Table::new(
            "rooms",
            vec![
                Column::new("id", ColumnType::Text),
                Column::new("floor", ColumnType::Int),
                Column::new("area", ColumnType::Float),
                Column::new("heated", ColumnType::Bool),
            ],
        );
        t.insert(vec!["r1".into(), 1.into(), 20.0.into(), true.into()])
            .unwrap();
        t.insert(vec!["r2".into(), 1.into(), 35.5.into(), false.into()])
            .unwrap();
        t.insert(vec!["r3".into(), 2.into(), 12.0.into(), true.into()])
            .unwrap();
        t.insert(vec!["r4".into(), 2.into(), Cell::Null, true.into()])
            .unwrap();
        t
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut t = rooms();
        assert!(t.insert(vec!["r5".into()]).is_err());
        assert!(t
            .insert(vec!["r5".into(), "one".into(), 1.0.into(), true.into()])
            .is_err());
        assert!(t
            .insert(vec![Cell::Null, Cell::Null, Cell::Null, Cell::Null])
            .is_ok());
    }

    #[test]
    fn row_to_value_translation() {
        let t = rooms();
        let v = t.row_to_value(t.scan().next().unwrap());
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("floor").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("heated").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn table_to_value_shape() {
        let t = rooms();
        let v = t.to_value();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("rooms"));
        assert_eq!(v.require_array("table", "rows").unwrap().len(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Int),
                Column::new("a", ColumnType::Int),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_schema_rejected() {
        Table::new("t", vec![]);
    }
}
