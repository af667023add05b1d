//! A miniature relational table store.
//!
//! BIM and SIM models are usually *exported* to relational databases —
//! "there is a database for each building … and for each distribution
//! network". This module provides the relational substrate those exports
//! land in: typed schemas, validated inserts, predicate scans and
//! equality indexes. The Database-proxy reads tables through this API and
//! translates rows into the common data format.

use std::collections::BTreeMap;
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

/// A comparison operator in a [`Predicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than (numbers and text, lexicographic for text).
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

/// A row filter for [`Table::scan`].
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Accept every row.
    True,
    /// Compare a column against a literal; NULL never matches.
    Compare {
        /// The column name.
        column: String,
        /// The operator.
        op: CompareOp,
        /// The literal to compare against.
        literal: Cell,
    },
    /// Both sub-predicates must hold.
    And(Box<Predicate>, Box<Predicate>),
    /// Either sub-predicate must hold.
    Or(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Convenience constructor for an equality comparison.
    pub fn eq(column: impl Into<String>, literal: impl Into<Cell>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op: CompareOp::Eq,
            literal: literal.into(),
        }
    }

    /// Convenience constructor for any comparison.
    pub fn cmp(column: impl Into<String>, op: CompareOp, literal: impl Into<Cell>) -> Self {
        Predicate::Compare {
            column: column.into(),
            op,
            literal: literal.into(),
        }
    }
}

fn compare_cells(a: &Cell, b: &Cell) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Cell::Int(x), Cell::Int(y)) => Some(x.cmp(y)),
        (Cell::Float(x), Cell::Float(y)) => x.partial_cmp(y),
        (Cell::Int(x), Cell::Float(y)) => (*x as f64).partial_cmp(y),
        (Cell::Float(x), Cell::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Cell::Text(x), Cell::Text(y)) => Some(x.cmp(y)),
        (Cell::Bool(x), Cell::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// A typed in-memory table with optional equality indexes.
///
/// ```
/// use storage::table::{Table, Column, ColumnType, Cell, Predicate};
/// # fn main() -> Result<(), storage::StorageError> {
/// let mut rooms = Table::new("rooms", vec![
///     Column::new("id", ColumnType::Text),
///     Column::new("floor", ColumnType::Int),
///     Column::new("area_m2", ColumnType::Float),
/// ]);
/// rooms.insert(vec!["r1".into(), 2.into(), 24.5.into()])?;
/// rooms.insert(vec!["r2".into(), 2.into(), 18.0.into()])?;
/// let second_floor = rooms.scan(&Predicate::eq("floor", 2i64));
/// assert_eq!(second_floor.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
    /// column index -> (cell text key -> row ids)
    indexes: BTreeMap<usize, BTreeMap<String, Vec<usize>>>,
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
            indexes: BTreeMap::new(),
        }
    }

    /// Number of rows.
    #[allow(clippy::len_without_is_empty)] // nothing asks whether it is empty
    pub fn len(&self) -> usize {
        self.rows.len()
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
    pub fn insert(&mut self, row: Vec<Cell>) -> Result<usize, StorageError> {
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
        let id = self.rows.len();
        for (&col, index) in self.indexes.iter_mut() {
            index.entry(row[col].to_string()).or_default().push(id);
        }
        self.rows.push(row);
        Ok(id)
    }

    /// Builds an equality index over `column`, accelerating
    /// [`Table::lookup`].
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnknownColumn`] when absent.
    pub fn create_index(&mut self, column: &str) -> Result<(), StorageError> {
        let col = self.column_index(column)?;
        let mut index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, row) in self.rows.iter().enumerate() {
            index.entry(row[col].to_string()).or_default().push(id);
        }
        self.indexes.insert(col, index);
        Ok(())
    }

    /// Indexed equality lookup; falls back to a scan when no index exists.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::UnknownColumn`] when absent.
    pub fn lookup(&self, column: &str, literal: &Cell) -> Result<Vec<&[Cell]>, StorageError> {
        let col = self.column_index(column)?;
        if let Some(index) = self.indexes.get(&col) {
            Ok(index
                .get(&literal.to_string())
                .map(|ids| {
                    ids.iter()
                        .map(|&id| self.rows[id].as_slice())
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default())
        } else {
            Ok(self.scan(&Predicate::Compare {
                column: column.to_owned(),
                op: CompareOp::Eq,
                literal: literal.clone(),
            }))
        }
    }

    /// Returns the rows matching `predicate` in insertion order.
    /// Unknown columns in the predicate match nothing.
    pub fn scan(&self, predicate: &Predicate) -> Vec<&[Cell]> {
        self.rows
            .iter()
            .filter(|row| self.matches(row, predicate))
            .map(Vec::as_slice)
            .collect()
    }

    fn matches(&self, row: &[Cell], predicate: &Predicate) -> bool {
        match predicate {
            Predicate::True => true,
            Predicate::Compare {
                column,
                op,
                literal,
            } => {
                let Ok(col) = self.column_index(column) else {
                    return false;
                };
                let Some(ordering) = compare_cells(&row[col], literal) else {
                    return false; // NULL or cross-type: no match
                };
                match op {
                    CompareOp::Eq => ordering.is_eq(),
                    CompareOp::Ne => ordering.is_ne(),
                    CompareOp::Lt => ordering.is_lt(),
                    CompareOp::Le => ordering.is_le(),
                    CompareOp::Gt => ordering.is_gt(),
                    CompareOp::Ge => ordering.is_ge(),
                }
            }
            Predicate::And(a, b) => self.matches(row, a) && self.matches(row, b),
            Predicate::Or(a, b) => self.matches(row, a) || self.matches(row, b),
        }
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
    fn scan_with_comparisons() {
        let t = rooms();
        assert_eq!(t.scan(&Predicate::True).len(), 4);
        assert_eq!(t.scan(&Predicate::eq("floor", 1i64)).len(), 2);
        assert_eq!(
            t.scan(&Predicate::cmp("area", CompareOp::Gt, 15.0)).len(),
            2
        );
        assert_eq!(
            t.scan(&Predicate::cmp("id", CompareOp::Ge, "r3")).len(),
            2,
            "text comparisons are lexicographic"
        );
        assert_eq!(
            t.scan(&Predicate::cmp("floor", CompareOp::Ne, 1i64)).len(),
            2
        );
    }

    #[test]
    fn null_never_matches() {
        let t = rooms();
        // r4 has NULL area: neither < nor >= anything.
        assert_eq!(t.scan(&Predicate::cmp("area", CompareOp::Ge, 0.0)).len(), 3);
        assert_eq!(t.scan(&Predicate::cmp("area", CompareOp::Lt, 1e9)).len(), 3);
    }

    #[test]
    fn and_or_compose() {
        let t = rooms();
        let p = Predicate::And(
            Box::new(Predicate::eq("floor", 2i64)),
            Box::new(Predicate::eq("heated", true)),
        );
        assert_eq!(t.scan(&p).len(), 2);
        let p = Predicate::Or(
            Box::new(Predicate::eq("id", "r1")),
            Box::new(Predicate::eq("id", "r3")),
        );
        assert_eq!(t.scan(&p).len(), 2);
    }

    #[test]
    fn int_float_compare_across_types() {
        let t = rooms();
        // area compared against an int literal.
        assert_eq!(
            t.scan(&Predicate::cmp("area", CompareOp::Eq, 20i64)).len(),
            1
        );
    }

    #[test]
    fn unknown_column_in_predicate_matches_nothing() {
        let t = rooms();
        assert!(t.scan(&Predicate::eq("ghost", 1i64)).is_empty());
    }

    #[test]
    fn indexed_lookup_agrees_with_scan() {
        let mut t = rooms();
        t.create_index("floor").unwrap();
        let indexed = t.lookup("floor", &Cell::Int(2)).unwrap();
        let scanned = t.scan(&Predicate::eq("floor", 2i64));
        assert_eq!(indexed, scanned);
        // Index stays consistent across later inserts.
        t.insert(vec!["r9".into(), 2.into(), 9.0.into(), true.into()])
            .unwrap();
        assert_eq!(t.lookup("floor", &Cell::Int(2)).unwrap().len(), 3);
        // Miss returns empty.
        assert!(t.lookup("floor", &Cell::Int(99)).unwrap().is_empty());
    }

    #[test]
    fn lookup_without_index_scans() {
        let t = rooms();
        assert_eq!(t.lookup("id", &Cell::Text("r2".into())).unwrap().len(), 1);
        assert!(t.lookup("ghost", &Cell::Null).is_err());
    }

    #[test]
    fn row_to_value_translation() {
        let t = rooms();
        let rows = t.scan(&Predicate::eq("id", "r1"));
        let v = t.row_to_value(rows[0]);
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
