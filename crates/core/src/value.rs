//! The dynamic value tree of the common data format.
//!
//! Every proxy translates its source representation into a [`Value`];
//! the [`json`](crate::json) and [`xml`](crate::xml) codecs serialize it.
//! `Value` mirrors the JSON data model (null, bool, integer/float, string,
//! array, object) with objects keeping deterministic (sorted) key order so
//! encodings are reproducible.

use std::collections::BTreeMap;
use std::fmt;

use crate::CoreError;

/// A dynamically typed value in the common data format.
///
/// ```
/// use dimmer_core::Value;
/// let v = Value::object([
///     ("name", Value::from("building-7")),
///     ("floors", Value::from(4)),
///     ("heated", Value::from(true)),
/// ]);
/// assert_eq!(v.get("floors").and_then(Value::as_i64), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The absent value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float. Never NaN (constructors reject it).
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// A key-sorted map.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K, I>(pairs: I) -> Value
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, Value)>,
    {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// The member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// Follows a `/`-separated path of object keys and array indices.
    ///
    /// ```
    /// use dimmer_core::Value;
    /// let v = Value::object([("rooms", Value::array([Value::from("r1")]))]);
    /// assert_eq!(v.pointer("rooms/0").and_then(Value::as_str), Some("r1"));
    /// ```
    pub fn pointer(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = match cur {
                Value::Object(map) => map.get(seg)?,
                Value::Array(items) => items.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an integer (exact floats included).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// This value as a float (integers widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// This value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// True for `Value::Null`.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Required-member accessor used when decoding structured types.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] naming `target` when the member is
    /// absent or `self` is not an object.
    pub fn require(&self, target: &'static str, key: &str) -> Result<&Value, CoreError> {
        self.get(key).ok_or_else(|| CoreError::Shape {
            target,
            reason: format!("missing member {key:?}"),
        })
    }

    /// Required string member.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if absent or not a string.
    pub fn require_str(&self, target: &'static str, key: &str) -> Result<&str, CoreError> {
        self.require(target, key)?
            .as_str()
            .ok_or_else(|| CoreError::Shape {
                target,
                reason: format!("member {key:?} is not a string"),
            })
    }

    /// Required numeric member.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if absent or not numeric.
    pub fn require_f64(&self, target: &'static str, key: &str) -> Result<f64, CoreError> {
        self.require(target, key)?
            .as_f64()
            .ok_or_else(|| CoreError::Shape {
                target,
                reason: format!("member {key:?} is not a number"),
            })
    }

    /// Required integer member.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if absent or not an integer.
    pub fn require_i64(&self, target: &'static str, key: &str) -> Result<i64, CoreError> {
        self.require(target, key)?
            .as_i64()
            .ok_or_else(|| CoreError::Shape {
                target,
                reason: format!("member {key:?} is not an integer"),
            })
    }

    /// Required array member.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if absent or not an array.
    pub fn require_array(&self, target: &'static str, key: &str) -> Result<&[Value], CoreError> {
        self.require(target, key)?
            .as_array()
            .ok_or_else(|| CoreError::Shape {
                target,
                reason: format!("member {key:?} is not an array"),
            })
    }

    /// Inserts `key` into an object value, turning `Null` into an empty
    /// object first. Returns the previous value, if any.
    ///
    /// # Panics
    ///
    /// Panics if `self` is neither an object nor `Null`.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) -> Option<Value> {
        if self.is_null() {
            *self = Value::Object(BTreeMap::new());
        }
        match self {
            Value::Object(map) => map.insert(key.into(), value),
            other => panic!("cannot insert into {}", other.type_name()),
        }
    }

    /// A short name of the variant, for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    /// # Panics
    ///
    /// Panics if `f` is NaN; the common data format has no NaN.
    fn from(f: f64) -> Self {
        assert!(!f.is_nan(), "NaN cannot enter the common data format");
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<V: Into<Value>> FromIterator<V> for Value {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Value {
    /// Displays as compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::json::to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::object([
            ("id", Value::from("b1")),
            ("floors", Value::from(4)),
            ("area", Value::from(1250.5)),
            (
                "rooms",
                Value::array([Value::from("r1"), Value::from("r2")]),
            ),
            ("meta", Value::object([("heated", Value::from(true))])),
        ])
    }

    #[test]
    fn accessors() {
        let v = sample();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("b1"));
        assert_eq!(v.get("floors").and_then(Value::as_i64), Some(4));
        assert_eq!(v.get("area").and_then(Value::as_f64), Some(1250.5));
        assert_eq!(
            v.get("rooms")
                .and_then(Value::as_array)
                .and_then(|r| r.get(1))
                .and_then(Value::as_str),
            Some("r2")
        );
        assert!(v.get("nope").is_none());
        assert!(Value::Null.is_null());
    }

    #[test]
    fn pointer_paths() {
        let v = sample();
        assert_eq!(
            v.pointer("meta/heated").and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(v.pointer("rooms/0").and_then(Value::as_str), Some("r1"));
        assert!(v.pointer("rooms/7").is_none());
        assert!(v.pointer("rooms/x").is_none());
        assert_eq!(v.pointer(""), Some(&v));
    }

    #[test]
    fn int_float_bridging() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
        assert_eq!(Value::Float(3.5).as_i64(), None);
        assert_eq!(Value::Str("3".into()).as_i64(), None);
    }

    #[test]
    fn require_reports_shape_errors() {
        let v = sample();
        assert!(v.require_str("building", "id").is_ok());
        let err = v.require_str("building", "floors").unwrap_err();
        assert!(err.to_string().contains("not a string"));
        let err = v.require("building", "ghost").unwrap_err();
        assert!(err.to_string().contains("missing member"));
    }

    #[test]
    fn insert_upgrades_null() {
        let mut v = Value::Null;
        v.insert("a", Value::from(1));
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
        let old = v.insert("a", Value::from(2));
        assert_eq!(old.and_then(|o| o.as_i64()), Some(1));
    }

    #[test]
    #[should_panic(expected = "cannot insert")]
    fn insert_into_scalar_panics() {
        Value::from(1).insert("x", Value::Null);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Value::from(f64::NAN);
    }

    #[test]
    fn from_iterator_collects_array() {
        let v: Value = (1..=3).map(Value::from).collect();
        assert_eq!(v.as_array().map(<[Value]>::len), Some(3));
    }

    #[test]
    fn object_keys_sorted() {
        let v = Value::object([("z", Value::Null), ("a", Value::Null)]);
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["a", "z"]);
    }
}
