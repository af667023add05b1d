//! The dynamic value tree of the common data format.
//!
//! Every proxy translates its source representation into a [`Value`];
//! the [`json`](crate::json) and [`xml`](crate::xml) codecs serialize it.
//! `Value` mirrors the JSON data model (null, bool, integer/float, string,
//! array, object) with objects keeping deterministic (sorted) key order so
//! encodings are reproducible.
//!
//! An object is a [`Map`]: its members sorted by key in one allocation of
//! exactly their size. Keys and string values are [`Text`]s, which store
//! up to 22 bytes inline. A decoded entity model is thousands of small
//! objects and short strings, so what each one costs is what a client
//! holding many models pays for.

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

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
    /// A UTF-8 string, inline when short.
    Str(Text),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// A key-sorted map.
    Object(Map),
}

// A `Map` is a boxed slice and a `Text` fits a `String`'s three words, so
// neither objects nor inline strings cost a `Value` more than a `String`
// would.
const _: () = assert!(std::mem::size_of::<Value>() == 32);
const _: () = assert!(std::mem::size_of::<Text>() == 24);

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K, I>(pairs: I) -> Value
    where
        K: Into<Text>,
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
            Value::Str(s) => Some(s.as_str()),
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
    pub fn as_object(&self) -> Option<&Map> {
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
    pub fn insert(&mut self, key: impl Into<Text>, value: Value) -> Option<Value> {
        if self.is_null() {
            *self = Value::Object(Map::default());
        }
        match self {
            Value::Object(map) => map.insert(key, value),
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
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
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

/// Texts of at most this many bytes are stored inside the [`Text`].
const INLINE: usize = 22;

/// A short string: an object member's name, a string value, an id or a
/// URI part. Up to 22 bytes live inline, longer texts in their own
/// allocation. A text derefs to, compares, orders and hashes exactly like
/// the `str` it holds, so objects sort — and encode — as they would with
/// `String` keys, and a map of ids iterates in the same order.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<str>),
}

impl Text {
    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("an inline text holds the bytes of a str"),
            Repr::Heap(s) => s,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// `head` followed by `tail`, built once: inline if the two fit,
    /// else in one allocation.
    pub(crate) fn concat(head: &str, tail: &str) -> Text {
        let len = head.len() + tail.len();
        if len > INLINE {
            return Text(Repr::Heap([head, tail].concat().into_boxed_str()));
        }
        let mut bytes = [0; INLINE];
        bytes[..head.len()].copy_from_slice(head.as_bytes());
        bytes[head.len()..len].copy_from_slice(tail.as_bytes());
        let len = u8::try_from(len).expect("an inline length fits a u8");
        Text(Repr::Inline { len, bytes })
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text::concat(s, "")
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        if s.len() <= INLINE {
            Text::from(s.as_str())
        } else {
            Text(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl From<Cow<'_, str>> for Text {
    fn from(s: Cow<'_, str>) -> Self {
        match s {
            Cow::Borrowed(s) => Text::from(s),
            Cow::Owned(s) => Text::from(s),
        }
    }
}

impl From<Text> for String {
    fn from(text: Text) -> Self {
        match text.0 {
            Repr::Heap(s) => s.into_string(),
            Repr::Inline { .. } => text.as_str().to_owned(),
        }
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    /// Byte order, as `str` and `String` order. (A derived order would
    /// put every inline text before every boxed one.)
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    /// Hashes as the `str` it holds, as `String` does.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The members of an object: sorted by key, no key twice, in one
/// allocation of exactly their size (none when empty).
///
/// Offers the part of the `BTreeMap` API that callers use, and prints
/// like a map.
#[derive(Clone, PartialEq, Default)]
pub struct Map(Box<[(Text, Value)]>);

impl Map {
    /// Sorts `members` by key and keeps the last of any repeated key.
    /// Already-sorted members (what every writer emits) cost one pass.
    pub(crate) fn from_members(mut members: Vec<(Text, Value)>) -> Map {
        if !members.is_sorted_by(|a, b| a.0 < b.0) {
            // Stable, so the members of one key stay in arrival order and
            // the last of them is what survives the dedup.
            members.sort_by(|a, b| a.0.cmp(&b.0));
            members.dedup_by(|later, kept| {
                let repeated = later.0 == kept.0;
                if repeated {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                repeated
            });
        }
        Map(members.into_boxed_slice())
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the object has no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn find(&self, key: &str) -> Result<usize, usize> {
        self.0
            .binary_search_by(|(k, _)| k.as_bytes().cmp(key.as_bytes()))
    }

    /// The value of member `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.find(key).ok().map(|i| &self.0[i].1)
    }

    /// Sets member `key`, returning its previous value. Adding a key
    /// reallocates the members to their new exact size.
    pub fn insert(&mut self, key: impl Into<Text>, value: Value) -> Option<Value> {
        let key = key.into();
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                let mut members = std::mem::take(&mut self.0).into_vec();
                members.reserve_exact(1);
                members.insert(i, (key, value));
                self.0 = members.into_boxed_slice();
                None
            }
        }
    }

    /// The members in key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Text>> FromIterator<(K, Value)> for Map {
    /// Collects members in any order; the last of a repeated key wins.
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        Map::from_members(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl IntoIterator for Map {
    type Item = (Text, Value);
    type IntoIter = std::vec::IntoIter<(Text, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a Text, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The members of a [`Map`] in key order.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (Text, Value)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a Text, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

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
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["a", "z"]);
    }

    #[test]
    fn keys_order_by_bytes_across_inline_and_boxed() {
        let long = "a".repeat(INLINE + 1);
        let keys = ["", "a", "b", long.as_str(), "é", &"z".repeat(INLINE)];
        let mut sorted: Vec<Text> = keys.iter().map(|&k| Text::from(k)).collect();
        sorted.sort();
        let mut expected = keys.map(str::to_owned);
        expected.sort();
        let got: Vec<&str> = sorted.iter().map(Text::as_str).collect();
        assert_eq!(got, expected);
        assert!(matches!(Text::from(&*long).0, Repr::Heap(_)));
        assert!(matches!(
            Text::from("z".repeat(INLINE)).0,
            Repr::Inline { .. }
        ));
    }

    #[test]
    fn map_keeps_the_last_duplicate_and_prints_like_a_btree_map() {
        let map: Map = [
            ("b", Value::from(1)),
            ("a", Value::Null),
            ("b", Value::from(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("b"), Some(&Value::from(2)));
        let oracle: std::collections::BTreeMap<String, Value> =
            [("a".into(), Value::Null), ("b".into(), Value::from(2))].into();
        assert_eq!(format!("{map:?}"), format!("{oracle:?}"));
        assert_eq!(format!("{map:#?}"), format!("{oracle:#?}"));
    }
}
