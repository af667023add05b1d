//! Format-agnostic encode/decode entry points.
//!
//! The infrastructure lets every client pick its open-standard encoding —
//! JSON or XML — per request (`?fmt=`). This module is the single switch
//! point so higher layers never match on the format themselves.
//!
//! Each format has one grammar, held by an event-level writer and a pull
//! reader ([`json::Writer`]/`json::Reader`, [`xml::Writer`]/
//! `xml::Reader`); [`Writer`] and [`Reader`] dispatch to them. The
//! grammar has two kinds of driver:
//!
//! * the **tree drivers** [`Writer::value`] and [`Reader::value`] walk or
//!   build a [`Value`] — the general codec behind [`encode_value`] and
//!   [`decode_value`], and the oracle typed drivers are tested against;
//! * **typed drivers** (`Measurement::write`/`read`, the Web-Service
//!   envelopes) emit and consume the same events without a tree. A typed
//!   writer must emit object keys in sorted order, because that is the
//!   order a [`Value`] object encodes in and the wire bytes must not
//!   depend on which driver produced them.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

use crate::value::{Key, Map};
use crate::{json, xml, CoreError, Measurement, MeasurementBatch, Value};

/// An open-standard encoding of the common data format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DataFormat {
    /// JSON (RFC 8259), the default.
    #[default]
    Json,
    /// The XML dialect of [`crate::xml`].
    Xml,
}

impl DataFormat {
    /// The lowercase name used in `fmt=` query parameters.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DataFormat::Json => "json",
            DataFormat::Xml => "xml",
        }
    }

    /// Both formats.
    pub fn all() -> [DataFormat; 2] {
        [DataFormat::Json, DataFormat::Xml]
    }
}

impl fmt::Display for DataFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Values may nest this many containers deep; a reader rejects anything
/// deeper, so hostile input cannot exhaust the stack of a tree driver.
pub(crate) const MAX_DEPTH: usize = 128;

/// One step of a document in the common data format, as produced by a
/// [`Reader`]. Names and strings borrow from the input unless an escape
/// had to be decoded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event<'a> {
    /// The absent value.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float; never NaN.
    Float(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array opens; its items follow until the matching `EndArray`.
    BeginArray,
    /// The innermost open array closes.
    EndArray,
    /// An object opens; `Key`/value pairs follow until `EndObject`.
    BeginObject,
    /// The name of the member whose value comes next.
    Key(Cow<'a, str>),
    /// The innermost open object closes.
    EndObject,
}

/// Which kind of container is open at each nesting level (`true` = an
/// object). The first 64 levels live inline, so reading or writing a
/// document of ordinary depth allocates nothing for it.
#[derive(Debug, Default)]
pub(crate) struct KindStack {
    bits: u64,
    depth: usize,
    spill: Vec<u64>,
}

impl KindStack {
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    pub(crate) fn push(&mut self, object: bool) {
        if self.depth > 0 && self.depth.is_multiple_of(64) {
            self.spill.push(self.bits);
            self.bits = 0;
        }
        self.bits = (self.bits << 1) | u64::from(object);
        self.depth += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<bool> {
        let top = self.top()?;
        self.bits >>= 1;
        self.depth -= 1;
        if self.depth > 0 && self.depth.is_multiple_of(64) {
            self.bits = self.spill.pop().expect("a word was spilled at this depth");
        }
        Some(top)
    }

    /// The innermost open container; `None` at the document root.
    pub(crate) fn top(&self) -> Option<bool> {
        (self.depth > 0).then_some(self.bits & 1 == 1)
    }
}

macro_rules! forward {
    ($self:ident, $w:ident => $call:expr) => {
        match $self {
            Writer::Json($w) => $call,
            Writer::Xml($w) => $call,
        }
    };
}

/// Event-level writer of one document in either format, appending to a
/// caller-owned buffer.
///
/// ```
/// use dimmer_core::codec::{DataFormat, Writer};
/// let mut out = String::new();
/// let mut w = Writer::new(DataFormat::Json, &mut out);
/// w.begin_object();
/// w.key("t");
/// w.float(21.5);
/// w.end_object();
/// assert_eq!(out, r#"{"t":21.5}"#);
/// ```
#[derive(Debug)]
pub enum Writer<'o> {
    /// Writing JSON.
    Json(json::Writer<'o>),
    /// Writing XML.
    Xml(xml::Writer<'o>),
}

impl<'o> Writer<'o> {
    /// A writer appending one document in `format` to `out`.
    pub fn new(format: DataFormat, out: &'o mut String) -> Self {
        match format {
            DataFormat::Json => Writer::Json(json::Writer::new(out)),
            DataFormat::Xml => Writer::Xml(xml::Writer::new(out)),
        }
    }

    /// Writes the absent value.
    pub fn null(&mut self) {
        forward!(self, w => w.null())
    }

    /// Writes a boolean.
    pub(crate) fn bool(&mut self, b: bool) {
        forward!(self, w => w.bool(b))
    }

    /// Writes an integer.
    pub fn int(&mut self, i: i64) {
        forward!(self, w => w.int(i))
    }

    /// Writes a float. The common format has no NaN; callers keep it out.
    pub fn float(&mut self, f: f64) {
        forward!(self, w => w.float(f))
    }

    /// Writes a string.
    pub fn str(&mut self, s: &str) {
        forward!(self, w => w.str(s))
    }

    /// Writes what `value` displays as a string, escaped like
    /// [`Writer::str`] but without materialising it first.
    pub fn display(&mut self, value: &dyn fmt::Display) {
        forward!(self, w => w.display(value))
    }

    /// Opens an array.
    pub(crate) fn begin_array(&mut self) {
        forward!(self, w => w.begin_array())
    }

    /// Closes the innermost array.
    pub(crate) fn end_array(&mut self) {
        forward!(self, w => w.end_array())
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        forward!(self, w => w.begin_object())
    }

    /// Names the member whose value is written next. Typed drivers must
    /// call this in sorted key order (see the module docs).
    pub fn key(&mut self, name: &str) {
        forward!(self, w => w.key(name))
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        forward!(self, w => w.end_object())
    }

    /// The tree driver: writes `value` by walking it.
    pub fn value(&mut self, value: &Value) {
        match value {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Int(i) => self.int(*i),
            Value::Float(f) => self.float(*f),
            Value::Str(s) => self.str(s),
            Value::Array(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array();
            }
            Value::Object(map) => {
                self.begin_object();
                for (k, v) in map {
                    self.key(k);
                    self.value(v);
                }
                self.end_object();
            }
        }
    }
}

/// Pull reader of one document in either format.
///
/// The methods are what drivers say over the event grammar — "an
/// object should start here", "what is the next key", "I do not care
/// about this value".
///
/// ```
/// use dimmer_core::codec::{DataFormat, Reader};
/// use dimmer_core::Value;
/// # fn main() -> Result<(), dimmer_core::CoreError> {
/// let mut r = Reader::new(DataFormat::Json, r#"{"t":21.5,"tags":["a"]}"#);
/// assert!(r.begin_object()?);
/// assert_eq!(r.next_key()?.as_deref(), Some("t"));
/// assert_eq!(r.value()?, Value::Float(21.5));
/// assert_eq!(r.next_key()?.as_deref(), Some("tags"));
/// r.skip_value()?;
/// assert_eq!(r.next_key()?, None);
/// r.finish()
/// # }
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    grammar: Grammar<'a>,
    /// An event [`Reader::more_items`] read ahead.
    peeked: Option<Event<'a>>,
}

#[derive(Debug)]
enum Grammar<'a> {
    Json(json::Reader<'a>),
    Xml(xml::Reader<'a>),
}

impl<'a> Reader<'a> {
    /// A reader over `text`, which holds one document in `format`.
    pub fn new(format: DataFormat, text: &'a str) -> Self {
        Reader {
            grammar: match format {
                DataFormat::Json => Grammar::Json(json::Reader::new(text)),
                DataFormat::Xml => Grammar::Xml(xml::Reader::new(text)),
            },
            peeked: None,
        }
    }

    /// The next event of the document.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error at the first violation (here and
    /// in every other method); the reader is unusable afterwards.
    pub(crate) fn next_event(&mut self) -> Result<Event<'a>, CoreError> {
        if let Some(event) = self.peeked.take() {
            return Ok(event);
        }
        match &mut self.grammar {
            Grammar::Json(r) => r.next_event(),
            Grammar::Xml(r) => r.next_event(),
        }
    }

    /// Checks that nothing but ignorable text follows the document.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error on trailing content.
    pub fn finish(&mut self) -> Result<(), CoreError> {
        match &mut self.grammar {
            Grammar::Json(r) => r.finish(),
            Grammar::Xml(r) => r.finish(),
        }
    }

    /// Starts reading the next value as an object. If it is anything
    /// else, consumes the whole value and returns `false`.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error.
    pub fn begin_object(&mut self) -> Result<bool, CoreError> {
        self.begin(Event::BeginObject)
    }

    /// Starts reading the next value as an array. If it is anything
    /// else, consumes the whole value and returns `false`.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error.
    pub(crate) fn begin_array(&mut self) -> Result<bool, CoreError> {
        self.begin(Event::BeginArray)
    }

    fn begin(&mut self, wanted: Event<'a>) -> Result<bool, CoreError> {
        let first = self.next_event()?;
        if first == wanted {
            return Ok(true);
        }
        self.skip_rest(first)?;
        Ok(false)
    }

    /// Inside an object: the next member's name, or `None` once the
    /// object closes.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, CoreError> {
        match self.next_event()? {
            Event::Key(key) => Ok(Some(key)),
            Event::EndObject => Ok(None),
            other => unreachable!("readers emit only keys inside an object, got {other:?}"),
        }
    }

    /// Inside an array: whether another item follows; consumes the
    /// closing bracket when none does.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error.
    pub(crate) fn more_items(&mut self) -> Result<bool, CoreError> {
        match self.next_event()? {
            Event::EndArray => Ok(false),
            first => {
                self.peeked = Some(first);
                Ok(true)
            }
        }
    }

    /// Consumes the next value, checking its syntax exactly as building
    /// it would.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error.
    pub fn skip_value(&mut self) -> Result<(), CoreError> {
        let first = self.next_event()?;
        self.skip_rest(first)
    }

    /// Consumes the rest of the value that `first` began.
    fn skip_rest(&mut self, first: Event<'a>) -> Result<(), CoreError> {
        let mut open = usize::from(matches!(first, Event::BeginArray | Event::BeginObject));
        while open > 0 {
            match self.next_event()? {
                Event::BeginArray | Event::BeginObject => open += 1,
                Event::EndArray | Event::EndObject => open -= 1,
                _ => {}
            }
        }
        Ok(())
    }

    /// The tree driver: builds the next value.
    ///
    /// Each array or object is allocated once, at its exact size, when
    /// it closes: until then its items wait on a per-thread scratch
    /// stack, above those of the containers around it.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error.
    pub fn value(&mut self) -> Result<Value, CoreError> {
        let mut scratch = SCRATCH.take();
        let value = self.build(&mut scratch);
        scratch.reset();
        SCRATCH.set(scratch);
        value
    }

    fn build(&mut self, scratch: &mut Scratch) -> Result<Value, CoreError> {
        Ok(match self.next_event()? {
            Event::Null => Value::Null,
            Event::Bool(b) => Value::Bool(b),
            Event::Int(i) => Value::Int(i),
            Event::Float(f) => Value::Float(f),
            Event::Str(s) => Value::Str(s.into_owned()),
            Event::BeginArray => {
                let start = scratch.items.len();
                while self.more_items()? {
                    let item = self.build(scratch)?;
                    scratch.items.push(item);
                }
                Value::Array(scratch.items.drain(start..).collect())
            }
            Event::BeginObject => {
                let start = scratch.members.len();
                while let Some(key) = self.next_key()? {
                    let key = Key::from(key);
                    let value = self.build(scratch)?;
                    scratch.members.push((key, value));
                }
                Value::Object(Map::from_members(scratch.members.drain(start..).collect()))
            }
            first @ (Event::EndArray | Event::Key(_) | Event::EndObject) => {
                unreachable!("a value cannot begin with {first:?}")
            }
        })
    }
}

/// The items and members of the containers the tree driver has open,
/// innermost last. Kept per thread between documents, so that once it has
/// grown to the widest document seen, a decode allocates only the tree.
#[derive(Default)]
struct Scratch {
    items: Vec<Value>,
    members: Vec<(Key, Value)>,
}

/// Past this many entries a stack is shrunk after use, so one huge
/// document does not pin its width for the life of the thread.
const SCRATCH_RETAINED: usize = 4096;

impl Scratch {
    /// Empties both stacks (a failed decode leaves items behind).
    fn reset(&mut self) {
        self.items.clear();
        self.items.shrink_to(SCRATCH_RETAINED);
        self.members.clear();
        self.members.shrink_to(SCRATCH_RETAINED);
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// What a typed reader makes of well-formed text: the value, or why the
/// document does not describe one. Kept apart from the reader's own
/// parse error so that a typed reader can finish checking the syntax —
/// and let a later duplicate key override an ill-shaped earlier one —
/// exactly as decoding to a tree first would.
pub type Shaped<T> = Result<T, CoreError>;

/// A scalar member as a typed reader holds it until the object closes
/// (the last occurrence of a key wins, as in a [`Value`] object).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Scalar<'a> {
    /// The member has not occurred.
    #[default]
    Missing,
    /// A string.
    Str(Cow<'a, str>),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// Null, a boolean or a container.
    Other,
}

impl<'a> Scalar<'a> {
    /// Consumes one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns the format's parse error.
    pub fn read(r: &mut Reader<'a>) -> Result<Self, CoreError> {
        Ok(match r.next_event()? {
            Event::Str(s) => Scalar::Str(s),
            Event::Int(i) => Scalar::Int(i),
            Event::Float(f) => Scalar::Float(f),
            other => {
                r.skip_rest(other)?;
                Scalar::Other
            }
        })
    }

    fn shape(&self, target: &'static str, key: &str, wanted: &str) -> CoreError {
        CoreError::Shape {
            target,
            reason: match self {
                Scalar::Missing => format!("missing member {key:?}"),
                _ => format!("member {key:?} is not {wanted}"),
            },
        }
    }

    /// The member as a string, like [`Value::require_str`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if absent or not a string.
    pub fn require_str(&self, target: &'static str, key: &str) -> Shaped<&str> {
        match self {
            Scalar::Str(s) => Ok(s),
            _ => Err(self.shape(target, key, "a string")),
        }
    }

    /// The member as a float, like [`Value::require_f64`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if absent or not numeric.
    pub(crate) fn require_f64(&self, target: &'static str, key: &str) -> Shaped<f64> {
        match self {
            Scalar::Int(i) => Ok(*i as f64),
            Scalar::Float(f) => Ok(*f),
            _ => Err(self.shape(target, key, "a number")),
        }
    }

    /// The member as an integer, like [`Value::require_i64`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] if absent or not an integer.
    pub fn require_i64(&self, target: &'static str, key: &str) -> Shaped<i64> {
        match self {
            Scalar::Int(i) => Ok(*i),
            Scalar::Float(f) => Value::Float(*f)
                .as_i64()
                .ok_or_else(|| self.shape(target, key, "an integer")),
            _ => Err(self.shape(target, key, "an integer")),
        }
    }
}

/// Runs a typed writer over a fresh buffer.
fn encode_with(format: DataFormat, write: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = String::with_capacity(128);
    write(&mut Writer::new(format, &mut out));
    out
}

/// Runs a typed reader over the one document in `text`. A parse error
/// anywhere in the text takes precedence over a shape error.
fn decode_with<'a, T>(
    text: &'a str,
    format: DataFormat,
    read: impl FnOnce(&mut Reader<'a>) -> Result<Shaped<T>, CoreError>,
) -> Result<T, CoreError> {
    let mut r = Reader::new(format, text);
    let shaped = read(&mut r)?;
    r.finish()?;
    shaped
}

/// Encodes a value in the chosen format.
pub fn encode_value(value: &Value, format: DataFormat) -> String {
    encode_with(format, |w| w.value(value))
}

/// Decodes text in the chosen format.
///
/// # Errors
///
/// Returns the format's parse error.
pub fn decode_value(text: &str, format: DataFormat) -> Result<Value, CoreError> {
    decode_with(text, format, |r| r.value().map(Ok))
}

/// Encodes a measurement in the chosen format.
pub fn encode_measurement(m: &Measurement, format: DataFormat) -> String {
    encode_with(format, |w| m.write(w))
}

/// Decodes a measurement from text in the chosen format.
///
/// # Errors
///
/// Returns a parse error or a [`CoreError::Shape`] error.
pub fn decode_measurement(text: &str, format: DataFormat) -> Result<Measurement, CoreError> {
    decode_with(text, format, Measurement::read)
}

/// Encodes a measurement batch in the chosen format.
pub fn encode_batch(batch: &MeasurementBatch, format: DataFormat) -> String {
    encode_with(format, |w| batch.write(w))
}

/// Decodes a measurement batch from text in the chosen format.
///
/// # Errors
///
/// Returns a parse error or a [`CoreError::Shape`] error.
pub fn decode_batch(text: &str, format: DataFormat) -> Result<MeasurementBatch, CoreError> {
    decode_with(text, format, MeasurementBatch::read)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceId, QuantityKind, Timestamp, Unit};

    fn sample() -> Measurement {
        Measurement::new(
            DeviceId::new("dev-9").unwrap(),
            QuantityKind::Co2,
            417.0,
            Unit::PartsPerMillion,
            Timestamp::from_unix_millis(1_425_900_000_000),
        )
    }

    #[test]
    fn format_names_round_trip() {
        let names = DataFormat::all().map(|f| f.to_string());
        assert_eq!(names, ["json", "xml"]);
        assert_eq!(DataFormat::default(), DataFormat::Json);
    }

    #[test]
    fn measurement_round_trips_in_both_formats() {
        let m = sample();
        for f in DataFormat::all() {
            let text = encode_measurement(&m, f);
            assert_eq!(decode_measurement(&text, f).unwrap(), m, "{f}");
        }
    }

    #[test]
    fn batch_round_trips_in_both_formats() {
        let batch: MeasurementBatch = (0..3).map(|_| sample()).collect();
        for f in DataFormat::all() {
            let text = encode_batch(&batch, f);
            assert_eq!(decode_batch(&text, f).unwrap(), batch, "{f}");
        }
    }

    #[test]
    fn cross_format_decode_fails_cleanly() {
        let m = sample();
        let as_json = encode_measurement(&m, DataFormat::Json);
        assert!(decode_measurement(&as_json, DataFormat::Xml).is_err());
        let as_xml = encode_measurement(&m, DataFormat::Xml);
        assert!(decode_measurement(&as_xml, DataFormat::Json).is_err());
    }

    #[test]
    fn value_switch_points_agree_with_direct_codecs() {
        let v = Value::object([("x", Value::from(1))]);
        assert_eq!(encode_value(&v, DataFormat::Json), json::to_string(&v));
        assert_eq!(encode_value(&v, DataFormat::Xml), xml::to_string(&v));
        assert_eq!(
            decode_value(&json::to_string(&v), DataFormat::Json).unwrap(),
            v
        );
    }

    #[test]
    fn kind_stack_spills_past_64_levels() {
        let mut stack = KindStack::default();
        let kinds: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &k in &kinds {
            stack.push(k);
            assert_eq!(stack.top(), Some(k));
        }
        assert_eq!(stack.depth(), 200);
        for &k in kinds.iter().rev() {
            assert_eq!(stack.pop(), Some(k));
        }
        assert_eq!(stack.top(), None);
        assert_eq!(stack.pop(), None);
    }

    #[test]
    fn typed_writers_match_the_tree_writer() {
        let m = sample();
        let batch: MeasurementBatch = (0..3).map(|_| sample()).collect();
        for f in DataFormat::all() {
            assert_eq!(encode_measurement(&m, f), encode_value(&m.to_value(), f));
            assert_eq!(encode_batch(&batch, f), encode_value(&batch.to_value(), f));
        }
    }

    #[test]
    fn typed_reader_lets_a_later_duplicate_override_an_ill_shaped_one() {
        let text = r#"{"measurements":[{"device":1}],"measurements":[]}"#;
        let tree = decode_value(text, DataFormat::Json).unwrap();
        assert_eq!(
            decode_batch(text, DataFormat::Json).ok(),
            MeasurementBatch::from_value(&tree).ok()
        );
        assert!(decode_batch(text, DataFormat::Json).unwrap().is_empty());
    }
}
