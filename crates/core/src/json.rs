//! JSON encoding of the common data format.
//!
//! A complete, dependency-free JSON codec for the common data format.
//! The paper names JSON as one of the two open standards proxies
//! translate into; owning the codec keeps the translation cost
//! measurable (experiment E4).
//!
//! The grammar lives in an event-level [`Writer`] and a pull `Reader`.
//! [`to_string`] and [`from_str`] drive them through a [`Value`] tree;
//! typed drivers reach them through [`crate::codec`].
//!
//! Conformance notes: the writer emits UTF-8 with minimal escaping; the
//! reader accepts RFC 8259 JSON with the usual limits (numbers are `i64`
//! when lossless, `f64` otherwise; `\uXXXX` escapes including surrogate
//! pairs are decoded; duplicate keys keep the last occurrence).

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::codec::{self, DataFormat, Event, KindStack, MAX_DEPTH};
use crate::{CoreError, Value};

/// Serializes a value as compact JSON.
///
/// ```
/// use dimmer_core::{json, Value};
/// let v = Value::object([("t", Value::from(21.5))]);
/// assert_eq!(json::to_string(&v), r#"{"t":21.5}"#);
/// ```
pub fn to_string(value: &Value) -> String {
    codec::encode_value(value, DataFormat::Json)
}

/// Event-level JSON writer appending to a caller-owned buffer.
#[derive(Debug)]
pub struct Writer<'o> {
    out: &'o mut String,
    /// Whether the next value or key in the open container needs a
    /// separating comma.
    comma: bool,
}

impl<'o> Writer<'o> {
    /// A writer appending one document to `out`.
    pub(crate) fn new(out: &'o mut String) -> Self {
        Writer { out, comma: false }
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes `null`.
    pub(crate) fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an integer.
    pub(crate) fn int(&mut self, i: i64) {
        self.separate();
        let _ = write!(self.out, "{i}");
    }

    /// Writes a float so that it reads back as a float.
    pub(crate) fn float(&mut self, f: f64) {
        self.separate();
        write_float(f, self.out);
    }

    /// Writes a string.
    pub(crate) fn str(&mut self, s: &str) {
        self.separate();
        write_string(s, self.out);
    }

    /// Writes what `value` displays as a string.
    pub(crate) fn display(&mut self, value: &dyn fmt::Display) {
        self.separate();
        self.out.push('"');
        let _ = write!(Escaped(self.out), "{value}");
        self.out.push('"');
    }

    /// Opens an array.
    pub(crate) fn begin_array(&mut self) {
        self.separate();
        self.out.push('[');
        self.comma = false;
    }

    /// Closes the innermost array.
    pub(crate) fn end_array(&mut self) {
        self.out.push(']');
        self.comma = true;
    }

    /// Opens an object.
    pub(crate) fn begin_object(&mut self) {
        self.separate();
        self.out.push('{');
        self.comma = false;
    }

    /// Names the member whose value is written next.
    pub(crate) fn key(&mut self, name: &str) {
        self.separate();
        write_string(name, self.out);
        self.out.push(':');
        self.comma = false;
    }

    /// Closes the innermost object.
    pub(crate) fn end_object(&mut self) {
        self.out.push('}');
        self.comma = true;
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_infinite() {
        // JSON has no infinity; clamp to the largest finite value.
        out.push_str(if f > 0.0 {
            "1.7976931348623157e308"
        } else {
            "-1.7976931348623157e308"
        });
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a trailing ".0" so the value round-trips as a float.
        let _ = write!(out, "{f:.1}");
    } else {
        let start = out.len();
        let _ = write!(out, "{f}");
        // Very large integral floats format without '.' or 'e'; mark them
        // as floats so they do not reparse as integers.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

fn escape_into(s: &str, out: &mut String) {
    let mut rest = s;
    // Everything that needs an escape is one ASCII byte, so the runs
    // between them can be copied whole.
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Escapes everything formatted into it as string content.
struct Escaped<'o>(&'o mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(s, self.0);
        Ok(())
    }
}

/// Parses JSON text into a [`Value`].
///
/// # Errors
///
/// Returns [`CoreError::ParseJson`] with the byte offset of the first
/// violation.
pub fn from_str(text: &str) -> Result<Value, CoreError> {
    codec::decode_value(text, DataFormat::Json)
}

/// Where a [`Reader`] stands in the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value: the document root, or a member's value after its key.
    Value,
    /// Just inside `[`: an item or `]`.
    FirstItem,
    /// Just inside `{`: a key or `}`.
    FirstKey,
    /// After a value inside a container: `,` or the closing bracket.
    Next,
    /// After the root value.
    End,
}

/// Pull reader over one JSON document.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    open: KindStack,
    expect: Expect,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document in `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            open: KindStack::default(),
            expect: Expect::Value,
        }
    }

    /// The next event of the document.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParseJson`] with the byte offset of the
    /// first violation.
    pub(crate) fn next_event(&mut self) -> Result<Event<'a>, CoreError> {
        self.skip_ws();
        match self.expect {
            Expect::Value => self.read_value(),
            Expect::FirstItem if self.peek() == Some(b']') => self.close(false),
            Expect::FirstItem => self.read_value(),
            Expect::FirstKey if self.peek() == Some(b'}') => self.close(true),
            Expect::FirstKey => self.read_key(),
            Expect::Next => {
                let object = self
                    .open
                    .top()
                    .expect("Next is only set inside a container");
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws();
                        if object {
                            self.read_key()
                        } else {
                            self.read_value()
                        }
                    }
                    Some(b']') if !object => self.close(false),
                    Some(b'}') if object => self.close(true),
                    _ => Err(self.err(if object {
                        "expected ',' or '}'"
                    } else {
                        "expected ',' or ']'"
                    })),
                }
            }
            Expect::End => Err(self.err("trailing characters after value")),
        }
    }

    /// Checks that only whitespace follows the root value.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParseJson`] on trailing characters.
    pub(crate) fn finish(&mut self) -> Result<(), CoreError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    fn err(&self, reason: &'static str) -> CoreError {
        CoreError::ParseJson {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), CoreError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    /// What follows a completed value.
    fn after_value(&self) -> Expect {
        if self.open.depth() == 0 {
            Expect::End
        } else {
            Expect::Next
        }
    }

    fn close(&mut self, object: bool) -> Result<Event<'a>, CoreError> {
        self.pos += 1;
        self.open.pop();
        self.expect = self.after_value();
        Ok(if object {
            Event::EndObject
        } else {
            Event::EndArray
        })
    }

    fn read_key(&mut self) -> Result<Event<'a>, CoreError> {
        let key = self.parse_string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.expect = Expect::Value;
        Ok(Event::Key(key))
    }

    fn read_value(&mut self) -> Result<Event<'a>, CoreError> {
        if self.open.depth() > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let event = match self.peek() {
            Some(b'n') => self.parse_keyword("null", Event::Null)?,
            Some(b't') => self.parse_keyword("true", Event::Bool(true))?,
            Some(b'f') => self.parse_keyword("false", Event::Bool(false))?,
            Some(b'"') => Event::Str(self.parse_string()?),
            Some(b'[') => {
                self.pos += 1;
                self.open.push(false);
                self.expect = Expect::FirstItem;
                return Ok(Event::BeginArray);
            }
            Some(b'{') => {
                self.pos += 1;
                self.open.push(true);
                self.expect = Expect::FirstKey;
                return Ok(Event::BeginObject);
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number()?,
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.expect = self.after_value();
        Ok(event)
    }

    fn parse_keyword(&mut self, word: &str, event: Event<'a>) -> Result<Event<'a>, CoreError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(event)
        } else {
            Err(self.err("invalid keyword"))
        }
    }

    /// Parses a string, borrowing it from the input unless it holds an
    /// escape.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, CoreError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes. It ends at an ASCII byte or
            // the end of the input, so it can be sliced out of the text.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.bump() {
                Some(b'"') => {
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    })
                }
                Some(b'\\') => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    let c = self.parse_escape()?;
                    s.push(c);
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the escape whose backslash was just consumed.
    fn parse_escape(&mut self) -> Result<char, CoreError> {
        let esc = self.bump().ok_or_else(|| self.err("unterminated escape"))?;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'u' => {
                let hi = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let lo = self.parse_hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("unpaired low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                }
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32, CoreError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Event<'a>, CoreError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Event::Int(i));
            }
        }
        let f: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if f.is_nan() || f.is_infinite() {
            return Err(self.err("number out of range"));
        }
        Ok(Event::Float(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let text = to_string(v);
        let back = from_str(&text).unwrap();
        assert_eq!(&back, v, "{text}");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(1.5),
            Value::Float(-0.001),
            Value::Float(1e300),
            Value::from(""),
            Value::Str("plain".into()),
            Value::Str("esc \" \\ \n \t \r \u{08} \u{0C} ü 🌍".into()),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Value::array([]));
        round_trip(&Value::object::<&str, _>([]));
        round_trip(&Value::object([
            ("a", Value::array([Value::from(1), Value::Null])),
            ("b", Value::object([("c", Value::from("d"))])),
        ]));
    }

    #[test]
    fn float_integers_stay_floats() {
        let v = Value::Float(4.0);
        let text = to_string(&v);
        assert_eq!(text, "4.0");
        assert_eq!(from_str(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = from_str(" { \"a\" : [ 1 , 2.5 , \"x\" ] , \"b\" : null } ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::array([1.into(), 2.5.into(), "x".into()]))
        );
        assert!(v.get("b").unwrap().is_null());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(from_str(r#""Aé🌍""#).unwrap(), Value::Str("Aé🌍".into()));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "tru",
            "01",
            "1.",
            "1e",
            "--1",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800\"",
            "[1] trailing",
            "+1",
            "'single'",
            "\u{0}",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn error_carries_offset() {
        let err = from_str("[1, x]").unwrap_err();
        match err {
            CoreError::ParseJson { offset, .. } => assert_eq!(offset, 4),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn deep_nesting_bounded() {
        let mut text = String::new();
        for _ in 0..200 {
            text.push('[');
        }
        for _ in 0..200 {
            text.push(']');
        }
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let v = from_str(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        let v = from_str("123456789012345678901234567890").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::Str("\u{01}".into());
        assert_eq!(to_string(&v), "\"\\u0001\"");
        round_trip(&v);
    }
}
