//! XML encoding of the common data format.
//!
//! The paper offers XML as the second open-standard encoding next to
//! JSON. [`Value`] trees map onto a small, self-describing XML dialect:
//!
//! ```xml
//! <value type="object">
//!   <member name="floors" type="int">4</member>
//!   <member name="rooms" type="array">
//!     <item type="string">r1</item>
//!   </member>
//! </value>
//! ```
//!
//! Every element carries a `type` attribute (`null`, `bool`, `int`,
//! `float`, `string`, `array`, `object`); object members carry `name`.
//! The grammar lives in an event-level [`Writer`] and a pull `Reader`
//! (a hand-written tokenizer that also skips XML declarations and
//! comments, and decodes the five named entities plus numeric character
//! references). [`to_string`] and [`from_str`] drive them through a
//! [`Value`] tree; typed drivers reach them through [`crate::codec`].

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::codec::{self, DataFormat, Event, KindStack, MAX_DEPTH};
use crate::{CoreError, Value};

/// Serializes a value as a compact XML document.
///
/// ```
/// use dimmer_core::{xml, Value};
/// let v = Value::from(4);
/// assert_eq!(xml::to_string(&v), r#"<value type="int">4</value>"#);
/// ```
pub fn to_string(value: &Value) -> String {
    codec::encode_value(value, DataFormat::Xml)
}

/// The tag of an element inside `parent` (`None` = the outermost
/// element; `Some(true)` = an object).
fn tag_in(parent: Option<bool>) -> &'static str {
    match parent {
        None => "value",
        Some(false) => "item",
        Some(true) => "member",
    }
}

fn close(tag: &str, out: &mut String) {
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

/// Event-level XML writer appending to a caller-owned buffer.
#[derive(Debug)]
pub struct Writer<'o> {
    out: &'o mut String,
    open: KindStack,
    /// Whether `key` already wrote `<member name="…"` for the next value.
    named: bool,
}

impl<'o> Writer<'o> {
    /// A writer appending one document to `out`.
    pub(crate) fn new(out: &'o mut String) -> Self {
        Writer {
            out,
            open: KindStack::default(),
            named: false,
        }
    }

    /// Writes the open tag up to and including the `type` attribute and
    /// returns the tag, for the matching close.
    fn open(&mut self, ty: &str) -> &'static str {
        let tag = tag_in(self.open.top());
        if self.named {
            self.named = false;
        } else {
            debug_assert!(tag != "member", "an object member needs a key first");
            self.out.push('<');
            self.out.push_str(tag);
        }
        self.out.push_str(" type=\"");
        self.out.push_str(ty);
        self.out.push('"');
        tag
    }

    /// Writes the absent value as a self-closing element.
    pub(crate) fn null(&mut self) {
        self.open("null");
        self.out.push_str("/>");
    }

    /// Writes a boolean.
    pub(crate) fn bool(&mut self, b: bool) {
        let tag = self.open("bool");
        self.out.push('>');
        self.out.push_str(if b { "true" } else { "false" });
        close(tag, self.out);
    }

    /// Writes an integer.
    pub(crate) fn int(&mut self, i: i64) {
        let tag = self.open("int");
        let _ = write!(self.out, ">{i}");
        close(tag, self.out);
    }

    /// Writes a float so that it reads back as a float.
    pub(crate) fn float(&mut self, f: f64) {
        let tag = self.open("float");
        if f == f.trunc() && f.abs() < 1e15 {
            let _ = write!(self.out, ">{f:.1}");
        } else {
            let _ = write!(self.out, ">{f}");
        }
        close(tag, self.out);
    }

    /// Writes a string.
    pub(crate) fn str(&mut self, s: &str) {
        let tag = self.open("string");
        self.out.push('>');
        escape_into(s, false, self.out);
        close(tag, self.out);
    }

    /// Writes what `value` displays as a string.
    pub(crate) fn display(&mut self, value: &dyn fmt::Display) {
        let tag = self.open("string");
        self.out.push('>');
        let _ = write!(Escaped(self.out), "{value}");
        close(tag, self.out);
    }

    /// Opens an array.
    pub(crate) fn begin_array(&mut self) {
        self.open("array");
        self.out.push('>');
        self.open.push(false);
    }

    /// Closes the innermost array.
    pub(crate) fn end_array(&mut self) {
        self.end_container();
    }

    /// Opens an object.
    pub(crate) fn begin_object(&mut self) {
        self.open("object");
        self.out.push('>');
        self.open.push(true);
    }

    /// Names the member whose value is written next.
    pub(crate) fn key(&mut self, name: &str) {
        self.out.push_str("<member name=\"");
        escape_into(name, true, self.out);
        self.out.push('"');
        self.named = true;
    }

    /// Closes the innermost object.
    pub(crate) fn end_object(&mut self) {
        self.end_container();
    }

    fn end_container(&mut self) {
        self.open.pop();
        let tag = tag_in(self.open.top());
        close(tag, self.out);
    }
}

fn escape_into(s: &str, attribute: bool, out: &mut String) {
    let needs_escape = |b: u8| match b {
        b'<' | b'>' | b'&' => true,
        b'"' => attribute,
        b'\n' | b'\r' | b'\t' => attribute,
        _ => b < 0x20,
    };
    let mut rest = s;
    // Everything that needs an escape is one ASCII byte, so the runs
    // between them can be copied whole.
    while let Some(i) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'<' => out.push_str("&lt;"),
            b'>' => out.push_str("&gt;"),
            b'&' => out.push_str("&amp;"),
            b'"' => out.push_str("&quot;"),
            control => {
                let _ = write!(out, "&#x{control:x};");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Escapes everything formatted into it as element text.
struct Escaped<'o>(&'o mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(s, false, self.0);
        Ok(())
    }
}

/// Parses an XML document in the dialect produced by [`to_string`].
///
/// # Errors
///
/// Returns [`CoreError::ParseXml`] with the byte offset of the first
/// violation.
pub fn from_str(text: &str) -> Result<Value, CoreError> {
    codec::decode_value(text, DataFormat::Xml)
}

/// The `type` attribute of an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Type {
    Null,
    Bool,
    Int,
    Float,
    String,
    Array,
    Object,
}

/// An element whose open tag has been read but whose value event has
/// not been produced yet.
#[derive(Debug, Clone, Copy)]
struct Opened {
    ty: Type,
    self_closing: bool,
}

/// Pull reader over one XML document.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    open: KindStack,
    /// The member whose `Key` was just emitted.
    pending: Option<Opened>,
    /// Whether the root element has been read.
    rooted: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document in `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            open: KindStack::default(),
            pending: None,
            rooted: false,
        }
    }

    /// The next event of the document.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParseXml`] with the byte offset of the first
    /// violation.
    pub(crate) fn next_event(&mut self) -> Result<Event<'a>, CoreError> {
        if let Some(opened) = self.pending.take() {
            return self.read_value(opened);
        }
        let Some(object) = self.open.top() else {
            if self.rooted {
                return Err(self.err("trailing characters after document"));
            }
            self.rooted = true;
            self.skip_misc();
            let (opened, _) = self.read_open_tag("value")?;
            return self.read_value(opened);
        };
        self.skip_ws();
        if self.starts_with("</") {
            self.open.pop();
            self.read_close_tag()?;
            return Ok(if object {
                Event::EndObject
            } else {
                Event::EndArray
            });
        }
        if self.peek() != Some(b'<') {
            return Err(self.err("unexpected text inside container"));
        }
        if object {
            let (opened, name) = self.read_open_tag("member")?;
            let name = name.ok_or_else(|| self.err("member missing name attribute"))?;
            self.pending = Some(opened);
            Ok(Event::Key(name))
        } else {
            let (opened, _) = self.read_open_tag("item")?;
            self.read_value(opened)
        }
    }

    /// Checks that only whitespace, comments and processing instructions
    /// follow the root element.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ParseXml`] on trailing characters.
    pub(crate) fn finish(&mut self) -> Result<(), CoreError> {
        self.skip_misc();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn err(&self, reason: &'static str) -> CoreError {
        CoreError::ParseXml {
            offset: self.pos,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.text.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, the XML declaration and comments.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            let end = if self.starts_with("<?") {
                "?>"
            } else if self.starts_with("<!--") {
                "-->"
            } else {
                return;
            };
            match self.text[self.pos..].find(end) {
                Some(i) => self.pos += i + end.len(),
                None => {
                    self.pos = self.text.len();
                    return;
                }
            }
        }
    }

    /// A tag or attribute name, borrowed from the input.
    fn parse_name(&mut self) -> Result<&'a str, CoreError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// Reads `<tag attr="…" …>` or `<tag …/>`, returning the element's
    /// type and its `name` attribute.
    fn read_open_tag(
        &mut self,
        expected: &'static str,
    ) -> Result<(Opened, Option<Cow<'a, str>>), CoreError> {
        if self.open.depth() > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let tag = self.parse_name()?;
        if tag != expected {
            return Err(self.err(match expected {
                "value" => "root element must be <value>",
                "item" => "array children must be <item>",
                _ => "object children must be <member>",
            }));
        }
        let mut name_attr = None;
        let mut type_attr = None;
        let self_closing = loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    break true;
                }
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(_) => {
                    let attr = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("attribute value must be quoted")),
                    };
                    self.pos += 1;
                    let raw_start = self.pos;
                    while self.peek().is_some_and(|b| b != quote) {
                        self.pos += 1;
                    }
                    if self.peek() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    // Unknown attributes are ignored, but their entities
                    // must still be well formed.
                    let decoded = self.decode_entities(&self.text[raw_start..self.pos])?;
                    self.pos += 1;
                    match attr {
                        "name" => name_attr = Some(decoded),
                        "type" => type_attr = Some(decoded),
                        _ => {}
                    }
                }
                None => return Err(self.err("unexpected end inside tag")),
            }
        };
        let ty = match type_attr.as_deref() {
            None if self_closing => Type::Null,
            None => return Err(self.err("missing type attribute")),
            Some("null") => Type::Null,
            Some("bool") => Type::Bool,
            Some("int") => Type::Int,
            Some("float") => Type::Float,
            Some("string") => Type::String,
            Some("array") => Type::Array,
            Some("object") => Type::Object,
            Some(_) => return Err(self.err("unknown type")),
        };
        if self_closing && ty != Type::Null {
            return Err(self.err("self-closing element must be type=\"null\""));
        }
        Ok((Opened { ty, self_closing }, name_attr))
    }

    /// Reads `</tag>` of an element whose parent is now innermost.
    fn read_close_tag(&mut self) -> Result<(), CoreError> {
        if !self.starts_with("</") {
            return Err(self.err("expected closing tag"));
        }
        self.pos += 2;
        let closing = self.parse_name()?;
        let tag = tag_in(self.open.top());
        if closing != tag {
            return Err(self.err("mismatched closing tag"));
        }
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.err("expected '>' to end closing tag"));
        }
        self.pos += 1;
        Ok(())
    }

    /// Produces the value event of an element whose open tag was read.
    fn read_value(&mut self, opened: Opened) -> Result<Event<'a>, CoreError> {
        if opened.self_closing {
            return Ok(Event::Null);
        }
        match opened.ty {
            Type::Array => {
                self.open.push(false);
                return Ok(Event::BeginArray);
            }
            Type::Object => {
                self.open.push(true);
                return Ok(Event::BeginObject);
            }
            _ => {}
        }
        let raw_start = self.pos;
        while self.peek().is_some_and(|b| b != b'<') {
            self.pos += 1;
        }
        let text = self.decode_entities(&self.text[raw_start..self.pos])?;
        let event = match opened.ty {
            Type::Null => {
                if !text.trim().is_empty() {
                    return Err(self.err("null element must be empty"));
                }
                Event::Null
            }
            Type::Bool => match &*text {
                "true" => Event::Bool(true),
                "false" => Event::Bool(false),
                _ => return Err(self.err("bool must be 'true' or 'false'")),
            },
            Type::Int => Event::Int(text.parse().map_err(|_| self.err("invalid int"))?),
            Type::Float => {
                let f: f64 = text.parse().map_err(|_| self.err("invalid float"))?;
                if f.is_nan() {
                    return Err(self.err("invalid float"));
                }
                Event::Float(f)
            }
            Type::String => Event::Str(text),
            Type::Array | Type::Object => unreachable!("containers returned above"),
        };
        self.read_close_tag()?;
        Ok(event)
    }

    /// Decodes entities, borrowing `raw` when it holds none.
    fn decode_entities(&self, raw: &'a str) -> Result<Cow<'a, str>, CoreError> {
        if !raw.contains('&') {
            return Ok(Cow::Borrowed(raw));
        }
        let mut out = String::with_capacity(raw.len());
        let mut rest = raw;
        while let Some(i) = rest.find('&') {
            out.push_str(&rest[..i]);
            rest = &rest[i..];
            let end = rest
                .find(';')
                .ok_or_else(|| self.err("unterminated entity"))?;
            let entity = &rest[1..end];
            match entity {
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "amp" => out.push('&'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                    let code = u32::from_str_radix(&entity[2..], 16)
                        .map_err(|_| self.err("invalid character reference"))?;
                    out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
                }
                _ if entity.starts_with('#') => {
                    let code: u32 = entity[1..]
                        .parse()
                        .map_err(|_| self.err("invalid character reference"))?;
                    out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
                }
                _ => return Err(self.err("unknown entity")),
            }
            rest = &rest[end + 1..];
        }
        out.push_str(rest);
        Ok(Cow::Owned(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) {
        let text = to_string(v);
        assert_eq!(&from_str(&text).unwrap(), v, "{text}");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(2.5),
            Value::Float(-1e-3),
            Value::from(""),
            Value::Str("a & b < c > d \" e ' f".into()),
            Value::Str("unicode ü 🌍 and\nnewline".into()),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Value::array([]));
        round_trip(&Value::object::<&str, _>([]));
        round_trip(&Value::object([
            ("floors", Value::from(4)),
            (
                "rooms",
                Value::array([Value::from("r1"), Value::Null, Value::from(2.5)]),
            ),
            ("nested", Value::object([("k", Value::from(true))])),
        ]));
    }

    #[test]
    fn exact_compact_form() {
        let v = Value::object([("t", Value::from(21.5))]);
        assert_eq!(
            to_string(&v),
            r#"<value type="object"><member name="t" type="float">21.5</member></value>"#
        );
    }

    #[test]
    fn null_is_self_closing() {
        assert_eq!(to_string(&Value::Null), r#"<value type="null"/>"#);
        assert_eq!(from_str(r#"<value type="null"/>"#).unwrap(), Value::Null);
        assert_eq!(
            from_str(r#"<value type="null"></value>"#).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn declaration_and_comments_skipped() {
        let text = "<?xml version=\"1.0\"?>\n<!-- header -->\n<value type=\"int\">7</value>\n<!-- trailer -->";
        assert_eq!(from_str(text).unwrap(), Value::Int(7));
    }

    #[test]
    fn escaped_names_round_trip() {
        let v = Value::object([("weird \"key\" <&>", Value::from(1))]);
        round_trip(&v);
    }

    #[test]
    fn numeric_entities_decoded() {
        assert_eq!(
            from_str(r#"<value type="string">&#65;&#x42;</value>"#).unwrap(),
            Value::Str("AB".into())
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "<value>",
            r#"<value type="int">7"#,
            r#"<wrong type="int">7</wrong>"#,
            r#"<value type="int">x</value>"#,
            r#"<value type="bool">yes</value>"#,
            r#"<value type="mystery">7</value>"#,
            r#"<value type="int">7</other>"#,
            r#"<value type="object"><item type="int">1</item></value>"#,
            r#"<value type="array"><member type="int">1</member></value>"#,
            r#"<value type="object"><member type="int">1</member></value>"#,
            r#"<value type="string">&bogus;</value>"#,
            r#"<value type="string">&#xFFFFFFFF;</value>"#,
            r#"<value type="int" >7</value> junk"#,
        ] {
            assert!(from_str(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn attribute_quotes_both_styles() {
        assert_eq!(
            from_str("<value type='int'>7</value>").unwrap(),
            Value::Int(7)
        );
    }

    #[test]
    fn whitespace_tolerated_between_elements() {
        let text = "<value type=\"array\">\n  <item type=\"int\">1</item>\n  <item type=\"int\">2</item>\n</value>";
        assert_eq!(
            from_str(text).unwrap(),
            Value::array([Value::from(1), Value::from(2)])
        );
    }

    #[test]
    fn deep_nesting_bounded() {
        let mut text = String::new();
        for _ in 0..200 {
            text.push_str("<value type=\"array\"><item type=\"array\">");
        }
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn xml_is_larger_than_json() {
        // Documented size trade-off exercised by experiment E4.
        let v = Value::object([
            ("a", Value::from(1)),
            ("b", Value::from("text")),
            ("c", Value::array([Value::from(1.5), Value::from(2.5)])),
        ]);
        assert!(to_string(&v).len() > crate::json::to_string(&v).len());
    }
}
