//! An OPC UA binary-protocol subset.
//!
//! The paper uses an OPC UA proxy to give the infrastructure backward
//! compatibility with wired automation standards (BACnet/KNX gateways,
//! PLCs). This module implements the slice of OPC UA such a proxy needs:
//!
//! * [`NodeId`]s (numeric and string identifiers, namespaced);
//! * [`Variant`] values and [`DataValue`]s with status + source timestamp;
//! * the **Read**, **Write** and **Browse** services in OPC UA binary
//!   encoding (little-endian, length-prefixed strings);
//! * a server-side `AddressSpace` that answers those services.
//!
//! A decoded [`Message`] borrows its input: strings are slices of it and
//! each array is a [`Seq`] over its checked wire bytes, read again item
//! by item when iterated. A message a sender builds borrows the sender's
//! values the same way.

use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;

use dimmer_core::bytes::Cursor;

use crate::ProtocolError;

const CTX: &str = "opcua message";

/// An OPC UA node identifier: a namespace index plus a numeric or string
/// identifier. A decoded string identifier borrows the message; an
/// address space owns its own.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId<'a> {
    /// The namespace index.
    pub(crate) namespace: u16,
    /// The identifier within the namespace.
    pub(crate) identifier: Identifier<'a>,
}

/// The identifier part of a [`NodeId`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Identifier<'a> {
    /// Numeric identifier (encoding byte 0x01 — four-byte form).
    Numeric(u32),
    /// String identifier (encoding byte 0x03).
    Str(Cow<'a, str>),
}

impl<'a> NodeId<'a> {
    /// A numeric node id.
    pub fn numeric(namespace: u16, id: u32) -> Self {
        NodeId {
            namespace,
            identifier: Identifier::Numeric(id),
        }
    }

    /// A string node id.
    pub fn string(namespace: u16, id: impl Into<Cow<'a, str>>) -> Self {
        NodeId {
            namespace,
            identifier: Identifier::Str(id.into()),
        }
    }

    /// The same id, borrowing this one's string.
    pub fn view(&self) -> NodeId<'_> {
        NodeId {
            namespace: self.namespace,
            identifier: match &self.identifier {
                Identifier::Numeric(id) => Identifier::Numeric(*id),
                Identifier::Str(s) => Identifier::Str(Cow::Borrowed(s)),
            },
        }
    }

    fn wire_len(&self) -> usize {
        match &self.identifier {
            Identifier::Numeric(_) => 1 + 2 + 4,
            Identifier::Str(s) => 1 + 2 + 4 + s.len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match &self.identifier {
            Identifier::Numeric(id) => {
                out.push(0x01);
                out.extend_from_slice(&self.namespace.to_le_bytes());
                out.extend_from_slice(&id.to_le_bytes());
            }
            Identifier::Str(s) => {
                out.push(0x03);
                out.extend_from_slice(&self.namespace.to_le_bytes());
                encode_string(s, out);
            }
        }
    }

    fn decode(r: &mut Cursor<'a>) -> Result<Self, ProtocolError> {
        match r.u8()? {
            0x01 => Ok(NodeId {
                namespace: r.u16_le()?,
                identifier: Identifier::Numeric(r.u32_le()?),
            }),
            0x03 => Ok(NodeId {
                namespace: r.u16_le()?,
                identifier: Identifier::Str(Cow::Borrowed(decode_string(r)?)),
            }),
            other => Err(ProtocolError::Unsupported {
                context: "opcua nodeid encoding",
                value: u64::from(other),
            }),
        }
    }
}

impl std::fmt::Display for NodeId<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.identifier {
            Identifier::Numeric(id) => write!(f, "ns={};i={}", self.namespace, id),
            Identifier::Str(s) => write!(f, "ns={};s={}", self.namespace, s),
        }
    }
}

/// A typed OPC UA value.
#[derive(Debug, Clone, PartialEq)]
pub enum Variant<'a> {
    /// Boolean (type 1).
    Boolean(bool),
    /// Int32 (type 6).
    Int32(i32),
    /// Int64 (type 8).
    Int64(i64),
    /// Double (type 11).
    Double(f64),
    /// String (type 12).
    Str(Cow<'a, str>),
    /// DateTime as milliseconds since the Unix epoch (type 13; real OPC UA
    /// uses 100 ns ticks since 1601 — the proxy converts at the boundary).
    DateTime(i64),
}

impl Variant<'_> {
    fn type_id(&self) -> u8 {
        match self {
            Variant::Boolean(_) => 1,
            Variant::Int32(_) => 6,
            Variant::Int64(_) => 8,
            Variant::Double(_) => 11,
            Variant::Str(_) => 12,
            Variant::DateTime(_) => 13,
        }
    }

    /// The value widened to `f64`, if numeric or boolean.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Variant::Boolean(b) => Some(f64::from(u8::from(*b))),
            Variant::Int32(v) => Some(f64::from(*v)),
            Variant::Int64(v) => Some(*v as f64),
            Variant::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// The same value, borrowing this one's string.
    fn view(&self) -> Variant<'_> {
        match self {
            Variant::Boolean(b) => Variant::Boolean(*b),
            Variant::Int32(v) => Variant::Int32(*v),
            Variant::Int64(v) => Variant::Int64(*v),
            Variant::Double(v) => Variant::Double(*v),
            Variant::Str(s) => Variant::Str(Cow::Borrowed(s)),
            Variant::DateTime(v) => Variant::DateTime(*v),
        }
    }

    fn into_owned(self) -> Variant<'static> {
        match self {
            Variant::Boolean(b) => Variant::Boolean(b),
            Variant::Int32(v) => Variant::Int32(v),
            Variant::Int64(v) => Variant::Int64(v),
            Variant::Double(v) => Variant::Double(v),
            Variant::Str(s) => Variant::Str(Cow::Owned(s.into_owned())),
            Variant::DateTime(v) => Variant::DateTime(v),
        }
    }

    fn wire_len(&self) -> usize {
        1 + match self {
            Variant::Boolean(_) => 1,
            Variant::Int32(_) => 4,
            Variant::Int64(_) | Variant::Double(_) | Variant::DateTime(_) => 8,
            Variant::Str(s) => 4 + s.len(),
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.type_id());
        match self {
            Variant::Boolean(b) => out.push(u8::from(*b)),
            Variant::Int32(v) => out.extend_from_slice(&v.to_le_bytes()),
            Variant::Int64(v) => out.extend_from_slice(&v.to_le_bytes()),
            Variant::Double(v) => out.extend_from_slice(&v.to_le_bytes()),
            Variant::Str(s) => encode_string(s, out),
            Variant::DateTime(v) => out.extend_from_slice(&v.to_le_bytes()),
        }
    }
}

impl<'a> Variant<'a> {
    fn decode(r: &mut Cursor<'a>) -> Result<Self, ProtocolError> {
        Ok(match r.u8()? {
            1 => Variant::Boolean(r.u8()? != 0),
            6 => Variant::Int32(r.u32_le()? as i32),
            8 => Variant::Int64(r.u64_le()? as i64),
            11 => Variant::Double(r.f64_le()?),
            12 => Variant::Str(Cow::Borrowed(decode_string(r)?)),
            13 => Variant::DateTime(r.u64_le()? as i64),
            other => {
                return Err(ProtocolError::Unsupported {
                    context: "opcua variant type",
                    value: u64::from(other),
                })
            }
        })
    }
}

/// An OPC UA status code; `0` is *Good*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StatusCode(pub u32);

impl StatusCode {
    /// The operation succeeded.
    pub(crate) const GOOD: StatusCode = StatusCode(0);
    /// The node id refers to a node that does not exist.
    pub(crate) const BAD_NODE_ID_UNKNOWN: StatusCode = StatusCode(0x8034_0000);
    /// The requested attribute is not supported by the node.
    pub(crate) const BAD_ATTRIBUTE_ID_INVALID: StatusCode = StatusCode(0x8035_0000);
    /// The node is not writable.
    pub(crate) const BAD_NOT_WRITABLE: StatusCode = StatusCode(0x803B_0000);
    /// The supplied value's type does not match the variable's type.
    pub(crate) const BAD_TYPE_MISMATCH: StatusCode = StatusCode(0x8074_0000);

    /// Whether the code reports success.
    pub fn is_good(self) -> bool {
        self.0 & 0x8000_0000 == 0
    }
}

/// A value with quality and source timestamp, as returned by Read.
#[derive(Debug, Clone, PartialEq)]
pub struct DataValue<'a> {
    /// The value, absent when `status` is bad.
    pub value: Option<Variant<'a>>,
    /// The quality of the value.
    pub status: StatusCode,
    /// When the underlying source produced the value (Unix millis).
    pub(crate) source_timestamp: Option<i64>,
}

impl<'a> DataValue<'a> {
    /// A good value stamped at `timestamp_millis`.
    pub fn good(value: Variant<'a>, timestamp_millis: i64) -> Self {
        DataValue {
            value: Some(value),
            status: StatusCode::GOOD,
            source_timestamp: Some(timestamp_millis),
        }
    }

    /// A bad-quality placeholder carrying only a status.
    pub(crate) fn bad(status: StatusCode) -> Self {
        DataValue {
            value: None,
            status,
            source_timestamp: None,
        }
    }
}

/// An element of a [`Seq`]: an item of one of the service arrays. It is
/// `pub` only because [`Seq::iter`]'s bound names it; no other crate
/// implements or calls it.
pub trait Item<'a>: Sized + Clone {
    /// Reads one item.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncation or an unsupported field.
    fn read(r: &mut Cursor<'a>) -> Result<Self, ProtocolError>;
    /// Its encoded length.
    fn wire_len(&self) -> usize;
    /// Appends its encoding to `out`.
    fn write(&self, out: &mut Vec<u8>);
}

impl<'a> Item<'a> for DataValue<'a> {
    fn read(r: &mut Cursor<'a>) -> Result<Self, ProtocolError> {
        let mask = r.u8()?;
        let value = if mask & 0x01 != 0 {
            Some(Variant::decode(r)?)
        } else {
            None
        };
        let status = if mask & 0x02 != 0 {
            StatusCode(r.u32_le()?)
        } else {
            StatusCode::GOOD
        };
        let source_timestamp = if mask & 0x04 != 0 {
            Some(r.u64_le()? as i64)
        } else {
            None
        };
        Ok(DataValue {
            value,
            status,
            source_timestamp,
        })
    }

    fn wire_len(&self) -> usize {
        1 + self.value.as_ref().map_or(0, Variant::wire_len)
            + 4
            + if self.source_timestamp.is_some() {
                8
            } else {
                0
            }
    }

    fn write(&self, out: &mut Vec<u8>) {
        let mut mask = 0u8;
        if self.value.is_some() {
            mask |= 0x01;
        }
        mask |= 0x02; // status always present
        if self.source_timestamp.is_some() {
            mask |= 0x04;
        }
        out.push(mask);
        if let Some(v) = &self.value {
            v.encode_into(out);
        }
        out.extend_from_slice(&self.status.0.to_le_bytes());
        if let Some(t) = self.source_timestamp {
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
}

/// The attribute of a node a service addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttributeId {
    /// The node's class (object/variable).
    NodeClass,
    /// The browse name.
    BrowseName,
    /// The current value (variables only).
    Value,
}

impl AttributeId {
    fn id(self) -> u32 {
        match self {
            AttributeId::NodeClass => 2,
            AttributeId::BrowseName => 3,
            AttributeId::Value => 13,
        }
    }

    fn from_id(id: u32) -> Result<Self, ProtocolError> {
        match id {
            2 => Ok(AttributeId::NodeClass),
            3 => Ok(AttributeId::BrowseName),
            13 => Ok(AttributeId::Value),
            other => Err(ProtocolError::Unsupported {
                context: "opcua attribute id",
                value: u64::from(other),
            }),
        }
    }
}

/// The class of an address-space node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum NodeClass {
    /// A folder/object node.
    Object,
    /// A variable node holding a value.
    Variable,
}

impl NodeClass {
    fn id(self) -> i32 {
        match self {
            NodeClass::Object => 1,
            NodeClass::Variable => 2,
        }
    }

    fn from_id(id: i32) -> Result<Self, ProtocolError> {
        match id {
            1 => Ok(NodeClass::Object),
            2 => Ok(NodeClass::Variable),
            other => Err(ProtocolError::Unsupported {
                context: "opcua node class",
                value: other as u64,
            }),
        }
    }
}

/// One read target: a node attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadValueId<'a> {
    /// The node to read.
    pub node_id: NodeId<'a>,
    /// Which attribute of the node.
    pub attribute: AttributeId,
}

impl<'a> Item<'a> for ReadValueId<'a> {
    fn read(r: &mut Cursor<'a>) -> Result<Self, ProtocolError> {
        let node_id = NodeId::decode(r)?;
        let attribute = AttributeId::from_id(r.u32_le()?)?;
        Ok(ReadValueId { node_id, attribute })
    }

    fn wire_len(&self) -> usize {
        self.node_id.wire_len() + 4
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.node_id.encode_into(out);
        out.extend_from_slice(&self.attribute.id().to_le_bytes());
    }
}

/// One write target with the value to write.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteValue<'a> {
    /// The node to write.
    pub node_id: NodeId<'a>,
    /// Which attribute (only [`AttributeId::Value`] is writable).
    pub attribute: AttributeId,
    /// The value to write.
    pub value: Variant<'a>,
}

impl<'a> Item<'a> for WriteValue<'a> {
    fn read(r: &mut Cursor<'a>) -> Result<Self, ProtocolError> {
        let node_id = NodeId::decode(r)?;
        let attribute = AttributeId::from_id(r.u32_le()?)?;
        let value = Variant::decode(r)?;
        Ok(WriteValue {
            node_id,
            attribute,
            value,
        })
    }

    fn wire_len(&self) -> usize {
        self.node_id.wire_len() + 4 + self.value.wire_len()
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.node_id.encode_into(out);
        out.extend_from_slice(&self.attribute.id().to_le_bytes());
        self.value.encode_into(out);
    }
}

impl<'a> Item<'a> for StatusCode {
    fn read(r: &mut Cursor<'a>) -> Result<Self, ProtocolError> {
        Ok(StatusCode(r.u32_le()?))
    }

    fn wire_len(&self) -> usize {
        4
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
}

/// A browse result entry: one forward reference from the browsed node.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceDescription<'a> {
    /// The target node.
    pub node_id: NodeId<'a>,
    /// Its browse name.
    pub(crate) browse_name: &'a str,
    /// Its class.
    pub(crate) node_class: NodeClass,
}

impl<'a> Item<'a> for ReferenceDescription<'a> {
    fn read(r: &mut Cursor<'a>) -> Result<Self, ProtocolError> {
        let node_id = NodeId::decode(r)?;
        let browse_name = decode_string(r)?;
        let node_class = NodeClass::from_id(r.u32_le()? as i32)?;
        Ok(ReferenceDescription {
            node_id,
            browse_name,
            node_class,
        })
    }

    fn wire_len(&self) -> usize {
        self.node_id.wire_len() + 4 + self.browse_name.len() + 4
    }

    fn write(&self, out: &mut Vec<u8>) {
        self.node_id.encode_into(out);
        encode_string(self.browse_name, out);
        out.extend_from_slice(&self.node_class.id().to_le_bytes());
    }
}

/// An array of a [`Message`]: the sender's items, or the items of a
/// decoded message, checked and left in their wire bytes.
#[derive(Debug, Clone)]
pub struct Seq<'a, T> {
    items: Items<'a, T>,
}

#[derive(Debug, Clone)]
enum Items<'a, T> {
    /// Listed by the sender.
    Listed(&'a [T]),
    /// Decoded: `len` items in `bytes`, each read once by
    /// [`Message::decode`].
    Wire { len: usize, bytes: &'a [u8] },
}

impl<'a, T> From<&'a [T]> for Seq<'a, T> {
    fn from(items: &'a [T]) -> Self {
        Seq {
            items: Items::Listed(items),
        }
    }
}

impl<'a, T, const N: usize> From<&'a [T; N]> for Seq<'a, T> {
    fn from(items: &'a [T; N]) -> Self {
        Seq {
            items: Items::Listed(items),
        }
    }
}

impl<'a, T: Item<'a>> Seq<'a, T> {
    /// The items, in wire order.
    pub fn iter(&self) -> SeqIter<'a, T> {
        SeqIter {
            items: self.items.clone(),
        }
    }

    /// Reads a length-prefixed array, checking every item.
    fn decode(r: &mut Cursor<'a>) -> Result<Self, ProtocolError> {
        let len = decode_len(r)?;
        let mut start = r.clone();
        for _ in 0..len {
            T::read(r)?;
        }
        let bytes = start.take(start.remaining() - r.remaining())?;
        Ok(Seq {
            items: Items::Wire { len, bytes },
        })
    }
}

impl<'a, T: Item<'a> + PartialEq> PartialEq for Seq<'a, T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// The iterator of [`Seq::iter`].
#[derive(Debug, Clone)]
pub struct SeqIter<'a, T> {
    items: Items<'a, T>,
}

impl<'a, T: Item<'a>> Iterator for SeqIter<'a, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.items {
            Items::Listed(list) => {
                let (first, rest) = list.split_first()?;
                *list = rest;
                Some(first.clone())
            }
            Items::Wire { len, bytes } => {
                *len = len.checked_sub(1)?;
                // `Seq::decode` read this item once already, so the read
                // succeeds.
                let mut r = Cursor::new(bytes, CTX);
                let item = T::read(&mut r).ok()?;
                *bytes = r.rest();
                Some(item)
            }
        }
    }
}

/// Encodes a message of one service: its byte, `prefix`, then `items`
/// as a length-prefixed array, into an exact-size buffer. `items` is
/// walked twice, once to size the buffer.
fn encode_array<'a, T: Item<'a>>(
    service: u8,
    prefix: &[u8],
    items: impl Iterator<Item = T> + Clone,
) -> Vec<u8> {
    let (count, len) = items.clone().fold((0, 0), |(count, len), item| {
        (count + 1, len + item.wire_len())
    });
    let mut out = Vec::with_capacity(1 + prefix.len() + 4 + len);
    out.push(service);
    out.extend_from_slice(prefix);
    encode_len(count, &mut out);
    for item in items {
        item.write(&mut out);
    }
    out
}

/// The service byte of a read response.
const READ_RESPONSE: u8 = 2;

/// An OPC UA service message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message<'a> {
    /// Read one or more attributes.
    ReadRequest {
        /// The attributes to read.
        nodes: Seq<'a, ReadValueId<'a>>,
    },
    /// Results in request order.
    ReadResponse {
        /// One result per requested attribute.
        results: Seq<'a, DataValue<'a>>,
    },
    /// Write one or more values.
    WriteRequest {
        /// The writes to perform.
        nodes: Seq<'a, WriteValue<'a>>,
    },
    /// Per-write status codes in request order.
    WriteResponse {
        /// One status per requested write.
        results: Seq<'a, StatusCode>,
    },
    /// Browse the forward references of one node.
    BrowseRequest {
        /// The node to browse.
        node_id: NodeId<'a>,
    },
    /// The references found.
    BrowseResponse {
        /// Status of the browse itself.
        status: StatusCode,
        /// One entry per child.
        references: Seq<'a, ReferenceDescription<'a>>,
    },
}

impl<'a> Message<'a> {
    /// Encodes the message in OPC UA binary style with a leading service
    /// discriminator byte, into an exact-size buffer.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::ReadRequest { nodes } => encode_array(1, &[], nodes.iter()),
            Message::ReadResponse { results } => encode_array(READ_RESPONSE, &[], results.iter()),
            Message::WriteRequest { nodes } => encode_array(3, &[], nodes.iter()),
            Message::WriteResponse { results } => encode_array(4, &[], results.iter()),
            Message::BrowseRequest { node_id } => {
                let mut out = Vec::with_capacity(1 + node_id.wire_len());
                out.push(5);
                node_id.encode_into(&mut out);
                out
            }
            Message::BrowseResponse { status, references } => {
                encode_array(6, &status.0.to_le_bytes(), references.iter())
            }
        }
    }

    /// Decodes a message produced by [`Message::encode`], checking every
    /// array item; strings and arrays borrow `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncation or unknown discriminators.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, ProtocolError> {
        let mut r = Cursor::new(bytes, CTX);
        let msg = match r.u8()? {
            1 => Message::ReadRequest {
                nodes: Seq::decode(&mut r)?,
            },
            READ_RESPONSE => Message::ReadResponse {
                results: Seq::decode(&mut r)?,
            },
            3 => Message::WriteRequest {
                nodes: Seq::decode(&mut r)?,
            },
            4 => Message::WriteResponse {
                results: Seq::decode(&mut r)?,
            },
            5 => Message::BrowseRequest {
                node_id: NodeId::decode(&mut r)?,
            },
            6 => Message::BrowseResponse {
                status: StatusCode(r.u32_le()?),
                references: Seq::decode(&mut r)?,
            },
            other => {
                return Err(ProtocolError::Unsupported {
                    context: "opcua service",
                    value: u64::from(other),
                })
            }
        };
        r.finish(ProtocolError::Malformed {
            reason: "trailing bytes after opcua message",
        })?;
        Ok(msg)
    }
}

fn encode_len(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn decode_len(r: &mut Cursor<'_>) -> Result<usize, ProtocolError> {
    let n = r.u32_le()? as usize;
    if n > 1_000_000 {
        return Err(ProtocolError::Malformed {
            reason: "implausible array length",
        });
    }
    Ok(n)
}

fn encode_string(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as i32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn decode_string<'a>(r: &mut Cursor<'a>) -> Result<&'a str, ProtocolError> {
    let len = r.u32_le()? as i32;
    if len < 0 {
        return Ok("");
    }
    let bytes = r.take(len as usize)?;
    std::str::from_utf8(bytes).map_err(|_| ProtocolError::Malformed {
        reason: "string is not valid utf-8",
    })
}

/// An address-space key: an owned node id that lookups borrow as a
/// `NodeId` of any lifetime, so a decoded request finds its node
/// without copying the id.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key(NodeId<'static>);

impl<'a> Borrow<NodeId<'a>> for Key {
    fn borrow(&self) -> &NodeId<'a> {
        &self.0
    }
}

struct SpaceNode {
    browse_name: String,
    node_class: NodeClass,
    value: Option<DataValue<'static>>,
    writable: bool,
    children: Vec<NodeId<'static>>,
}

/// A server-side address space answering Read/Write/Browse, reached
/// through the field server that owns it:
///
/// ```
/// use dimmer_core::QuantityKind;
/// use protocols::device::OpcUaFieldServer;
/// use protocols::opcua::{AttributeId, Message, ReadValueId};
/// let mut server = OpcUaFieldServer::new(QuantityKind::Temperature);
/// server.update(71.5, 0);
/// let read = [ReadValueId {
///     node_id: server.value_node().clone(),
///     attribute: AttributeId::Value,
/// }];
/// let request = Message::ReadRequest { nodes: (&read).into() };
/// let response = server.handle_bytes(&request.encode()).unwrap();
/// match Message::decode(&response).unwrap() {
///     Message::ReadResponse { results } => {
///         assert!(results.iter().all(|r| r.status.is_good()))
///     }
///     _ => unreachable!(),
/// }
/// ```
#[derive(Default)]
pub(crate) struct AddressSpace {
    nodes: BTreeMap<Key, SpaceNode>,
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressSpace")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub(crate) fn new() -> Self {
        AddressSpace::default()
    }

    /// Adds an object (folder) node, optionally under `parent`.
    pub(crate) fn add_object(
        &mut self,
        id: NodeId<'static>,
        browse_name: impl Into<String>,
        parent: Option<&NodeId<'_>>,
    ) {
        self.add(
            id,
            browse_name.into(),
            NodeClass::Object,
            None,
            false,
            parent,
        );
    }

    /// Adds a variable node, optionally under `parent`.
    pub(crate) fn add_variable(
        &mut self,
        id: NodeId<'static>,
        browse_name: impl Into<String>,
        parent: Option<&NodeId<'_>>,
        writable: bool,
    ) {
        self.add(
            id,
            browse_name.into(),
            NodeClass::Variable,
            Some(DataValue::bad(StatusCode::GOOD)),
            writable,
            parent,
        );
    }

    fn add(
        &mut self,
        id: NodeId<'static>,
        browse_name: String,
        node_class: NodeClass,
        value: Option<DataValue<'static>>,
        writable: bool,
        parent: Option<&NodeId<'_>>,
    ) {
        self.nodes.insert(
            Key(id.clone()),
            SpaceNode {
                browse_name,
                node_class,
                value,
                writable,
                children: Vec::new(),
            },
        );
        if let Some(p) = parent {
            if let Some(pn) = self.nodes.get_mut(p) {
                pn.children.push(id);
            }
        }
    }

    /// Sets a variable's current value (server-internal update).
    ///
    /// # Errors
    ///
    /// Returns [`StatusCode::BAD_NODE_ID_UNKNOWN`] if the node does not
    /// exist or is not a variable.
    pub(crate) fn set_value(
        &mut self,
        id: &NodeId<'_>,
        value: Variant<'static>,
        timestamp_millis: i64,
    ) -> Result<(), StatusCode> {
        match self.nodes.get_mut(id) {
            Some(node) if node.node_class == NodeClass::Variable => {
                node.value = Some(DataValue::good(value, timestamp_millis));
                Ok(())
            }
            _ => Err(StatusCode::BAD_NODE_ID_UNKNOWN),
        }
    }

    /// Answers a service request with the encoded response. Requests
    /// that are themselves responses yield an empty `ReadResponse`
    /// (servers ignore them). A read is answered in one exact-size
    /// buffer, its results written straight from the space.
    pub(crate) fn handle(&mut self, request: &Message<'_>) -> Vec<u8> {
        match request {
            Message::ReadRequest { nodes } => encode_array(
                READ_RESPONSE,
                &[],
                nodes.iter().map(|rv| self.read_one(&rv)),
            ),
            Message::WriteRequest { nodes } => {
                let results: Vec<StatusCode> = nodes.iter().map(|wv| self.write_one(wv)).collect();
                Message::WriteResponse {
                    results: results.as_slice().into(),
                }
                .encode()
            }
            Message::BrowseRequest { node_id } => match self.nodes.get(node_id) {
                Some(node) => {
                    let references: Vec<ReferenceDescription<'_>> = node
                        .children
                        .iter()
                        .filter_map(|c| {
                            self.nodes.get(c).map(|cn| ReferenceDescription {
                                node_id: c.view(),
                                browse_name: &cn.browse_name,
                                node_class: cn.node_class,
                            })
                        })
                        .collect();
                    Message::BrowseResponse {
                        status: StatusCode::GOOD,
                        references: references.as_slice().into(),
                    }
                    .encode()
                }
                None => Message::BrowseResponse {
                    status: StatusCode::BAD_NODE_ID_UNKNOWN,
                    references: (&[]).into(),
                }
                .encode(),
            },
            _ => Message::ReadResponse {
                results: (&[]).into(),
            }
            .encode(),
        }
    }

    fn read_one(&self, rv: &ReadValueId<'_>) -> DataValue<'_> {
        let Some(node) = self.nodes.get(&rv.node_id) else {
            return DataValue::bad(StatusCode::BAD_NODE_ID_UNKNOWN);
        };
        match rv.attribute {
            // The stored value, its string (if any) borrowed, not copied.
            AttributeId::Value => match &node.value {
                Some(stored) => DataValue {
                    value: stored.value.as_ref().map(Variant::view),
                    status: stored.status,
                    source_timestamp: stored.source_timestamp,
                },
                None => DataValue::bad(StatusCode::BAD_ATTRIBUTE_ID_INVALID),
            },
            AttributeId::BrowseName => {
                DataValue::good(Variant::Str(Cow::Borrowed(&node.browse_name)), 0)
            }
            AttributeId::NodeClass => DataValue::good(Variant::Int32(node.node_class.id()), 0),
        }
    }

    fn write_one(&mut self, wv: WriteValue<'_>) -> StatusCode {
        if wv.attribute != AttributeId::Value {
            return StatusCode::BAD_ATTRIBUTE_ID_INVALID;
        }
        match self.nodes.get_mut(&wv.node_id) {
            None => StatusCode::BAD_NODE_ID_UNKNOWN,
            Some(node) => {
                if node.node_class != NodeClass::Variable {
                    return StatusCode::BAD_ATTRIBUTE_ID_INVALID;
                }
                if !node.writable {
                    return StatusCode::BAD_NOT_WRITABLE;
                }
                // Type check against the current value, if one exists.
                if let Some(DataValue {
                    value: Some(current),
                    ..
                }) = &node.value
                {
                    if std::mem::discriminant(current) != std::mem::discriminant(&wv.value) {
                        return StatusCode::BAD_TYPE_MISMATCH;
                    }
                }
                node.value = Some(DataValue::good(wv.value.into_owned(), 0));
                StatusCode::GOOD
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (
        AddressSpace,
        NodeId<'static>,
        NodeId<'static>,
        NodeId<'static>,
    ) {
        let mut s = AddressSpace::new();
        let root = NodeId::numeric(1, 1);
        let temp = NodeId::string(1, "plant.supply_temp");
        let setpoint = NodeId::string(1, "plant.setpoint");
        s.add_object(root.clone(), "Plant", None);
        s.add_variable(temp.clone(), "SupplyTemp", Some(&root), false);
        s.add_variable(setpoint.clone(), "Setpoint", Some(&root), true);
        s.set_value(&temp, Variant::Double(71.5), 1000).unwrap();
        s.set_value(&setpoint, Variant::Double(65.0), 1000).unwrap();
        (s, root, temp, setpoint)
    }

    #[test]
    fn all_messages_round_trip() {
        let reads = [
            ReadValueId {
                node_id: NodeId::numeric(2, 42),
                attribute: AttributeId::Value,
            },
            ReadValueId {
                node_id: NodeId::string(0, "x"),
                attribute: AttributeId::BrowseName,
            },
        ];
        let results = [
            DataValue::good(Variant::Double(1.5), 123),
            DataValue::bad(StatusCode::BAD_NODE_ID_UNKNOWN),
            DataValue::good(Variant::Str("té".into()), 0),
            DataValue::good(Variant::Boolean(true), -5),
            DataValue::good(Variant::Int64(i64::MIN), 0),
            DataValue::good(Variant::DateTime(1_425_900_000_000), 0),
        ];
        let writes = [WriteValue {
            node_id: NodeId::string(1, "sp"),
            attribute: AttributeId::Value,
            value: Variant::Int32(-7),
        }];
        let references = [ReferenceDescription {
            node_id: NodeId::string(1, "child"),
            browse_name: "Child",
            node_class: NodeClass::Variable,
        }];
        let messages = [
            Message::ReadRequest {
                nodes: (&reads).into(),
            },
            Message::ReadResponse {
                results: (&results).into(),
            },
            Message::WriteRequest {
                nodes: (&writes).into(),
            },
            Message::WriteResponse {
                results: (&[StatusCode::GOOD, StatusCode::BAD_NOT_WRITABLE]).into(),
            },
            Message::BrowseRequest {
                node_id: NodeId::numeric(1, 1),
            },
            Message::BrowseResponse {
                status: StatusCode::GOOD,
                references: (&references).into(),
            },
        ];
        for m in &messages {
            let bytes = m.encode();
            assert_eq!(bytes.capacity(), bytes.len(), "sized up front");
            let back = Message::decode(&bytes).unwrap();
            assert_eq!(&back, m);
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let results = [DataValue::good(Variant::Str("hello".into()), 9)];
        let m = Message::ReadResponse {
            results: (&results).into(),
        };
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn read_value_and_metadata() {
        let (mut s, root, temp, _) = space();
        let reads = [
            ReadValueId {
                node_id: temp.clone(),
                attribute: AttributeId::Value,
            },
            ReadValueId {
                node_id: temp.clone(),
                attribute: AttributeId::BrowseName,
            },
            ReadValueId {
                node_id: root,
                attribute: AttributeId::NodeClass,
            },
            ReadValueId {
                node_id: NodeId::numeric(9, 9),
                attribute: AttributeId::Value,
            },
        ];
        let resp = s.handle(&Message::ReadRequest {
            nodes: (&reads).into(),
        });
        assert_eq!(resp.capacity(), resp.len(), "sized up front");
        let Message::ReadResponse { results } = Message::decode(&resp).unwrap() else {
            panic!("wrong response type");
        };
        let results: Vec<DataValue> = results.iter().collect();
        assert_eq!(results[0].value, Some(Variant::Double(71.5)));
        assert_eq!(results[0].source_timestamp, Some(1000));
        assert_eq!(results[1].value, Some(Variant::Str("SupplyTemp".into())));
        assert_eq!(results[2].value, Some(Variant::Int32(1)));
        assert_eq!(results[3].status, StatusCode::BAD_NODE_ID_UNKNOWN);
    }

    #[test]
    fn write_rules_enforced() {
        let (mut s, _, temp, setpoint) = space();
        let writes = [
            WriteValue {
                node_id: setpoint.clone(),
                attribute: AttributeId::Value,
                value: Variant::Double(60.0),
            },
            WriteValue {
                node_id: temp, // read-only
                attribute: AttributeId::Value,
                value: Variant::Double(0.0),
            },
            WriteValue {
                node_id: setpoint.clone(), // type mismatch
                attribute: AttributeId::Value,
                value: Variant::Boolean(true),
            },
            WriteValue {
                node_id: setpoint.clone(), // non-value attribute
                attribute: AttributeId::BrowseName,
                value: Variant::Str("nope".into()),
            },
        ];
        let resp = s.handle(&Message::WriteRequest {
            nodes: (&writes).into(),
        });
        let Message::WriteResponse { results } = Message::decode(&resp).unwrap() else {
            panic!("wrong response type");
        };
        let results: Vec<StatusCode> = results.iter().collect();
        assert_eq!(results[0], StatusCode::GOOD);
        assert_eq!(results[1], StatusCode::BAD_NOT_WRITABLE);
        assert_eq!(results[2], StatusCode::BAD_TYPE_MISMATCH);
        assert_eq!(results[3], StatusCode::BAD_ATTRIBUTE_ID_INVALID);
        assert_eq!(
            s.nodes[&setpoint].value.as_ref().unwrap().value,
            Some(Variant::Double(60.0))
        );
    }

    #[test]
    fn browse_lists_children() {
        let (mut s, root, _, _) = space();
        let resp = s.handle(&Message::BrowseRequest { node_id: root });
        let Message::BrowseResponse { status, references } = Message::decode(&resp).unwrap() else {
            panic!("wrong response type");
        };
        assert!(status.is_good());
        let names: Vec<&str> = references.iter().map(|r| r.browse_name).collect();
        assert_eq!(names, vec!["SupplyTemp", "Setpoint"]);
    }

    #[test]
    fn browse_unknown_node_is_bad() {
        let (mut s, ..) = space();
        let resp = s.handle(&Message::BrowseRequest {
            node_id: NodeId::numeric(7, 7),
        });
        let Message::BrowseResponse { status, references } = Message::decode(&resp).unwrap() else {
            panic!("wrong response type");
        };
        assert!(!status.is_good());
        assert_eq!(references.iter().count(), 0);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::numeric(2, 42).to_string(), "ns=2;i=42");
        assert_eq!(NodeId::string(1, "a.b").to_string(), "ns=1;s=a.b");
    }

    #[test]
    fn implausible_length_rejected() {
        let mut bytes = Message::ReadRequest {
            nodes: (&[]).into(),
        }
        .encode();
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Message::decode(&bytes).is_err());
    }

    #[test]
    fn variant_as_f64() {
        assert_eq!(Variant::Boolean(true).as_f64(), Some(1.0));
        assert_eq!(Variant::Int32(-3).as_f64(), Some(-3.0));
        assert_eq!(Variant::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Variant::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn status_code_goodness() {
        assert!(StatusCode::GOOD.is_good());
        assert!(!StatusCode::BAD_NOT_WRITABLE.is_good());
    }
}
