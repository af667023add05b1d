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

use std::collections::BTreeMap;

use crate::ieee802154::Reader;
use crate::ProtocolError;

/// An OPC UA node identifier: a namespace index plus a numeric or string
/// identifier.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    /// The namespace index.
    pub(crate) namespace: u16,
    /// The identifier within the namespace.
    pub(crate) identifier: Identifier,
}

/// The identifier part of a [`NodeId`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Identifier {
    /// Numeric identifier (encoding byte 0x01 — four-byte form).
    Numeric(u32),
    /// String identifier (encoding byte 0x03).
    Str(String),
}

impl NodeId {
    /// A numeric node id.
    pub fn numeric(namespace: u16, id: u32) -> Self {
        NodeId {
            namespace,
            identifier: Identifier::Numeric(id),
        }
    }

    /// A string node id.
    pub fn string(namespace: u16, id: impl Into<String>) -> Self {
        NodeId {
            namespace,
            identifier: Identifier::Str(id.into()),
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

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        match r.u8()? {
            0x01 => Ok(NodeId {
                namespace: r.u16()?,
                identifier: Identifier::Numeric(r.u32()?),
            }),
            0x03 => Ok(NodeId {
                namespace: r.u16()?,
                identifier: Identifier::Str(decode_string(r)?),
            }),
            other => Err(ProtocolError::Unsupported {
                context: "opcua nodeid encoding",
                value: u64::from(other),
            }),
        }
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.identifier {
            Identifier::Numeric(id) => write!(f, "ns={};i={}", self.namespace, id),
            Identifier::Str(s) => write!(f, "ns={};s={}", self.namespace, s),
        }
    }
}

/// A typed OPC UA value.
#[derive(Debug, Clone, PartialEq)]
pub enum Variant {
    /// Boolean (type 1).
    Boolean(bool),
    /// Int32 (type 6).
    Int32(i32),
    /// Int64 (type 8).
    Int64(i64),
    /// Double (type 11).
    Double(f64),
    /// String (type 12).
    Str(String),
    /// DateTime as milliseconds since the Unix epoch (type 13; real OPC UA
    /// uses 100 ns ticks since 1601 — the proxy converts at the boundary).
    DateTime(i64),
}

impl Variant {
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

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        Ok(match r.u8()? {
            1 => Variant::Boolean(r.u8()? != 0),
            6 => Variant::Int32(r.u32()? as i32),
            8 => Variant::Int64(r.u64()? as i64),
            11 => Variant::Double(f64::from_le_bytes(
                r.take(8)?.try_into().expect("length checked"),
            )),
            12 => Variant::Str(decode_string(r)?),
            13 => Variant::DateTime(r.u64()? as i64),
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
pub struct DataValue {
    /// The value, absent when `status` is bad.
    pub value: Option<Variant>,
    /// The quality of the value.
    pub status: StatusCode,
    /// When the underlying source produced the value (Unix millis).
    pub(crate) source_timestamp: Option<i64>,
}

impl DataValue {
    /// A good value stamped at `timestamp_millis`.
    pub fn good(value: Variant, timestamp_millis: i64) -> Self {
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

    fn encode_into(&self, out: &mut Vec<u8>) {
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

    fn decode(r: &mut Reader<'_>) -> Result<Self, ProtocolError> {
        let mask = r.u8()?;
        let value = if mask & 0x01 != 0 {
            Some(Variant::decode(r)?)
        } else {
            None
        };
        let status = if mask & 0x02 != 0 {
            StatusCode(r.u32()?)
        } else {
            StatusCode::GOOD
        };
        let source_timestamp = if mask & 0x04 != 0 {
            Some(r.u64()? as i64)
        } else {
            None
        };
        Ok(DataValue {
            value,
            status,
            source_timestamp,
        })
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
pub struct ReadValueId {
    /// The node to read.
    pub node_id: NodeId,
    /// Which attribute of the node.
    pub attribute: AttributeId,
}

/// One write target with the value to write.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteValue {
    /// The node to write.
    pub node_id: NodeId,
    /// Which attribute (only [`AttributeId::Value`] is writable).
    pub attribute: AttributeId,
    /// The value to write.
    pub value: Variant,
}

/// A browse result entry: one forward reference from the browsed node.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceDescription {
    /// The target node.
    pub node_id: NodeId,
    /// Its browse name.
    pub(crate) browse_name: String,
    /// Its class.
    pub(crate) node_class: NodeClass,
}

/// An OPC UA service message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Read one or more attributes.
    ReadRequest {
        /// The attributes to read.
        nodes: Vec<ReadValueId>,
    },
    /// Results in request order.
    ReadResponse {
        /// One result per requested attribute.
        results: Vec<DataValue>,
    },
    /// Write one or more values.
    WriteRequest {
        /// The writes to perform.
        nodes: Vec<WriteValue>,
    },
    /// Per-write status codes in request order.
    WriteResponse {
        /// One status per requested write.
        results: Vec<StatusCode>,
    },
    /// Browse the forward references of one node.
    BrowseRequest {
        /// The node to browse.
        node_id: NodeId,
    },
    /// The references found.
    BrowseResponse {
        /// Status of the browse itself.
        status: StatusCode,
        /// One entry per child.
        references: Vec<ReferenceDescription>,
    },
}

impl Message {
    /// Encodes the message in OPC UA binary style with a leading service
    /// discriminator byte.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Message::ReadRequest { nodes } => {
                out.push(1);
                encode_len(nodes.len(), &mut out);
                for n in nodes {
                    n.node_id.encode_into(&mut out);
                    out.extend_from_slice(&n.attribute.id().to_le_bytes());
                }
            }
            Message::ReadResponse { results } => {
                out.push(2);
                encode_len(results.len(), &mut out);
                for r in results {
                    r.encode_into(&mut out);
                }
            }
            Message::WriteRequest { nodes } => {
                out.push(3);
                encode_len(nodes.len(), &mut out);
                for n in nodes {
                    n.node_id.encode_into(&mut out);
                    out.extend_from_slice(&n.attribute.id().to_le_bytes());
                    n.value.encode_into(&mut out);
                }
            }
            Message::WriteResponse { results } => {
                out.push(4);
                encode_len(results.len(), &mut out);
                for r in results {
                    out.extend_from_slice(&r.0.to_le_bytes());
                }
            }
            Message::BrowseRequest { node_id } => {
                out.push(5);
                node_id.encode_into(&mut out);
            }
            Message::BrowseResponse { status, references } => {
                out.push(6);
                out.extend_from_slice(&status.0.to_le_bytes());
                encode_len(references.len(), &mut out);
                for r in references {
                    r.node_id.encode_into(&mut out);
                    encode_string(&r.browse_name, &mut out);
                    out.extend_from_slice(&r.node_class.id().to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes a message produced by [`Message::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on truncation or unknown discriminators.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtocolError> {
        const CTX: &str = "opcua message";
        let mut r = Reader::new(bytes, CTX);
        let msg = match r.u8()? {
            1 => {
                let n = decode_len(&mut r)?;
                let mut nodes = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let node_id = NodeId::decode(&mut r)?;
                    let attribute = AttributeId::from_id(r.u32()?)?;
                    nodes.push(ReadValueId { node_id, attribute });
                }
                Message::ReadRequest { nodes }
            }
            2 => {
                let n = decode_len(&mut r)?;
                let mut results = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    results.push(DataValue::decode(&mut r)?);
                }
                Message::ReadResponse { results }
            }
            3 => {
                let n = decode_len(&mut r)?;
                let mut nodes = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let node_id = NodeId::decode(&mut r)?;
                    let attribute = AttributeId::from_id(r.u32()?)?;
                    let value = Variant::decode(&mut r)?;
                    nodes.push(WriteValue {
                        node_id,
                        attribute,
                        value,
                    });
                }
                Message::WriteRequest { nodes }
            }
            4 => {
                let n = decode_len(&mut r)?;
                let mut results = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    results.push(StatusCode(r.u32()?));
                }
                Message::WriteResponse { results }
            }
            5 => Message::BrowseRequest {
                node_id: NodeId::decode(&mut r)?,
            },
            6 => {
                let status = StatusCode(r.u32()?);
                let n = decode_len(&mut r)?;
                let mut references = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let node_id = NodeId::decode(&mut r)?;
                    let browse_name = decode_string(&mut r)?;
                    let node_class = NodeClass::from_id(r.u32()? as i32)?;
                    references.push(ReferenceDescription {
                        node_id,
                        browse_name,
                        node_class,
                    });
                }
                Message::BrowseResponse { status, references }
            }
            other => {
                return Err(ProtocolError::Unsupported {
                    context: "opcua service",
                    value: u64::from(other),
                })
            }
        };
        if r.remaining() != 0 {
            return Err(ProtocolError::Malformed {
                reason: "trailing bytes after opcua message",
            });
        }
        Ok(msg)
    }
}

fn encode_len(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn decode_len(r: &mut Reader<'_>) -> Result<usize, ProtocolError> {
    let n = r.u32()? as usize;
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

fn decode_string(r: &mut Reader<'_>) -> Result<String, ProtocolError> {
    let len = r.u32()? as i32;
    if len < 0 {
        return Ok(String::new());
    }
    let bytes = r.take(len as usize)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Malformed {
        reason: "string is not valid utf-8",
    })
}

struct SpaceNode {
    browse_name: String,
    node_class: NodeClass,
    value: Option<DataValue>,
    writable: bool,
    children: Vec<NodeId>,
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
/// let request = Message::ReadRequest {
///     nodes: vec![ReadValueId {
///         node_id: server.value_node().clone(),
///         attribute: AttributeId::Value,
///     }],
/// };
/// let response = server.handle_bytes(&request.encode()).unwrap();
/// match Message::decode(&response).unwrap() {
///     Message::ReadResponse { results } => assert!(results[0].status.is_good()),
///     _ => unreachable!(),
/// }
/// ```
#[derive(Default)]
pub(crate) struct AddressSpace {
    nodes: BTreeMap<NodeId, SpaceNode>,
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
        id: NodeId,
        browse_name: impl Into<String>,
        parent: Option<&NodeId>,
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
        id: NodeId,
        browse_name: impl Into<String>,
        parent: Option<&NodeId>,
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
        id: NodeId,
        browse_name: String,
        node_class: NodeClass,
        value: Option<DataValue>,
        writable: bool,
        parent: Option<&NodeId>,
    ) {
        self.nodes.insert(
            id.clone(),
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
        id: &NodeId,
        value: Variant,
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

    /// Answers a service request. Requests that are themselves responses
    /// yield an empty `ReadResponse` (servers ignore them).
    pub(crate) fn handle(&mut self, request: &Message) -> Message {
        match request {
            Message::ReadRequest { nodes } => Message::ReadResponse {
                results: nodes.iter().map(|rv| self.read_one(rv)).collect(),
            },
            Message::WriteRequest { nodes } => Message::WriteResponse {
                results: nodes.iter().map(|wv| self.write_one(wv)).collect(),
            },
            Message::BrowseRequest { node_id } => match self.nodes.get(node_id) {
                Some(node) => Message::BrowseResponse {
                    status: StatusCode::GOOD,
                    references: node
                        .children
                        .iter()
                        .filter_map(|c| {
                            self.nodes.get(c).map(|cn| ReferenceDescription {
                                node_id: c.clone(),
                                browse_name: cn.browse_name.clone(),
                                node_class: cn.node_class,
                            })
                        })
                        .collect(),
                },
                None => Message::BrowseResponse {
                    status: StatusCode::BAD_NODE_ID_UNKNOWN,
                    references: Vec::new(),
                },
            },
            _ => Message::ReadResponse {
                results: Vec::new(),
            },
        }
    }

    fn read_one(&self, rv: &ReadValueId) -> DataValue {
        let Some(node) = self.nodes.get(&rv.node_id) else {
            return DataValue::bad(StatusCode::BAD_NODE_ID_UNKNOWN);
        };
        match rv.attribute {
            AttributeId::Value => node
                .value
                .clone()
                .unwrap_or_else(|| DataValue::bad(StatusCode::BAD_ATTRIBUTE_ID_INVALID)),
            AttributeId::BrowseName => DataValue::good(Variant::Str(node.browse_name.clone()), 0),
            AttributeId::NodeClass => DataValue::good(Variant::Int32(node.node_class.id()), 0),
        }
    }

    fn write_one(&mut self, wv: &WriteValue) -> StatusCode {
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
                node.value = Some(DataValue::good(wv.value.clone(), 0));
                StatusCode::GOOD
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (AddressSpace, NodeId, NodeId, NodeId) {
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
        let messages = [
            Message::ReadRequest {
                nodes: vec![
                    ReadValueId {
                        node_id: NodeId::numeric(2, 42),
                        attribute: AttributeId::Value,
                    },
                    ReadValueId {
                        node_id: NodeId::string(0, "x"),
                        attribute: AttributeId::BrowseName,
                    },
                ],
            },
            Message::ReadResponse {
                results: vec![
                    DataValue::good(Variant::Double(1.5), 123),
                    DataValue::bad(StatusCode::BAD_NODE_ID_UNKNOWN),
                    DataValue::good(Variant::Str("té".into()), 0),
                    DataValue::good(Variant::Boolean(true), -5),
                    DataValue::good(Variant::Int64(i64::MIN), 0),
                    DataValue::good(Variant::DateTime(1_425_900_000_000), 0),
                ],
            },
            Message::WriteRequest {
                nodes: vec![WriteValue {
                    node_id: NodeId::string(1, "sp"),
                    attribute: AttributeId::Value,
                    value: Variant::Int32(-7),
                }],
            },
            Message::WriteResponse {
                results: vec![StatusCode::GOOD, StatusCode::BAD_NOT_WRITABLE],
            },
            Message::BrowseRequest {
                node_id: NodeId::numeric(1, 1),
            },
            Message::BrowseResponse {
                status: StatusCode::GOOD,
                references: vec![ReferenceDescription {
                    node_id: NodeId::string(1, "child"),
                    browse_name: "Child".into(),
                    node_class: NodeClass::Variable,
                }],
            },
        ];
        for m in &messages {
            let bytes = m.encode();
            assert_eq!(&Message::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let m = Message::ReadResponse {
            results: vec![DataValue::good(Variant::Str("hello".into()), 9)],
        };
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(Message::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn read_value_and_metadata() {
        let (mut s, root, temp, _) = space();
        let resp = s.handle(&Message::ReadRequest {
            nodes: vec![
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
            ],
        });
        let Message::ReadResponse { results } = resp else {
            panic!("wrong response type");
        };
        assert_eq!(results[0].value, Some(Variant::Double(71.5)));
        assert_eq!(results[0].source_timestamp, Some(1000));
        assert_eq!(results[1].value, Some(Variant::Str("SupplyTemp".into())));
        assert_eq!(results[2].value, Some(Variant::Int32(1)));
        assert_eq!(results[3].status, StatusCode::BAD_NODE_ID_UNKNOWN);
    }

    #[test]
    fn write_rules_enforced() {
        let (mut s, _, temp, setpoint) = space();
        let resp = s.handle(&Message::WriteRequest {
            nodes: vec![
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
            ],
        });
        let Message::WriteResponse { results } = resp else {
            panic!("wrong response type");
        };
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
        let Message::BrowseResponse { status, references } = resp else {
            panic!("wrong response type");
        };
        assert!(status.is_good());
        let names: Vec<&str> = references.iter().map(|r| r.browse_name.as_str()).collect();
        assert_eq!(names, vec!["SupplyTemp", "Setpoint"]);
    }

    #[test]
    fn browse_unknown_node_is_bad() {
        let (mut s, ..) = space();
        let resp = s.handle(&Message::BrowseRequest {
            node_id: NodeId::numeric(7, 7),
        });
        let Message::BrowseResponse { status, references } = resp else {
            panic!("wrong response type");
        };
        assert!(!status.is_good());
        assert!(references.is_empty());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::numeric(2, 42).to_string(), "ns=2;i=42");
        assert_eq!(NodeId::string(1, "a.b").to_string(), "ns=1;s=a.b");
    }

    #[test]
    fn implausible_length_rejected() {
        let mut bytes = Message::ReadRequest { nodes: vec![] }.encode();
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
