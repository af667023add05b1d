//! The middleware wire protocol.
//!
//! A small tagged binary encoding. Strings are u16-length-prefixed,
//! payloads u32-length-prefixed, integers little-endian.
//!
//! Decoding comes in two flavours sharing one grammar:
//!
//! * [`PacketRef::decode`] — the hot path. Borrows topics and payloads
//!   straight out of the receive buffer; the only allocation is the
//!   frame vector of a [`PacketRef::BridgeBatch`]. The broker runs on
//!   this and calls `to_*` conversions exactly where it must retain
//!   data beyond the packet's lifetime.
//! * [`Packet::decode`] — the convenience path, delegating to the
//!   borrowed decoder and materializing everything. Clients and tests
//!   use it; by construction the two can never drift apart.
//!
//! Encoding is single-sourced the same way: [`Packet::encode`] builds a
//! borrowed [`PacketRef`] view ([`Packet::view`]) and defers to
//! [`PacketRef::encode`].

use simnet::Port;

use crate::{PubSubError, Topic, TopicFilter, TopicFilterRef, TopicRef};

/// The well-known port brokers listen on.
pub const PUBSUB_PORT: Port = Port(7100);

/// Delivery guarantees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum QoS {
    /// Fire-and-forget.
    #[default]
    AtMostOnce,
    /// Acknowledged and retried: at-least-once.
    AtLeastOnce,
}

impl QoS {
    fn byte(self) -> u8 {
        match self {
            QoS::AtMostOnce => 0,
            QoS::AtLeastOnce => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, PubSubError> {
        match b {
            0 => Ok(QoS::AtMostOnce),
            1 => Ok(QoS::AtLeastOnce),
            _ => Err(PubSubError::DecodePacket {
                reason: "invalid qos",
            }),
        }
    }
}

/// A middleware wire packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Client → broker: subscribe to a filter.
    Subscribe {
        /// The filter.
        filter: TopicFilter,
        /// Requested delivery guarantee.
        qos: QoS,
    },
    /// Client → broker: drop a subscription.
    Unsubscribe {
        /// The filter to drop.
        filter: TopicFilter,
    },
    /// Client → broker: publish a message.
    Publish {
        /// Publisher-chosen id, echoed in [`Packet::PubAck`] for QoS 1.
        id: u64,
        /// The topic.
        topic: Topic,
        /// Opaque payload (common-data-format text by convention).
        payload: Vec<u8>,
        /// Whether the broker retains it for future subscribers.
        retain: bool,
        /// Delivery guarantee.
        qos: QoS,
        /// Flight-recorder trace id carried end to end (0 = untraced).
        trace: u64,
        /// Causal span of the publishing hop (0 = unstructured); the
        /// broker parents its own spans under it.
        span: u64,
    },
    /// Broker → publisher: QoS 1 publish accepted.
    PubAck {
        /// The publisher's id.
        id: u64,
    },
    /// Broker → subscriber: message delivery.
    Deliver {
        /// Broker-chosen delivery id (acked for QoS 1).
        id: u64,
        /// The topic it was published under.
        topic: Topic,
        /// The payload.
        payload: Vec<u8>,
        /// Delivery guarantee of this delivery.
        qos: QoS,
        /// Flight-recorder trace id of the originating publish.
        trace: u64,
        /// Causal span of the broker's deliver hop (0 = unstructured);
        /// the subscriber parents its receive span under it.
        span: u64,
    },
    /// Subscriber → broker: QoS 1 delivery received.
    DeliverAck {
        /// The broker's delivery id.
        id: u64,
    },
    /// Client → broker: session keepalive probe.
    Ping,
    /// Broker → client: keepalive answer carrying the broker's
    /// incarnation number, which bumps on every broker restart. A client
    /// that sees the incarnation change knows its subscriptions were
    /// wiped and must re-subscribe.
    Pong {
        /// The broker's current incarnation.
        incarnation: u64,
    },
    /// Broker → peer broker: "I have local subscribers matching this
    /// filter — forward matching publishes to me." Sent whenever a local
    /// subscription appears, and re-sent in full after either end
    /// restarts.
    BridgeAdvertise {
        /// The advertising broker's incarnation.
        incarnation: u64,
        /// The advertised filter.
        filter: TopicFilter,
        /// The strongest QoS any local subscriber asked for.
        qos: QoS,
    },
    /// Broker → peer broker: the last local subscriber on this filter is
    /// gone; stop forwarding.
    BridgeUnadvertise {
        /// The advertising broker's incarnation.
        incarnation: u64,
        /// The filter to withdraw.
        filter: TopicFilter,
    },
    /// Broker → peer broker: a batch of publishes crossing the bridge in
    /// one wire frame (the inter-broker hop pays O(1) frames for N
    /// publishes). Always acked with [`Packet::BridgeBatchAck`]; the
    /// sender retries unacked batches and the receiver dedups on
    /// `batch_id`, so QoS 1 conservation holds across a lossy bridge.
    BridgeBatch {
        /// The sending broker's incarnation.
        incarnation: u64,
        /// Sender-chosen id, unique per (sender, incarnation).
        batch_id: u64,
        /// The batched publishes, in publish order.
        frames: Vec<BridgeFrame>,
    },
    /// Peer broker → broker: batch received (possibly a duplicate).
    BridgeBatchAck {
        /// The sender's batch id.
        batch_id: u64,
    },
    /// Broker → peer broker: "I (re)started under this incarnation."
    /// Prompts the peer to wipe routing state learned from the previous
    /// incarnation and re-advertise its own subscriptions.
    BridgeHello {
        /// The sending broker's current incarnation.
        incarnation: u64,
    },
    /// Ops plane → broker: fetch an observability document. Brokers
    /// answer `/metrics` (Prometheus exposition) and `/health` (JSON)
    /// over the pub/sub port itself — they have no webservice stack, and
    /// the layering (`pubsub` must not depend on `proxy`) forbids one.
    OpsGet {
        /// Requester-chosen id, echoed in the reply.
        id: u64,
        /// The document path (`"/metrics"`, `"/health"`).
        path: String,
    },
    /// Broker → ops plane: the requested document.
    OpsReply {
        /// The requester's id.
        id: u64,
        /// An HTTP-style status code (200, 404).
        status: u16,
        /// The document body.
        body: Vec<u8>,
    },
}

/// One publish inside a [`Packet::BridgeBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeFrame {
    /// The topic it was published under.
    pub topic: Topic,
    /// The payload.
    pub payload: Vec<u8>,
    /// Whether the receiving broker mirrors it as retained.
    pub retain: bool,
    /// The publish's delivery guarantee.
    pub qos: QoS,
    /// Flight-recorder trace id of the originating publish.
    pub trace: u64,
    /// Causal span of the bridge-forward hop (0 = unstructured); the
    /// receiving broker parents its fan-out spans under it.
    pub span: u64,
}

impl BridgeFrame {
    /// A borrowed view of this frame, for allocation-free encoding.
    pub(crate) fn view(&self) -> BridgeFrameRef<'_> {
        BridgeFrameRef {
            topic: TopicRef::from(&self.topic),
            payload: &self.payload,
            retain: self.retain,
            qos: self.qos,
            trace: self.trace,
            span: self.span,
        }
    }
}

/// A borrowed view of a wire packet: the zero-copy counterpart of
/// [`Packet`].
///
/// Produced by [`PacketRef::decode`] straight over the receive buffer —
/// topics, filters and payloads are slices of the input; only a
/// [`PacketRef::BridgeBatch`] allocates (its frame vector, never the
/// frame contents). Consumed by [`PacketRef::encode`], which is the one
/// and only encoder of the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketRef<'a> {
    /// Borrowed [`Packet::Subscribe`].
    Subscribe {
        /// The filter.
        filter: TopicFilterRef<'a>,
        /// Requested delivery guarantee.
        qos: QoS,
    },
    /// Borrowed [`Packet::Unsubscribe`].
    Unsubscribe {
        /// The filter to drop.
        filter: TopicFilterRef<'a>,
    },
    /// Borrowed [`Packet::Publish`].
    Publish {
        /// Publisher-chosen id, echoed in [`Packet::PubAck`] for QoS 1.
        id: u64,
        /// The topic, borrowed from the buffer.
        topic: TopicRef<'a>,
        /// The payload, borrowed from the buffer.
        payload: &'a [u8],
        /// Whether the broker retains it for future subscribers.
        retain: bool,
        /// Delivery guarantee.
        qos: QoS,
        /// Flight-recorder trace id carried end to end (0 = untraced).
        trace: u64,
        /// Causal span of the publishing hop (0 = unstructured).
        span: u64,
    },
    /// Borrowed [`Packet::PubAck`].
    PubAck {
        /// The publisher's id.
        id: u64,
    },
    /// Borrowed [`Packet::Deliver`].
    Deliver {
        /// Broker-chosen delivery id (acked for QoS 1).
        id: u64,
        /// The topic it was published under, borrowed from the buffer.
        topic: TopicRef<'a>,
        /// The payload, borrowed from the buffer.
        payload: &'a [u8],
        /// Delivery guarantee of this delivery.
        qos: QoS,
        /// Flight-recorder trace id of the originating publish.
        trace: u64,
        /// Causal span of the broker's deliver hop (0 = unstructured).
        span: u64,
    },
    /// Borrowed [`Packet::DeliverAck`].
    DeliverAck {
        /// The broker's delivery id.
        id: u64,
    },
    /// Borrowed [`Packet::Ping`].
    Ping,
    /// Borrowed [`Packet::Pong`].
    Pong {
        /// The broker's current incarnation.
        incarnation: u64,
    },
    /// Borrowed [`Packet::BridgeAdvertise`].
    BridgeAdvertise {
        /// The advertising broker's incarnation.
        incarnation: u64,
        /// The advertised filter.
        filter: TopicFilterRef<'a>,
        /// The strongest QoS any local subscriber asked for.
        qos: QoS,
    },
    /// Borrowed [`Packet::BridgeUnadvertise`].
    BridgeUnadvertise {
        /// The advertising broker's incarnation.
        incarnation: u64,
        /// The filter to withdraw.
        filter: TopicFilterRef<'a>,
    },
    /// Borrowed [`Packet::BridgeBatch`]. The frame vector is the sole
    /// allocation of the borrowed decoder; the frames themselves borrow.
    BridgeBatch {
        /// The sending broker's incarnation.
        incarnation: u64,
        /// Sender-chosen id, unique per (sender, incarnation).
        batch_id: u64,
        /// The batched publishes, in publish order.
        frames: Vec<BridgeFrameRef<'a>>,
    },
    /// Borrowed [`Packet::BridgeBatchAck`].
    BridgeBatchAck {
        /// The sender's batch id.
        batch_id: u64,
    },
    /// Borrowed [`Packet::BridgeHello`].
    BridgeHello {
        /// The sending broker's current incarnation.
        incarnation: u64,
    },
    /// Borrowed [`Packet::OpsGet`].
    OpsGet {
        /// Requester-chosen id, echoed in the reply.
        id: u64,
        /// The document path, borrowed from the buffer.
        path: &'a str,
    },
    /// Borrowed [`Packet::OpsReply`].
    OpsReply {
        /// The requester's id.
        id: u64,
        /// An HTTP-style status code (200, 404).
        status: u16,
        /// The document body, borrowed from the buffer.
        body: &'a [u8],
    },
}

/// A borrowed view of one publish inside a bridge batch: the zero-copy
/// counterpart of [`BridgeFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BridgeFrameRef<'a> {
    /// The topic it was published under, borrowed from the buffer.
    pub topic: TopicRef<'a>,
    /// The payload, borrowed from the buffer.
    pub payload: &'a [u8],
    /// Whether the receiving broker mirrors it as retained.
    pub retain: bool,
    /// The publish's delivery guarantee.
    pub qos: QoS,
    /// Flight-recorder trace id of the originating publish.
    pub trace: u64,
    /// Causal span of the bridge-forward hop (0 = unstructured).
    pub span: u64,
}

impl BridgeFrameRef<'_> {
    /// Materializes an owned [`BridgeFrame`].
    pub(crate) fn to_frame(self) -> BridgeFrame {
        BridgeFrame {
            topic: self.topic.to_topic(),
            payload: self.payload.to_vec(),
            retain: self.retain,
            qos: self.qos,
            trace: self.trace,
            span: self.span,
        }
    }

    /// Encoded size of this frame on the wire.
    fn wire_len(&self) -> usize {
        2 + self.topic.as_str().len() + 4 + self.payload.len() + 1 + 1 + 8 + 8
    }
}

/// Hard cap on frames per batch — a decode guard, far above any sane
/// [`BatchPolicy`](simnet::batch::BatchPolicy) flush bound.
const MAX_BRIDGE_FRAMES: usize = 4096;

fn push_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn push_bytes(b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, PubSubError> {
        let b = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or(PubSubError::DecodePacket {
                reason: "truncated",
            })?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PubSubError> {
        if self.pos + n > self.bytes.len() {
            return Err(PubSubError::DecodePacket {
                reason: "truncated",
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, PubSubError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    fn u32(&mut self) -> Result<u32, PubSubError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    fn u64(&mut self) -> Result<u64, PubSubError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// A u16-length-prefixed string, borrowed from the buffer.
    fn str_ref(&mut self) -> Result<&'a str, PubSubError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| PubSubError::DecodePacket {
            reason: "invalid utf-8",
        })
    }

    /// A u32-length-prefixed byte field, borrowed from the buffer.
    fn bytes_ref(&mut self) -> Result<&'a [u8], PubSubError> {
        let len = self.u32()? as usize;
        if len > 16 * 1024 * 1024 {
            return Err(PubSubError::DecodePacket {
                reason: "implausible payload length",
            });
        }
        self.take(len)
    }

    fn finish(&self) -> Result<(), PubSubError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(PubSubError::DecodePacket {
                reason: "trailing bytes",
            })
        }
    }
}

impl<'a> PacketRef<'a> {
    /// Decodes a packet as a borrowed view over `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::DecodePacket`] (or a topic/filter grammar
    /// error) on malformed input. Never panics: every length is
    /// bounds-checked and every string/topic/filter validated.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, PubSubError> {
        let mut c = Cursor { bytes, pos: 0 };
        let packet = match c.u8()? {
            1 => PacketRef::Subscribe {
                filter: TopicFilterRef::new(c.str_ref()?)?,
                qos: QoS::from_byte(c.u8()?)?,
            },
            2 => PacketRef::Unsubscribe {
                filter: TopicFilterRef::new(c.str_ref()?)?,
            },
            3 => PacketRef::Publish {
                id: c.u64()?,
                topic: TopicRef::new(c.str_ref()?)?,
                payload: c.bytes_ref()?,
                retain: c.u8()? != 0,
                qos: QoS::from_byte(c.u8()?)?,
                trace: c.u64()?,
                span: c.u64()?,
            },
            4 => PacketRef::PubAck { id: c.u64()? },
            5 => PacketRef::Deliver {
                id: c.u64()?,
                topic: TopicRef::new(c.str_ref()?)?,
                payload: c.bytes_ref()?,
                qos: QoS::from_byte(c.u8()?)?,
                trace: c.u64()?,
                span: c.u64()?,
            },
            6 => PacketRef::DeliverAck { id: c.u64()? },
            7 => PacketRef::Ping,
            8 => PacketRef::Pong {
                incarnation: c.u64()?,
            },
            9 => PacketRef::BridgeAdvertise {
                incarnation: c.u64()?,
                filter: TopicFilterRef::new(c.str_ref()?)?,
                qos: QoS::from_byte(c.u8()?)?,
            },
            10 => PacketRef::BridgeUnadvertise {
                incarnation: c.u64()?,
                filter: TopicFilterRef::new(c.str_ref()?)?,
            },
            11 => {
                let incarnation = c.u64()?;
                let batch_id = c.u64()?;
                let count = c.u16()? as usize;
                if count > MAX_BRIDGE_FRAMES {
                    return Err(PubSubError::DecodePacket {
                        reason: "implausible bridge batch size",
                    });
                }
                let mut frames = Vec::with_capacity(count);
                for _ in 0..count {
                    frames.push(BridgeFrameRef {
                        topic: TopicRef::new(c.str_ref()?)?,
                        payload: c.bytes_ref()?,
                        retain: c.u8()? != 0,
                        qos: QoS::from_byte(c.u8()?)?,
                        trace: c.u64()?,
                        span: c.u64()?,
                    });
                }
                PacketRef::BridgeBatch {
                    incarnation,
                    batch_id,
                    frames,
                }
            }
            12 => PacketRef::BridgeBatchAck { batch_id: c.u64()? },
            13 => PacketRef::BridgeHello {
                incarnation: c.u64()?,
            },
            14 => PacketRef::OpsGet {
                id: c.u64()?,
                path: c.str_ref()?,
            },
            15 => PacketRef::OpsReply {
                id: c.u64()?,
                status: c.u16()?,
                body: c.bytes_ref()?,
            },
            _ => {
                return Err(PubSubError::DecodePacket {
                    reason: "unknown packet tag",
                })
            }
        };
        c.finish()?;
        Ok(packet)
    }

    /// Encodes the packet. This is the sole encoder of the wire format;
    /// [`Packet::encode`] defers here via [`Packet::view`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        match self {
            PacketRef::Subscribe { filter, qos } => {
                out.push(1);
                push_str(filter.as_str(), &mut out);
                out.push(qos.byte());
            }
            PacketRef::Unsubscribe { filter } => {
                out.push(2);
                push_str(filter.as_str(), &mut out);
            }
            PacketRef::Publish {
                id,
                topic,
                payload,
                retain,
                qos,
                trace,
                span,
            } => {
                out.push(3);
                out.extend_from_slice(&id.to_le_bytes());
                push_str(topic.as_str(), &mut out);
                push_bytes(payload, &mut out);
                out.push(u8::from(*retain));
                out.push(qos.byte());
                out.extend_from_slice(&trace.to_le_bytes());
                out.extend_from_slice(&span.to_le_bytes());
            }
            PacketRef::PubAck { id } => {
                out.push(4);
                out.extend_from_slice(&id.to_le_bytes());
            }
            PacketRef::Deliver {
                id,
                topic,
                payload,
                qos,
                trace,
                span,
            } => {
                out.push(5);
                out.extend_from_slice(&id.to_le_bytes());
                push_str(topic.as_str(), &mut out);
                push_bytes(payload, &mut out);
                out.push(qos.byte());
                out.extend_from_slice(&trace.to_le_bytes());
                out.extend_from_slice(&span.to_le_bytes());
            }
            PacketRef::DeliverAck { id } => {
                out.push(6);
                out.extend_from_slice(&id.to_le_bytes());
            }
            PacketRef::Ping => {
                out.push(7);
            }
            PacketRef::Pong { incarnation } => {
                out.push(8);
                out.extend_from_slice(&incarnation.to_le_bytes());
            }
            PacketRef::BridgeAdvertise {
                incarnation,
                filter,
                qos,
            } => {
                out.push(9);
                out.extend_from_slice(&incarnation.to_le_bytes());
                push_str(filter.as_str(), &mut out);
                out.push(qos.byte());
            }
            PacketRef::BridgeUnadvertise {
                incarnation,
                filter,
            } => {
                out.push(10);
                out.extend_from_slice(&incarnation.to_le_bytes());
                push_str(filter.as_str(), &mut out);
            }
            PacketRef::BridgeBatch {
                incarnation,
                batch_id,
                frames,
            } => {
                out.push(11);
                out.extend_from_slice(&incarnation.to_le_bytes());
                out.extend_from_slice(&batch_id.to_le_bytes());
                out.extend_from_slice(&(frames.len() as u16).to_le_bytes());
                for f in frames {
                    push_str(f.topic.as_str(), &mut out);
                    push_bytes(f.payload, &mut out);
                    out.push(u8::from(f.retain));
                    out.push(f.qos.byte());
                    out.extend_from_slice(&f.trace.to_le_bytes());
                    out.extend_from_slice(&f.span.to_le_bytes());
                }
            }
            PacketRef::BridgeBatchAck { batch_id } => {
                out.push(12);
                out.extend_from_slice(&batch_id.to_le_bytes());
            }
            PacketRef::BridgeHello { incarnation } => {
                out.push(13);
                out.extend_from_slice(&incarnation.to_le_bytes());
            }
            PacketRef::OpsGet { id, path } => {
                out.push(14);
                out.extend_from_slice(&id.to_le_bytes());
                push_str(path, &mut out);
            }
            PacketRef::OpsReply { id, status, body } => {
                out.push(15);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&status.to_le_bytes());
                push_bytes(body, &mut out);
            }
        }
        out
    }

    /// Exact encoded size, so [`PacketRef::encode`] allocates once.
    fn wire_len(&self) -> usize {
        match self {
            PacketRef::Subscribe { filter, .. } => 1 + 2 + filter.as_str().len() + 1,
            PacketRef::Unsubscribe { filter } => 1 + 2 + filter.as_str().len(),
            PacketRef::Publish { topic, payload, .. } => {
                1 + 8 + 2 + topic.as_str().len() + 4 + payload.len() + 1 + 1 + 8 + 8
            }
            PacketRef::PubAck { .. }
            | PacketRef::DeliverAck { .. }
            | PacketRef::Pong { .. }
            | PacketRef::BridgeBatchAck { .. }
            | PacketRef::BridgeHello { .. } => 1 + 8,
            PacketRef::Deliver { topic, payload, .. } => {
                1 + 8 + 2 + topic.as_str().len() + 4 + payload.len() + 1 + 8 + 8
            }
            PacketRef::Ping => 1,
            PacketRef::BridgeAdvertise { filter, .. } => 1 + 8 + 2 + filter.as_str().len() + 1,
            PacketRef::BridgeUnadvertise { filter, .. } => 1 + 8 + 2 + filter.as_str().len(),
            PacketRef::BridgeBatch { frames, .. } => {
                1 + 8 + 8 + 2 + frames.iter().map(BridgeFrameRef::wire_len).sum::<usize>()
            }
            PacketRef::OpsGet { path, .. } => 1 + 8 + 2 + path.len(),
            PacketRef::OpsReply { body, .. } => 1 + 8 + 2 + 4 + body.len(),
        }
    }

    /// Materializes an owned [`Packet`].
    pub fn to_packet(&self) -> Packet {
        match self {
            PacketRef::Subscribe { filter, qos } => Packet::Subscribe {
                filter: filter.to_filter(),
                qos: *qos,
            },
            PacketRef::Unsubscribe { filter } => Packet::Unsubscribe {
                filter: filter.to_filter(),
            },
            PacketRef::Publish {
                id,
                topic,
                payload,
                retain,
                qos,
                trace,
                span,
            } => Packet::Publish {
                id: *id,
                topic: topic.to_topic(),
                payload: payload.to_vec(),
                retain: *retain,
                qos: *qos,
                trace: *trace,
                span: *span,
            },
            PacketRef::PubAck { id } => Packet::PubAck { id: *id },
            PacketRef::Deliver {
                id,
                topic,
                payload,
                qos,
                trace,
                span,
            } => Packet::Deliver {
                id: *id,
                topic: topic.to_topic(),
                payload: payload.to_vec(),
                qos: *qos,
                trace: *trace,
                span: *span,
            },
            PacketRef::DeliverAck { id } => Packet::DeliverAck { id: *id },
            PacketRef::Ping => Packet::Ping,
            PacketRef::Pong { incarnation } => Packet::Pong {
                incarnation: *incarnation,
            },
            PacketRef::BridgeAdvertise {
                incarnation,
                filter,
                qos,
            } => Packet::BridgeAdvertise {
                incarnation: *incarnation,
                filter: filter.to_filter(),
                qos: *qos,
            },
            PacketRef::BridgeUnadvertise {
                incarnation,
                filter,
            } => Packet::BridgeUnadvertise {
                incarnation: *incarnation,
                filter: filter.to_filter(),
            },
            PacketRef::BridgeBatch {
                incarnation,
                batch_id,
                frames,
            } => Packet::BridgeBatch {
                incarnation: *incarnation,
                batch_id: *batch_id,
                frames: frames.iter().map(|f| f.to_frame()).collect(),
            },
            PacketRef::BridgeBatchAck { batch_id } => Packet::BridgeBatchAck {
                batch_id: *batch_id,
            },
            PacketRef::BridgeHello { incarnation } => Packet::BridgeHello {
                incarnation: *incarnation,
            },
            PacketRef::OpsGet { id, path } => Packet::OpsGet {
                id: *id,
                path: path.to_string(),
            },
            PacketRef::OpsReply { id, status, body } => Packet::OpsReply {
                id: *id,
                status: *status,
                body: body.to_vec(),
            },
        }
    }
}

impl Packet {
    /// A borrowed view of this packet, for allocation-free encoding and
    /// structural comparison against decoded [`PacketRef`]s.
    pub fn view(&self) -> PacketRef<'_> {
        match self {
            Packet::Subscribe { filter, qos } => PacketRef::Subscribe {
                filter: filter.into(),
                qos: *qos,
            },
            Packet::Unsubscribe { filter } => PacketRef::Unsubscribe {
                filter: filter.into(),
            },
            Packet::Publish {
                id,
                topic,
                payload,
                retain,
                qos,
                trace,
                span,
            } => PacketRef::Publish {
                id: *id,
                topic: topic.into(),
                payload,
                retain: *retain,
                qos: *qos,
                trace: *trace,
                span: *span,
            },
            Packet::PubAck { id } => PacketRef::PubAck { id: *id },
            Packet::Deliver {
                id,
                topic,
                payload,
                qos,
                trace,
                span,
            } => PacketRef::Deliver {
                id: *id,
                topic: topic.into(),
                payload,
                qos: *qos,
                trace: *trace,
                span: *span,
            },
            Packet::DeliverAck { id } => PacketRef::DeliverAck { id: *id },
            Packet::Ping => PacketRef::Ping,
            Packet::Pong { incarnation } => PacketRef::Pong {
                incarnation: *incarnation,
            },
            Packet::BridgeAdvertise {
                incarnation,
                filter,
                qos,
            } => PacketRef::BridgeAdvertise {
                incarnation: *incarnation,
                filter: filter.into(),
                qos: *qos,
            },
            Packet::BridgeUnadvertise {
                incarnation,
                filter,
            } => PacketRef::BridgeUnadvertise {
                incarnation: *incarnation,
                filter: filter.into(),
            },
            Packet::BridgeBatch {
                incarnation,
                batch_id,
                frames,
            } => PacketRef::BridgeBatch {
                incarnation: *incarnation,
                batch_id: *batch_id,
                frames: frames.iter().map(BridgeFrame::view).collect(),
            },
            Packet::BridgeBatchAck { batch_id } => PacketRef::BridgeBatchAck {
                batch_id: *batch_id,
            },
            Packet::BridgeHello { incarnation } => PacketRef::BridgeHello {
                incarnation: *incarnation,
            },
            Packet::OpsGet { id, path } => PacketRef::OpsGet { id: *id, path },
            Packet::OpsReply { id, status, body } => PacketRef::OpsReply {
                id: *id,
                status: *status,
                body,
            },
        }
    }

    /// Encodes the packet.
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Decodes a packet produced by [`Packet::encode`], materializing
    /// owned topics and payloads. Delegates to [`PacketRef::decode`],
    /// so the owned and borrowed decoders accept exactly the same
    /// inputs.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::DecodePacket`] (or a topic/filter grammar
    /// error) on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, PubSubError> {
        Ok(PacketRef::decode(bytes)?.to_packet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packets() -> Vec<Packet> {
        vec![
            Packet::Subscribe {
                filter: TopicFilter::new("a/+/#").unwrap(),
                qos: QoS::AtLeastOnce,
            },
            Packet::Unsubscribe {
                filter: TopicFilter::new("a/b").unwrap(),
            },
            Packet::Publish {
                id: 42,
                topic: Topic::new("a/b/c").unwrap(),
                payload: b"{\"v\":1}".to_vec(),
                retain: true,
                qos: QoS::AtMostOnce,
                trace: 9,
                span: 31,
            },
            Packet::PubAck { id: 42 },
            Packet::Deliver {
                id: 7,
                topic: Topic::new("a/b/c").unwrap(),
                payload: vec![],
                qos: QoS::AtLeastOnce,
                trace: 0,
                span: 0,
            },
            Packet::DeliverAck { id: 7 },
            Packet::Ping,
            Packet::Pong { incarnation: 3 },
            Packet::BridgeAdvertise {
                incarnation: 2,
                filter: TopicFilter::new("district/d1/#").unwrap(),
                qos: QoS::AtLeastOnce,
            },
            Packet::BridgeUnadvertise {
                incarnation: 2,
                filter: TopicFilter::new("district/d1/#").unwrap(),
            },
            Packet::BridgeBatch {
                incarnation: 2,
                batch_id: 77,
                frames: vec![
                    BridgeFrame {
                        topic: Topic::new("district/d1/agg/x").unwrap(),
                        payload: b"{\"v\":1}".to_vec(),
                        retain: true,
                        qos: QoS::AtLeastOnce,
                        trace: 5,
                        span: 17,
                    },
                    BridgeFrame {
                        topic: Topic::new("a/b").unwrap(),
                        payload: vec![],
                        retain: false,
                        qos: QoS::AtMostOnce,
                        trace: 0,
                        span: 0,
                    },
                ],
            },
            Packet::BridgeBatch {
                incarnation: 1,
                batch_id: 0,
                frames: vec![],
            },
            Packet::BridgeBatchAck { batch_id: 77 },
            Packet::BridgeHello { incarnation: 4 },
            Packet::OpsGet {
                id: 12,
                path: "/metrics".to_string(),
            },
            Packet::OpsReply {
                id: 12,
                status: 200,
                body: b"# TYPE up gauge\nup 1\n".to_vec(),
            },
            Packet::OpsReply {
                id: 13,
                status: 404,
                body: vec![],
            },
        ]
    }

    #[test]
    fn all_packets_round_trip() {
        for p in &sample_packets() {
            assert_eq!(&Packet::decode(&p.encode()).unwrap(), p, "{p:?}");
        }
    }

    #[test]
    fn borrowed_decode_matches_owned_decode_for_all_packets() {
        for p in &sample_packets() {
            let bytes = p.encode();
            let borrowed = PacketRef::decode(&bytes).unwrap();
            assert_eq!(borrowed, p.view(), "{p:?}");
            assert_eq!(&borrowed.to_packet(), p, "{p:?}");
            // The view's encoding is the encoding.
            assert_eq!(borrowed.encode(), bytes, "{p:?}");
        }
    }

    #[test]
    fn encode_preallocates_exactly() {
        for p in &sample_packets() {
            let bytes = p.encode();
            assert_eq!(bytes.len(), p.view().wire_len(), "{p:?}");
        }
    }

    #[test]
    fn borrowed_decode_borrows_from_the_input() {
        let bytes = Packet::Publish {
            id: 1,
            topic: Topic::new("a/b/c").unwrap(),
            payload: b"payload".to_vec(),
            retain: false,
            qos: QoS::AtMostOnce,
            trace: 0,
            span: 0,
        }
        .encode();
        let PacketRef::Publish { topic, payload, .. } = PacketRef::decode(&bytes).unwrap() else {
            panic!("wrong variant");
        };
        let range = bytes.as_ptr_range();
        assert!(range.contains(&topic.as_str().as_ptr()));
        assert!(range.contains(&payload.as_ptr()));
    }

    #[test]
    fn bridge_batch_truncation_rejected() {
        let bytes = Packet::BridgeBatch {
            incarnation: 1,
            batch_id: 2,
            frames: vec![BridgeFrame {
                topic: Topic::new("t/u").unwrap(),
                payload: b"xy".to_vec(),
                retain: false,
                qos: QoS::AtLeastOnce,
                trace: 3,
                span: 21,
            }],
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(Packet::decode(&bytes[..cut]).is_err(), "cut {cut}");
            assert!(PacketRef::decode(&bytes[..cut]).is_err(), "borrowed {cut}");
        }
    }

    #[test]
    fn bridge_batch_lying_count_rejected() {
        // A frame count larger than the frames actually present must be
        // caught as truncation, not read past the buffer.
        let mut bytes = Packet::BridgeBatch {
            incarnation: 1,
            batch_id: 2,
            frames: vec![],
        }
        .encode();
        let n = bytes.len();
        bytes[n - 2..].copy_from_slice(&3u16.to_le_bytes());
        assert!(Packet::decode(&bytes).is_err());
        assert!(PacketRef::decode(&bytes).is_err());
    }

    #[test]
    fn bridge_frame_with_wildcard_topic_rejected() {
        // Bridge frames carry concrete topics; a wildcard is a grammar
        // violation even inside a batch.
        let mut out = vec![11u8];
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&2u64.to_le_bytes());
        out.extend_from_slice(&1u16.to_le_bytes());
        push_str("a/#", &mut out);
        push_bytes(b"", &mut out);
        out.push(0);
        out.push(0);
        out.extend_from_slice(&0u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        assert!(Packet::decode(&out).is_err());
        assert!(PacketRef::decode(&out).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = Packet::Publish {
            id: 1,
            topic: Topic::new("t").unwrap(),
            payload: b"xyz".to_vec(),
            retain: false,
            qos: QoS::AtMostOnce,
            trace: 1,
            span: 2,
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(Packet::decode(&bytes[..cut]).is_err(), "cut {cut}");
            assert!(PacketRef::decode(&bytes[..cut]).is_err(), "borrowed {cut}");
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(Packet::decode(&[]).is_err());
        assert!(Packet::decode(&[99]).is_err());
        assert!(PacketRef::decode(&[]).is_err());
        assert!(PacketRef::decode(&[99]).is_err());
        let mut bad_qos = Packet::Subscribe {
            filter: TopicFilter::new("a").unwrap(),
            qos: QoS::AtMostOnce,
        }
        .encode();
        *bad_qos.last_mut().unwrap() = 9;
        assert!(Packet::decode(&bad_qos).is_err());
        assert!(PacketRef::decode(&bad_qos).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Packet::PubAck { id: 1 }.encode();
        bytes.push(0);
        assert!(Packet::decode(&bytes).is_err());
        assert!(PacketRef::decode(&bytes).is_err());
    }

    #[test]
    fn invalid_topic_in_packet_rejected() {
        // Hand-craft a Publish with a wildcard in the topic.
        let mut out = vec![3u8];
        out.extend_from_slice(&1u64.to_le_bytes());
        push_str("a/+", &mut out);
        push_bytes(b"", &mut out);
        out.push(0);
        out.push(0);
        out.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            Packet::decode(&out),
            Err(PubSubError::InvalidTopic { .. })
        ));
        assert!(matches!(
            PacketRef::decode(&out),
            Err(PubSubError::InvalidTopic { .. })
        ));
    }
}
