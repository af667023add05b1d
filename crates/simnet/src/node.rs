//! Node identities, packets and the [`Node`] behaviour trait.

use std::any::Any;
use std::fmt;

use crate::context::Context;

/// Identifies a node within one [`Simulator`](crate::Simulator), across
/// all of its shards.
///
/// Node ids are dense per-shard indices handed out by
/// [`Simulator::add_node_on`](crate::Simulator::add_node_on) in
/// registration order, which keeps them stable across replays of the
/// same scenario. The owning shard is tagged into the top
/// `NodeId::SHARD_BITS` bits, so ids stay globally unique and any
/// shard can tell local destinations from cross-shard ones without a
/// lookup; a stand-alone simulator uses shard 0 and its ids are plain
/// indices, bit-for-bit as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Bits reserved for the owning shard (max 256 shards, 16.7M nodes
    /// per shard).
    pub(crate) const SHARD_BITS: u32 = 8;
    /// Shift applied to a shard index when tagging it into an id.
    pub(crate) const SHARD_SHIFT: u32 = 32 - Self::SHARD_BITS;
    /// Mask selecting the in-shard index of an id.
    pub(crate) const LOCAL_MASK: u32 = (1 << Self::SHARD_SHIFT) - 1;

    /// The raw index of this node (shard tag included, so ids from a
    /// parallel simulation stay unique when used as flat keys).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a raw index (e.g. after serialization).
    pub const fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// The shard this id belongs to (0 for stand-alone simulators).
    pub const fn shard(self) -> usize {
        (self.0 >> Self::SHARD_SHIFT) as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A service selector on a node, analogous to a UDP port.
///
/// The framework reserves a few well-known ports (see the `proxy` and
/// `pubsub` crates); applications are free to use any value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port(pub u16);

impl Port {
    /// Creates a port from its raw number.
    pub const fn new(raw: u16) -> Self {
        Port(raw)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

/// An opaque tag carried by timers so a node can multiplex many timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerTag(pub u64);

/// A datagram delivered between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The sending node.
    pub src: NodeId,
    /// The destination node.
    pub(crate) dst: NodeId,
    /// The destination service selector.
    pub port: Port,
    /// The opaque payload bytes (already encoded by the sender).
    pub payload: Vec<u8>,
    /// Flight-recorder trace id carried with the packet
    /// (`telemetry::NO_TRACE` = 0 when the packet is untraced). Set via
    /// [`Context::send_spanned`](crate::Context::send_spanned).
    pub trace: u64,
    /// Causal span of the hop that sent this packet
    /// (`telemetry::NO_SPAN` = 0 when unstructured). Receivers use it as
    /// the parent of their own spans so the flight recorder can rebuild
    /// the cross-node causal tree. Set via
    /// [`Context::send_spanned`](crate::Context::send_spanned).
    pub span: u64,
}

impl Packet {
    /// Total size charged to the link, payload plus a fixed header cost.
    ///
    /// The 32-byte header approximates the framing overhead of a small
    /// UDP/6LoWPAN datagram and keeps zero-length payloads from being free.
    pub(crate) fn wire_size(&self) -> usize {
        self.payload.len() + 32
    }
}

/// Behaviour of a simulated node.
///
/// All methods receive a [`Context`] granting access to virtual time, the
/// node's deterministic RNG, packet transmission and timers. The default
/// implementations of [`Node::on_start`] and [`Node::on_timer`] do nothing.
///
/// Implementors must be `'static` so the simulator can store them as trait
/// objects and hand references back out via downcasting
/// ([`Simulator::node_ref`](crate::Simulator::node_ref)), and `Send` so a
/// sharded parallel run can execute each shard's nodes on its own thread.
pub trait Node: Any + Send {
    /// Called once when the simulation starts (or when the node is added
    /// to an already-running simulation).
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called for every packet delivered to this node.
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet);

    /// Called when a timer previously set through
    /// [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        let _ = (ctx, tag);
    }

    /// Called when the node comes back up after a
    /// [`Simulator::crash`](crate::Simulator::crash) /
    /// [`Simulator::restart`](crate::Simulator::restart) cycle.
    ///
    /// All timers armed before the crash are gone and in-flight packets
    /// addressed to the node were dropped; the node's own struct state
    /// survives. Implementors decide what is volatile (wipe it here) and
    /// what models durable storage (keep it). The default delegates to
    /// [`Node::on_start`], i.e. a restart behaves like a cold boot.
    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        self.on_start(ctx);
    }

    /// Upcast helper used by the simulator for downcasting; implementors
    /// normally keep the default.
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_index() {
        let id = NodeId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "n17");
    }

    #[test]
    fn packet_wire_size_includes_header() {
        let pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            port: Port::new(5),
            payload: vec![0; 10],
            trace: 0,
            span: 0,
        };
        assert_eq!(pkt.wire_size(), 42);
    }

    #[test]
    fn port_displays_like_socket_suffix() {
        assert_eq!(Port::new(8080).to_string(), ":8080");
    }
}
