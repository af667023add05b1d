//! The [`Context`] handed to node callbacks.
//!
//! A context buffers the node's side effects (packet sends, timer
//! operations); the simulator applies them once the callback returns. This
//! keeps the borrow structure simple and guarantees that effects of one
//! callback are totally ordered after the event that caused them.

use crate::frame::Frame;
use crate::node::{NodeId, Port, TimerTag};
use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};
use std::fmt;
use telemetry::{SpanId, Telemetry, TraceId, NO_SPAN, NO_TRACE};

#[derive(Debug)]
pub(crate) enum Effect {
    Send {
        dst: NodeId,
        port: Port,
        payload: Frame,
        trace: TraceId,
        span: SpanId,
    },
    SetTimer {
        at: SimTime,
        tag: TimerTag,
    },
}

/// Execution context passed to every [`Node`](crate::Node) callback.
///
/// Grants access to virtual time, the node's own deterministic random
/// stream, packet transmission and timers.
#[derive(Debug)]
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut DeterministicRng,
    pub(crate) effects: &'a mut Vec<Effect>,
    pub(crate) telemetry: &'a Telemetry,
}

impl Context<'_> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node this callback runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The node's private deterministic random stream.
    pub fn rng(&mut self) -> &mut DeterministicRng {
        self.rng
    }

    /// The simulation-wide telemetry handle (metrics + tracer). State is
    /// behind interior mutability, so `&self` suffices for recording.
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }

    /// Queues a packet to `dst` on `port`. Delivery time and loss are
    /// decided by the link model between the two nodes. A `Vec<u8>`
    /// moves into the packet as it is; a [`Frame`] the sender also keeps
    /// is shared, not copied.
    pub fn send(&mut self, dst: NodeId, port: Port, payload: impl Into<Frame>) {
        self.send_spanned(dst, port, payload, NO_TRACE, NO_SPAN);
    }

    /// Like [`Context::send`], but tags the packet with a flight-recorder
    /// trace id so its journey can be reconstructed hop by hop, and
    /// carries the causal span of the sending hop ([`NO_SPAN`] for
    /// none), so the receiver can parent its own spans under it and the
    /// flight recorder can rebuild the cross-node span tree.
    pub fn send_spanned(
        &mut self,
        dst: NodeId,
        port: Port,
        payload: impl Into<Frame>,
        trace: TraceId,
        span: SpanId,
    ) {
        self.effects.push(Effect::Send {
            dst,
            port,
            payload: payload.into(),
            trace,
            span,
        });
    }

    /// Records a flight-recorder hop at the current node and time, minting
    /// a root span for it (no causal parent). Returns the span id so the
    /// hop can be propagated as a parent via [`Context::send_spanned`];
    /// callers that only want the flat flight path may ignore it.
    pub fn trace_hop(
        &self,
        kind: &'static str,
        trace: TraceId,
        detail: fmt::Arguments<'_>,
    ) -> SpanId {
        self.span_hop(kind, trace, NO_SPAN, detail)
    }

    /// Records a flight-recorder hop caused by `parent` (use
    /// [`telemetry::NO_SPAN`] for a root, or the `span` field of the
    /// packet that triggered this work). Mints and returns this hop's own
    /// span id. `detail` is a `format_args!`: an untraced message
    /// ([`NO_TRACE`]) returns before anything is formatted.
    pub fn span_hop(
        &self,
        kind: &'static str,
        trace: TraceId,
        parent: SpanId,
        detail: fmt::Arguments<'_>,
    ) -> SpanId {
        if trace == NO_TRACE {
            return NO_SPAN;
        }
        self.telemetry.tracer.record_hop(
            self.now.as_nanos(),
            self.node.0,
            kind,
            trace,
            parent,
            detail,
        )
    }

    /// Schedules a timer to fire `after` from now, carrying `tag`.
    pub fn set_timer(&mut self, after: SimDuration, tag: TimerTag) {
        self.set_timer_at(self.now + after, tag);
    }

    /// Schedules a timer at an absolute instant, carrying `tag`.
    ///
    /// Instants in the past fire at the current time.
    pub fn set_timer_at(&mut self, at: SimTime, tag: TimerTag) {
        let at = at.max(self.now);
        self.effects.push(Effect::SetTimer { at, tag });
    }
}
