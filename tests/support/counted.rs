//! A node wrapper for the test binaries that pin per-packet allocation
//! counts. Include it next to the allocator it reads:
//! `#[path = "support/counted.rs"] mod counted;`.

use simnet::{Context, Node, Packet, TimerTag};

use crate::counting_alloc::allocations_in;

/// Runs the wrapped node, recording how many allocations each delivered
/// packet costs it.
pub struct Counted<N> {
    pub inner: N,
    pub per_packet: Vec<u64>,
}

impl<N> Counted<N> {
    pub fn new(inner: N) -> Self {
        Counted {
            inner,
            per_packet: Vec::new(),
        }
    }
}

impl<N: Node> Node for Counted<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let ((), allocations) = allocations_in(|| self.inner.on_packet(ctx, pkt));
        self.per_packet.push(allocations);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.inner.on_timer(ctx, tag);
    }
}
