//! `Timed<N>`: a node wrapper that clocks every callback from outside.
//!
//! The traced run places `Timed<BrokerNode>`, `Timed<LeanPub>` and
//! `Timed<LeanSub>` where the untraced run places the bare nodes. Each
//! wrapper keeps calls and host nanoseconds per callback kind; the
//! harness sums them per node class after every slice, so 18 M
//! callbacks cost four counters per node instead of 18 M spans.

use std::ops::{AddAssign, Sub};
use std::time::Instant;

use dimmer::simnet::{Context, Node, Packet, TimerTag};

use crate::workloads::clocked;

/// Calls and host nanoseconds of one node (or one class of nodes), by
/// callback: start, packet, timer, restart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallbackCost {
    pub calls: [u64; 4],
    pub ns: [u64; 4],
}

pub const START: usize = 0;
pub const PACKET: usize = 1;
pub const TIMER: usize = 2;
pub const RESTART: usize = 3;
pub const CALLBACKS: [&str; 4] = ["on_start", "on_packet", "on_timer", "on_restart"];

impl CallbackCost {
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Mean nanoseconds per call of callback `kind`, 0 with no calls.
    pub fn ns_per_call(&self, kind: usize) -> f64 {
        match self.calls[kind] {
            0 => 0.0,
            n => self.ns[kind] as f64 / n as f64,
        }
    }
}

impl AddAssign for CallbackCost {
    fn add_assign(&mut self, rhs: CallbackCost) {
        for k in 0..4 {
            self.calls[k] += rhs.calls[k];
            self.ns[k] += rhs.ns[k];
        }
    }
}

impl Sub for CallbackCost {
    type Output = CallbackCost;
    fn sub(mut self, rhs: CallbackCost) -> CallbackCost {
        for k in 0..4 {
            self.calls[k] -= rhs.calls[k];
            self.ns[k] -= rhs.ns[k];
        }
        self
    }
}

/// Forwards all four callbacks to `inner`, timing each while the
/// process-wide [`clocked`] switch is on.
pub struct Timed<N: Node> {
    pub inner: N,
    pub cost: CallbackCost,
}

impl<N: Node> Timed<N> {
    pub fn new(inner: N) -> Self {
        Timed {
            inner,
            cost: CallbackCost::default(),
        }
    }

    #[inline]
    fn clock(&mut self, kind: usize, f: impl FnOnce(&mut N)) {
        if !clocked() {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        f(&mut self.inner);
        self.cost.ns[kind] += start.elapsed().as_nanos() as u64;
        self.cost.calls[kind] += 1;
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.clock(START, |n| n.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.clock(PACKET, |n| n.on_packet(ctx, pkt));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.clock(TIMER, |n| n.on_timer(ctx, tag));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        self.clock(RESTART, |n| n.on_restart(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer::simnet::{ParallelConfig, ParallelSimulator, Port, SimDuration};

    /// Counts each callback it receives; restart is told apart from
    /// start so a wrapper that fell back to the default would show.
    #[derive(Default)]
    struct Probe {
        seen: [u32; 4],
    }

    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.seen[START] += 1;
            ctx.set_timer(SimDuration::from_millis(1), TimerTag(7));
            ctx.send(ctx.node_id(), Port::new(9), vec![1]);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {
            self.seen[PACKET] += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: TimerTag) {
            self.seen[TIMER] += 1;
        }
        fn on_restart(&mut self, _ctx: &mut Context<'_>) {
            self.seen[RESTART] += 1;
        }
    }

    #[test]
    fn forwards_and_counts_start_packet_and_timer() {
        crate::workloads::set_clocked(true);
        let mut sim = ParallelSimulator::new(ParallelConfig::default());
        let id = sim.add_node_on(0, "probe", Timed::new(Probe::default()));
        sim.run_for(SimDuration::from_secs(1));
        let node = sim.node_ref::<Timed<Probe>>(id).expect("placed above");
        assert_eq!(node.inner.seen, [1, 1, 1, 0]);
        assert_eq!(node.cost.calls, [1, 1, 1, 0]);
        assert!(node.cost.total_ns() > 0);
    }

    #[test]
    fn restart_reaches_the_inner_restart_hook() {
        // The runner's crash/restart entry points are not among the
        // calls the benchmark may use, and a `Context` only exists
        // inside a run, so a relay node hands the wrapper one.
        struct Relay {
            target: Timed<Probe>,
        }
        impl Node for Relay {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.target.on_restart(ctx);
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        }
        crate::workloads::set_clocked(true);
        let mut sim = ParallelSimulator::new(ParallelConfig::default());
        let id = sim.add_node_on(
            0,
            "relay",
            Relay {
                target: Timed::new(Probe::default()),
            },
        );
        sim.run_for(SimDuration::from_millis(1));
        let relay = sim.node_ref::<Relay>(id).expect("placed above");
        assert_eq!(relay.target.inner.seen, [0, 0, 0, 1]);
        assert_eq!(relay.target.cost.calls, [0, 0, 0, 1]);
    }

    #[test]
    fn cost_arithmetic() {
        let a = CallbackCost {
            calls: [1, 4, 2, 0],
            ns: [10, 400, 100, 0],
        };
        let mut sum = a;
        sum += a;
        assert_eq!(sum.calls, [2, 8, 4, 0]);
        assert_eq!(sum.total_ns(), 1020);
        assert_eq!(sum - a, a);
        assert_eq!(a.ns_per_call(PACKET), 100.0);
        assert_eq!(a.ns_per_call(RESTART), 0.0);
    }
}
