//! The discrete-event kernel: one [`Shard`] of a
//! [`Simulator`](crate::Simulator), crate-private. A stand-alone
//! simulation is a runner with one of these.

use std::collections::HashMap;
use std::fmt;

use crate::context::{Context, Effect};
use crate::event::{EventKind, EventQueue};
use crate::link::LinkModel;
use crate::node::{Node, NodeId, Packet};
use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};
use telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Registry, Telemetry, Tracer};

/// Configuration of a one-shard [`Simulator`](crate::Simulator): the
/// shard is seeded with `seed` itself, and node pairs without an
/// explicit override talk over [`LinkModel::lan`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed from which all simulation randomness derives.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0xD1_44_E2 }
    }
}

/// The link of a cross-shard pair without an explicit override.
pub(crate) static BACKBONE: LinkModel = LinkModel::backbone();

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Packets handed to the network by this node.
    pub packets_sent: u64,
    /// Wire bytes (payload + header) handed to the network.
    pub bytes_sent: u64,
    /// Packets delivered to this node.
    pub(crate) packets_received: u64,
    /// Wire bytes delivered to this node.
    pub bytes_received: u64,
    /// Packets this node sent that the link dropped.
    pub packets_lost: u64,
}

/// Whole-network counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetMetrics {
    /// Total packets handed to the network.
    pub packets_sent: u64,
    /// Total packets delivered.
    pub packets_delivered: u64,
    /// Total packets dropped by links.
    pub packets_lost: u64,
    /// Total wire bytes delivered.
    pub(crate) bytes_delivered: u64,
    /// Total events processed (deliveries, timers, starts).
    pub events_processed: u64,
    /// Packets dropped because the destination was down (or rebooted
    /// between send and delivery).
    pub(crate) packets_dropped_crashed: u64,
    /// Packets dropped at the sender by an active network partition.
    pub(crate) packets_dropped_partitioned: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node restarts completed.
    pub restarts: u64,
}

struct Slot {
    name: String,
    node: Option<Box<dyn Node>>,
    rng: DeterministicRng,
    metrics: NodeMetrics,
    /// False while the node is crashed: no packets, timers or callbacks.
    up: bool,
    /// Incarnation counter, bumped on every crash. Events carry the epoch
    /// they were scheduled under and are discarded on mismatch.
    epoch: u32,
    /// Opt-in NIC rate (bits/s): when set, the node's packets serialize
    /// through its interface one at a time in both directions. `None`
    /// (the default) keeps links as the only delay source.
    nic_bps: Option<u64>,
    /// Instant the NIC finishes transmitting the last egress packet.
    egress_free_at: SimTime,
    /// Instant the NIC finishes receiving the last ingress packet.
    ingress_free_at: SimTime,
    /// Gray-failure service-delay multiplier. 1.0 (the default for
    /// every node) leaves timing untouched; a slow node stretches every
    /// delay on paths it terminates.
    slowdown: f64,
}

/// Time a `wire_size`-byte packet occupies a `bps` NIC.
fn nic_time(wire_size: usize, bps: u64) -> SimDuration {
    let bits = wire_size as u128 * 8 * 1_000_000_000;
    SimDuration::from_nanos((bits / bps.max(1) as u128) as u64)
}

/// A packet bound for a node owned by another shard of a parallel
/// simulation. The sender computed the full delivery delay (link model,
/// sender-side slowdown, sender NIC); the destination shard applies its
/// own ingress shaping and epoch capture when the packet is injected at
/// a lookahead barrier.
#[derive(Debug)]
pub(crate) struct CrossPacket {
    /// When the sending node handed the packet to the network.
    pub(crate) sent: SimTime,
    /// Arrival instant as computed by the sender (always at least one
    /// lookahead window past `sent`).
    pub(crate) arrival: SimTime,
    /// The packet itself.
    pub(crate) pkt: Packet,
}

/// The kernel's per-event series, resolved once per simulator. Fault
/// injection (`chaos.*`) is rare and stays by-name.
struct KernelSeries {
    node_starts: CounterHandle,
    packets_sent: CounterHandle,
    packets_delivered: CounterHandle,
    packets_lost: CounterHandle,
    crash_drops: CounterHandle,
    partition_drops: CounterHandle,
    timers_fired: CounterHandle,
    timers_crashed: CounterHandle,
    wire_bytes: HistogramHandle,
    link_delay_ns: HistogramHandle,
    nic_wait_ns: HistogramHandle,
    arena_in_use: GaugeHandle,
    arena_capacity: GaugeHandle,
}

impl KernelSeries {
    fn resolve(m: &Registry) -> Self {
        KernelSeries {
            node_starts: m.counter_handle("net.node_starts"),
            packets_sent: m.counter_handle("net.packets_sent"),
            packets_delivered: m.counter_handle("net.packets_delivered"),
            packets_lost: m.counter_handle("net.packets_lost"),
            crash_drops: m.counter_handle("net.crash_drops"),
            partition_drops: m.counter_handle("net.partition_drops"),
            timers_fired: m.counter_handle("net.timers_fired"),
            timers_crashed: m.counter_handle("net.timers_crashed"),
            wire_bytes: m.histogram_handle("net.wire_bytes"),
            link_delay_ns: m.histogram_handle("net.link_delay_ns"),
            nic_wait_ns: m.histogram_handle("net.nic_wait_ns"),
            arena_in_use: m.gauge_handle("sim.event_arena_in_use"),
            arena_capacity: m.gauge_handle("sim.event_arena_capacity"),
        }
    }
}

/// One deterministic discrete-event engine: an event queue, the nodes
/// it owns and the links between them.
pub(crate) struct Shard {
    now: SimTime,
    queue: EventQueue,
    slots: Vec<Slot>,
    links: HashMap<(NodeId, NodeId), LinkModel>,
    /// Active partition groups; cross-group packets are dropped at the
    /// sender. Empty = no partition. Nodes in no group reach everyone.
    partitions: Vec<Vec<NodeId>>,
    /// Link model of intra-shard pairs without an explicit override.
    default_link: LinkModel,
    link_rng: DeterministicRng,
    root_rng: DeterministicRng,
    metrics: NetMetrics,
    telemetry: Telemetry,
    kernel: KernelSeries,
    /// The effect buffer handed to each callback's [`Context`], kept
    /// here between callbacks so its storage is reused.
    effects: Vec<Effect>,
    /// Shard tag minted into every id this shard hands out: its index
    /// in the runner.
    shard: u32,
    /// Packets addressed to other shards, accumulated between lookahead
    /// barriers and drained by the runner.
    cross_egress: Vec<CrossPacket>,
}

impl Shard {
    /// Creates an empty shard 0 at time zero. `seed` also keys the
    /// tracer's flight sampling.
    pub(crate) fn new(seed: u64, default_link: LinkModel) -> Self {
        let root_rng = DeterministicRng::seed_from(seed);
        let link_rng = root_rng.derive(u64::MAX);
        let telemetry = Telemetry {
            tracer: Tracer::seeded(seed),
            ..Telemetry::default()
        };
        Shard {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            slots: Vec::new(),
            links: HashMap::new(),
            partitions: Vec::new(),
            default_link,
            link_rng,
            root_rng,
            metrics: NetMetrics::default(),
            kernel: KernelSeries::resolve(&telemetry.metrics),
            telemetry,
            effects: Vec::new(),
            shard: 0,
            cross_egress: Vec::new(),
        }
    }

    /// The current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// The slot index of `id` when this shard owns it, `None` when the
    /// id belongs to another shard.
    #[inline]
    fn local(&self, id: NodeId) -> Option<usize> {
        (id.0 >> NodeId::SHARD_SHIFT == self.shard).then_some((id.0 & NodeId::LOCAL_MASK) as usize)
    }

    /// Tags every id this shard mints with `shard`: node ids, and the
    /// trace and span ids of its tracer. Must be called before any node
    /// is registered.
    pub(crate) fn set_shard(&mut self, shard: u32) {
        assert!(self.slots.is_empty(), "set_shard before adding nodes");
        assert!(shard < (1 << NodeId::SHARD_BITS), "shard tag out of range");
        self.shard = shard;
        self.telemetry.tracer.set_shard(shard as u8);
    }

    /// Drains the packets addressed to other shards since the last call.
    pub(crate) fn take_cross_egress(&mut self) -> Vec<CrossPacket> {
        std::mem::take(&mut self.cross_egress)
    }

    /// The time of the earliest pending event, if any.
    pub(crate) fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Injects a cross-shard packet collected at a lookahead barrier.
    /// Destination-side ingress NIC shaping, gray-failure slowdown and
    /// incarnation-epoch capture all happen here, on the authoritative
    /// (owning) shard, so they are deterministic at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the shaped arrival lands before the shard's current
    /// time — that would mean the lookahead window was wider than the
    /// minimum cross-shard link delay, i.e. a conservative-synchrony
    /// violation.
    pub(crate) fn inject_cross(&mut self, cp: CrossPacket) {
        let CrossPacket {
            sent,
            mut arrival,
            pkt,
        } = cp;
        if let Some(slot) = self.local(pkt.dst).and_then(|i| self.slots.get_mut(i)) {
            // The sender could only apply its own slowdown factor; the
            // receiving endpoint's factor stretches the in-flight delay
            // here. Cross-shard paths therefore compound the two
            // factors instead of taking their max — conservative, and
            // identical at every thread count because it happens at the
            // (deterministic) barrier injection.
            if slot.slowdown != 1.0 {
                let delay = arrival.since(sent);
                arrival = sent
                    + SimDuration::from_nanos(
                        (delay.as_nanos() as f64 * slot.slowdown).round() as u64
                    );
            }
            if let Some(bps) = slot.nic_bps {
                let start = slot.ingress_free_at.max(arrival);
                arrival = start + nic_time(pkt.wire_size(), bps);
                slot.ingress_free_at = arrival;
            }
        }
        assert!(
            arrival >= self.now,
            "cross-shard lookahead violated: arrival {} < now {} (shard {})",
            arrival.as_nanos(),
            self.now.as_nanos(),
            self.shard
        );
        let epoch = self.epoch_of(pkt.dst);
        self.queue.push(arrival, EventKind::Deliver { pkt, epoch });
    }

    /// The number of registered nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Registers a node under a human-readable name and schedules its
    /// [`Node::on_start`] callback at the current time. Names are
    /// unique across shards, so the runner checks them.
    pub(crate) fn add_node<N: Node>(&mut self, name: impl Into<String>, node: N) -> NodeId {
        let name = name.into();
        let index = self.slots.len() as u32;
        assert!(index <= NodeId::LOCAL_MASK, "too many nodes in one shard");
        let id = NodeId((self.shard << NodeId::SHARD_SHIFT) | index);
        self.telemetry.tracer.register_node(id.0, &name);
        let rng = self.root_rng.derive(id.0 as u64);
        self.slots.push(Slot {
            name,
            node: Some(Box::new(node)),
            rng,
            metrics: NodeMetrics::default(),
            up: true,
            epoch: 0,
            nic_bps: None,
            egress_free_at: SimTime::ZERO,
            ingress_free_at: SimTime::ZERO,
            slowdown: 1.0,
        });
        self.queue.push(self.now, EventKind::Start(id));
        id
    }

    /// The registration name of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub(crate) fn node_name(&self, id: NodeId) -> &str {
        &self.slots[self.local(id).expect("foreign node id")].name
    }

    /// Borrows a node, downcast to its concrete type.
    pub(crate) fn node_ref<N: Node>(&self, id: NodeId) -> Option<&N> {
        let b = self.slots.get(self.local(id)?)?.node.as_deref()?;
        (b as &dyn std::any::Any).downcast_ref::<N>()
    }

    /// Mutably borrows a node, downcast to its concrete type.
    pub(crate) fn node_mut<N: Node>(&mut self, id: NodeId) -> Option<&mut N> {
        let i = self.local(id)?;
        let b = self.slots.get_mut(i)?.node.as_deref_mut()?;
        (b as &mut dyn std::any::Any).downcast_mut::<N>()
    }

    /// Overrides the link model for the directed pair `(src, dst)` only.
    pub(crate) fn set_link_directed(&mut self, src: NodeId, dst: NodeId, model: LinkModel) {
        self.links.insert((src, dst), model);
    }

    /// The link model in effect from `src` to `dst`. Pairs that span
    /// two shards fall back to the backbone instead of the shard's
    /// default.
    pub(crate) fn link(&self, src: NodeId, dst: NodeId) -> &LinkModel {
        self.links.get(&(src, dst)).unwrap_or(
            if self.local(src).is_none() || self.local(dst).is_none() {
                &BACKBONE
            } else {
                &self.default_link
            },
        )
    }

    /// Sets or clears the node's NIC rate and resets both NIC cursors
    /// (see [`Simulator::set_node_bandwidth`](crate::Simulator::set_node_bandwidth)).
    pub(crate) fn set_node_bandwidth(&mut self, id: NodeId, bps: Option<u64>) {
        let now = self.now;
        if let Some(slot) = self.local(id).and_then(|i| self.slots.get_mut(i)) {
            slot.nic_bps = bps;
            slot.egress_free_at = now;
            slot.ingress_free_at = now;
        }
    }

    /// Sets the node's gray-failure delay multiplier (see
    /// [`Simulator::set_node_slowdown`](crate::Simulator::set_node_slowdown),
    /// which bounds `factor`).
    pub(crate) fn set_node_slowdown(&mut self, id: NodeId, factor: f64) {
        if let Some(slot) = self.local(id).and_then(|i| self.slots.get_mut(i)) {
            slot.slowdown = factor;
        }
    }

    /// The node's current gray-failure slowdown factor (1.0 = normal).
    pub(crate) fn node_slowdown(&self, id: NodeId) -> f64 {
        self.local(id)
            .and_then(|i| self.slots.get(i))
            .map_or(1.0, |s| s.slowdown)
    }

    fn epoch_of(&self, id: NodeId) -> u32 {
        self.local(id)
            .and_then(|i| self.slots.get(i))
            .map_or(0, |s| s.epoch)
    }

    /// Whether the node is currently up; unknown ids report `false`.
    pub(crate) fn is_up(&self, id: NodeId) -> bool {
        self.local(id)
            .and_then(|i| self.slots.get(i))
            .is_some_and(|s| s.up)
    }

    /// Crashes a node (see [`Simulator::crash`](crate::Simulator::crash)):
    /// it goes down and its epoch is bumped, which invalidates every
    /// packet and timer scheduled for it. The fault is counted and
    /// recorded into this shard's trace stream.
    pub(crate) fn crash(&mut self, id: NodeId) {
        let Some(i) = self.local(id) else { return };
        let Some(slot) = self.slots.get_mut(i) else {
            return;
        };
        if !slot.up {
            return;
        }
        slot.up = false;
        slot.epoch = slot.epoch.wrapping_add(1);
        self.metrics.crashes += 1;
        self.telemetry.metrics.counter_handle("chaos.crash").incr();
        let trace = self.telemetry.tracer.next_trace_id();
        self.telemetry.tracer.record(
            self.now.as_nanos(),
            id.0,
            "chaos.crash",
            trace,
            format_args!("node={}", self.slots[i].name),
        );
    }

    /// Schedules a crashed node to come back up `after` from now.
    pub(crate) fn restart(&mut self, id: NodeId, after: SimDuration) {
        self.queue.push(self.now + after, EventKind::Restart(id));
    }

    /// Partitions the network into `groups`: packets this shard's nodes
    /// send to a node of a different group are dropped at the sender
    /// until [`Shard::heal`] is called. Nodes not listed in any group
    /// keep full connectivity. Replaces any previous partition. The
    /// runner records the fault, once, for all shards.
    pub(crate) fn partition(&mut self, groups: Vec<Vec<NodeId>>) {
        self.partitions = groups;
    }

    /// Lifts the active partition, restoring full connectivity. Returns
    /// whether there was one.
    pub(crate) fn heal(&mut self) -> bool {
        let was_partitioned = !self.partitions.is_empty();
        self.partitions.clear();
        was_partitioned
    }

    /// Whether an active partition separates `src` from `dst`.
    fn partitioned(&self, src: NodeId, dst: NodeId) -> bool {
        let group_of = |n: NodeId| self.partitions.iter().position(|g| g.contains(&n));
        match (group_of(src), group_of(dst)) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }

    /// Counts a fault that belongs to no single node under `kind` and
    /// records it into this shard's trace stream.
    pub(crate) fn record_fault(&self, kind: &'static str, detail: fmt::Arguments<'_>) {
        self.telemetry.metrics.counter_handle(kind).incr();
        let trace = self.telemetry.tracer.next_trace_id();
        self.telemetry
            .tracer
            .record(self.now.as_nanos(), u32::MAX, kind, trace, detail);
    }

    /// Whole-network counters.
    pub(crate) fn metrics(&self) -> NetMetrics {
        self.metrics
    }

    /// This shard's telemetry bundle (metrics registry, tracer): what
    /// its nodes write through their [`Context`].
    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Traffic counters of one node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub(crate) fn node_metrics(&self, id: NodeId) -> NodeMetrics {
        self.slots[self.local(id).expect("foreign node id")].metrics
    }

    /// Resets all traffic counters (network-wide and per node) to zero.
    /// Useful to measure only the steady-state phase of an experiment.
    pub(crate) fn reset_metrics(&mut self) {
        self.metrics = NetMetrics::default();
        for slot in &mut self.slots {
            slot.metrics = NodeMetrics::default();
        }
    }

    /// Processes a single event, if any is pending. Returns the time of the
    /// processed event.
    fn step(&mut self) -> Option<SimTime> {
        let event = self.queue.pop()?;
        self.now = event.time;
        self.metrics.events_processed += 1;
        // The arena gauges are sampled every 4096 events; scrapes see
        // queue pressure as of the last sample.
        if self.metrics.events_processed & 0xFFF == 0 {
            self.kernel
                .arena_in_use
                .set(self.queue.arena_in_use() as f64);
            self.kernel
                .arena_capacity
                .set(self.queue.arena_capacity() as f64);
        }
        match event.kind {
            EventKind::Start(id) => {
                self.kernel.node_starts.incr();
                if self.is_up(id) {
                    self.dispatch(id, |node, ctx| node.on_start(ctx));
                }
            }
            EventKind::Restart(id) => {
                let now = self.now;
                let Some(slot) = self.local(id).and_then(|i| self.slots.get_mut(i)) else {
                    return Some(self.now);
                };
                if !slot.up {
                    slot.up = true;
                    // A rebooted node's NIC queues died with the process.
                    slot.egress_free_at = now;
                    slot.ingress_free_at = now;
                    self.metrics.restarts += 1;
                    self.telemetry
                        .metrics
                        .counter_handle("chaos.restart")
                        .incr();
                    let trace = self.telemetry.tracer.next_trace_id();
                    let i = self.local(id).expect("just matched");
                    self.telemetry.tracer.record(
                        self.now.as_nanos(),
                        id.0,
                        "chaos.restart",
                        trace,
                        format_args!("node={}", self.slots[i].name),
                    );
                    self.dispatch(id, |node, ctx| node.on_restart(ctx));
                }
            }
            EventKind::Deliver { pkt, epoch } => {
                let dst = pkt.dst;
                if let Some(di) = self.local(dst).filter(|&i| i < self.slots.len()) {
                    let slot = &self.slots[di];
                    if !slot.up || slot.epoch != epoch {
                        // The destination crashed (or rebooted) while the
                        // packet was in flight: it evaporates.
                        self.metrics.packets_dropped_crashed += 1;
                        self.kernel.crash_drops.incr();
                        if pkt.trace != 0 {
                            self.telemetry.tracer.record(
                                self.now.as_nanos(),
                                dst.0,
                                "net.crash_drop",
                                pkt.trace,
                                format_args!("from={} port={}", pkt.src, pkt.port),
                            );
                        }
                        return Some(self.now);
                    }
                    let wire = pkt.wire_size() as u64;
                    self.slots[di].metrics.packets_received += 1;
                    self.slots[di].metrics.bytes_received += wire;
                    self.metrics.packets_delivered += 1;
                    self.metrics.bytes_delivered += wire;
                    self.kernel.packets_delivered.incr();
                    if pkt.trace != 0 {
                        self.telemetry.tracer.record(
                            self.now.as_nanos(),
                            dst.0,
                            "net.deliver",
                            pkt.trace,
                            format_args!("from={} port={} bytes={}", pkt.src, pkt.port, wire),
                        );
                    }
                    self.dispatch(dst, |node, ctx| node.on_packet(ctx, pkt));
                }
            }
            EventKind::Timer { node, tag, epoch } => {
                let stale = self
                    .local(node)
                    .and_then(|i| self.slots.get(i))
                    .is_none_or(|s| !s.up || s.epoch != epoch);
                if stale {
                    // Armed before a crash: the crash cancelled it.
                    self.kernel.timers_crashed.incr();
                } else {
                    self.kernel.timers_fired.incr();
                    self.dispatch(node, |n, ctx| n.on_timer(ctx, tag));
                }
            }
        }
        Some(self.now)
    }

    /// Runs until the event queue drains or virtual time would pass
    /// `deadline`; the clock ends exactly at `deadline` if it was reached.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Number of events still pending.
    pub(crate) fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Slots of the event arena currently holding a pending event.
    ///
    /// The event queue stores payloads in a recycled slab; this must
    /// equal [`Shard::pending_events`] at all times and return to
    /// zero when the simulation quiesces — the chaos suite asserts both
    /// to catch slab leaks.
    pub(crate) fn event_arena_in_use(&self) -> usize {
        self.queue.arena_in_use()
    }

    /// High-water mark of the event arena (total slots ever grown).
    pub(crate) fn event_arena_capacity(&self) -> usize {
        self.queue.arena_capacity()
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Context<'_>)) {
        let Some(i) = self.local(id) else { return };
        let Some(mut node) = self.slots.get_mut(i).and_then(|s| s.node.take()) else {
            return;
        };
        let mut effects = std::mem::take(&mut self.effects);
        {
            let slot = &mut self.slots[i];
            let mut ctx = Context {
                now: self.now,
                node: id,
                rng: &mut slot.rng,
                effects: &mut effects,
                telemetry: &self.telemetry,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.slots[i].node = Some(node);
        self.apply_effects(id, &mut effects);
        self.effects = effects;
    }

    fn apply_effects(&mut self, src: NodeId, effects: &mut Vec<Effect>) {
        let si = self.local(src).expect("effects come from a local node");
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    dst,
                    port,
                    payload,
                    trace,
                    span,
                } => {
                    let pkt = Packet {
                        src,
                        dst,
                        port,
                        payload,
                        trace,
                        span,
                    };
                    let wire = pkt.wire_size() as u64;
                    let m = &mut self.slots[si].metrics;
                    m.packets_sent += 1;
                    m.bytes_sent += wire;
                    self.metrics.packets_sent += 1;
                    self.kernel.packets_sent.incr();
                    self.kernel.wire_bytes.observe(wire as f64);
                    if trace != 0 {
                        self.telemetry.tracer.record(
                            self.now.as_nanos(),
                            src.0,
                            "net.send",
                            trace,
                            format_args!("to={} port={} bytes={}", dst, port, wire),
                        );
                    }
                    if self.partitioned(src, dst) {
                        self.metrics.packets_dropped_partitioned += 1;
                        self.kernel.partition_drops.incr();
                        if trace != 0 {
                            self.telemetry.tracer.record(
                                self.now.as_nanos(),
                                src.0,
                                "net.partition_drop",
                                trace,
                                format_args!("to={} port={}", dst, port),
                            );
                        }
                        continue;
                    }
                    let model = if src == dst {
                        // Loopback delivery is ideal.
                        LinkModel::ideal()
                    } else {
                        self.link(src, dst).clone()
                    };
                    match model.sample_delay(pkt.wire_size(), &mut self.link_rng) {
                        Some(mut delay) => {
                            // Gray failure: the path is as slow as its
                            // slowest endpoint. With every factor at the
                            // default 1.0 this is exact identity. A
                            // cross-shard destination has no slot here;
                            // its factor is applied by the owning shard
                            // at barrier injection.
                            let dst_local = self.local(pkt.dst);
                            let factor = self.slots[si].slowdown.max(
                                dst_local
                                    .and_then(|i| self.slots.get(i))
                                    .map_or(1.0, |s| s.slowdown),
                            );
                            if factor != 1.0 {
                                delay = SimDuration::from_nanos(
                                    (delay.as_nanos() as f64 * factor).round() as u64,
                                );
                            }
                            self.kernel.link_delay_ns.observe_ns(delay.as_nanos());
                            // NIC serialization (opt-in, loopback exempt):
                            // the packet departs once the sender's NIC is
                            // free and is delivered once the receiver's
                            // NIC has drained it.
                            let mut depart = self.now;
                            if src != dst {
                                if let Some(bps) = self.slots[si].nic_bps {
                                    let start = self.slots[si].egress_free_at.max(depart);
                                    depart = start + nic_time(pkt.wire_size(), bps);
                                    self.slots[si].egress_free_at = depart;
                                }
                            }
                            let mut arrival = depart + delay;
                            if src != dst {
                                if let Some(slot) = dst_local.and_then(|i| self.slots.get_mut(i)) {
                                    if let Some(bps) = slot.nic_bps {
                                        let start = slot.ingress_free_at.max(arrival);
                                        arrival = start + nic_time(pkt.wire_size(), bps);
                                        slot.ingress_free_at = arrival;
                                    }
                                }
                            }
                            let nic_wait = arrival - (self.now + delay);
                            if !nic_wait.is_zero() {
                                self.kernel.nic_wait_ns.observe_ns(nic_wait.as_nanos());
                            }
                            if dst_local.is_none() {
                                // Another shard owns the destination:
                                // park the packet for the next lookahead
                                // barrier instead of the local queue.
                                self.cross_egress.push(CrossPacket {
                                    sent: self.now,
                                    arrival,
                                    pkt,
                                });
                            } else {
                                let epoch = self.epoch_of(pkt.dst);
                                self.queue.push(arrival, EventKind::Deliver { pkt, epoch });
                            }
                        }
                        None => {
                            self.slots[si].metrics.packets_lost += 1;
                            self.metrics.packets_lost += 1;
                            self.kernel.packets_lost.incr();
                            if pkt.trace != 0 {
                                self.telemetry.tracer.record(
                                    self.now.as_nanos(),
                                    src.0,
                                    "net.drop",
                                    pkt.trace,
                                    format_args!("to={} port={}", pkt.dst, pkt.port),
                                );
                            }
                        }
                    }
                }
                Effect::SetTimer { at, tag } => {
                    let epoch = self.epoch_of(src);
                    self.queue.push(
                        at,
                        EventKind::Timer {
                            node: src,
                            tag,
                            epoch,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Port, TimerTag};

    /// Drivers only these tests need: the runner has its own
    /// `run_until_idle`, and nothing else arms a timer from outside a
    /// node.
    impl Shard {
        fn run_until_idle(&mut self, max_events: u64) -> u64 {
            let mut n = 0;
            while self.step().is_some() {
                n += 1;
                assert!(
                    n <= max_events,
                    "simulation did not quiesce within {max_events} events"
                );
            }
            n
        }

        fn schedule_timer(&mut self, node: NodeId, at: SimTime, tag: TimerTag) {
            self.queue.push(
                at.max(self.now),
                EventKind::Timer {
                    node,
                    tag,
                    epoch: self.epoch_of(node),
                },
            );
        }
    }

    #[derive(Default)]
    struct Counter {
        packets: Vec<(SimTime, Vec<u8>)>,
        timers: Vec<(SimTime, TimerTag)>,
    }

    impl Node for Counter {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            self.packets.push((ctx.now(), pkt.payload.to_vec()));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            self.timers.push((ctx.now(), tag));
        }
    }

    struct Sender {
        dst: NodeId,
        n: u32,
    }

    impl Node for Sender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for i in 0..self.n {
                ctx.send(self.dst, Port::new(1), vec![i as u8]);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    }

    /// A jittery, slightly lossy metropolitan hop.
    fn wan() -> LinkModel {
        LinkModel::builder()
            .latency(SimDuration::from_millis(10))
            .bandwidth_bps(20_000_000)
            .jitter(SimDuration::from_millis(1))
            .loss(0.001)
            .build()
    }

    fn ideal_sim() -> Shard {
        Shard::new(1, LinkModel::ideal())
    }

    #[test]
    fn packets_flow_between_nodes() {
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Counter::default());
        let _tx = sim.add_node("tx", Sender { dst: rx, n: 3 });
        sim.run_until_idle(1000);
        let rx = sim.node_ref::<Counter>(rx).unwrap();
        assert_eq!(rx.packets.len(), 3);
        assert_eq!(rx.packets[0].1, vec![0]);
    }

    #[test]
    fn metrics_count_traffic() {
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Counter::default());
        let tx = sim.add_node("tx", Sender { dst: rx, n: 5 });
        sim.run_until_idle(1000);
        assert_eq!(sim.node_metrics(tx).packets_sent, 5);
        assert_eq!(sim.node_metrics(rx).packets_received, 5);
        assert_eq!(sim.metrics().packets_delivered, 5);
        sim.reset_metrics();
        assert_eq!(sim.metrics().packets_delivered, 0);
    }

    #[test]
    fn latency_delays_delivery() {
        let mut sim = Shard::new(
            2,
            LinkModel::builder()
                .latency(SimDuration::from_millis(10))
                .bandwidth_bps(u64::MAX - 1)
                .build(),
        );
        let rx = sim.add_node("rx", Counter::default());
        let _tx = sim.add_node("tx", Sender { dst: rx, n: 1 });
        sim.run_until_idle(1000);
        let rx = sim.node_ref::<Counter>(rx).unwrap();
        assert_eq!(
            rx.packets[0].0,
            SimTime::ZERO + SimDuration::from_millis(10)
        );
    }

    #[test]
    fn lossy_link_drops() {
        let mut sim = Shard::new(3, LinkModel::builder().loss(1.0).build());
        let rx = sim.add_node("rx", Counter::default());
        let tx = sim.add_node("tx", Sender { dst: rx, n: 4 });
        sim.run_until_idle(1000);
        assert_eq!(sim.node_metrics(tx).packets_lost, 4);
        assert!(sim.node_ref::<Counter>(rx).unwrap().packets.is_empty());
    }

    #[derive(Default)]
    struct TimerNode {
        fired: Vec<TimerTag>,
    }

    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), TimerTag(1));
            ctx.set_timer(SimDuration::from_secs(2), TimerTag(2));
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, tag: TimerTag) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = ideal_sim();
        let n = sim.add_node("t", TimerNode::default());
        sim.run_until_idle(100);
        assert_eq!(
            sim.node_ref::<TimerNode>(n).unwrap().fired,
            vec![TimerTag(1), TimerTag(2)]
        );
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = ideal_sim();
        sim.run_until(SimTime::from_secs(42));
        assert_eq!(sim.now(), SimTime::from_secs(42));
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let mut sim = Shard::new(seed, wan());
            let rx = sim.add_node("rx", Counter::default());
            let _tx = sim.add_node("tx", Sender { dst: rx, n: 50 });
            sim.run_until_idle(10_000);
            sim.node_ref::<Counter>(rx)
                .unwrap()
                .packets
                .iter()
                .map(|(t, p)| (t.as_nanos(), p.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn wrong_downcast_returns_none() {
        let mut sim = ideal_sim();
        let id = sim.add_node("x", Counter::default());
        assert!(sim.node_ref::<TimerNode>(id).is_none());
        assert!(sim.node_ref::<Counter>(id).is_some());
    }

    #[test]
    fn external_timer_injection() {
        let mut sim = ideal_sim();
        let n = sim.add_node("t", TimerNode::default());
        sim.run_until_idle(100);
        sim.schedule_timer(n, SimTime::from_secs(10), TimerTag(99));
        sim.run_until_idle(100);
        assert!(sim
            .node_ref::<TimerNode>(n)
            .unwrap()
            .fired
            .contains(&TimerTag(99)));
    }

    /// Ticks every second; counts restarts through the lifecycle hook.
    #[derive(Default)]
    struct Beeper {
        beeps: Vec<SimTime>,
        restarts: u32,
    }

    impl Node for Beeper {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), TimerTag(1));
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: TimerTag) {
            self.beeps.push(ctx.now());
            ctx.set_timer(SimDuration::from_secs(1), TimerTag(1));
        }
        fn on_restart(&mut self, ctx: &mut Context<'_>) {
            self.restarts += 1;
            self.on_start(ctx);
        }
    }

    #[test]
    fn crash_cancels_timers_until_restart() {
        let mut sim = ideal_sim();
        let n = sim.add_node("beeper", Beeper::default());
        sim.run_until(SimTime::from_secs(3));
        sim.crash(n);
        assert!(!sim.is_up(n));
        sim.run_until(SimTime::from_secs(10));
        let beeps = sim.node_ref::<Beeper>(n).unwrap().beeps.len();
        assert_eq!(beeps, 3, "no ticks while down");

        sim.restart(n, SimDuration::from_secs(2));
        sim.run_until(SimTime::from_secs(20));
        let b = sim.node_ref::<Beeper>(n).unwrap();
        assert_eq!(b.restarts, 1);
        assert!(sim.is_up(n));
        // Back up at t=12, ticking at 13..=20.
        assert_eq!(b.beeps.len(), 3 + 8);
        assert_eq!(sim.metrics().crashes, 1);
        assert_eq!(sim.metrics().restarts, 1);
    }

    #[test]
    fn packets_to_a_crashed_node_are_dropped() {
        let mut sim = Shard::new(
            5,
            LinkModel::builder()
                .latency(SimDuration::from_millis(10))
                .bandwidth_bps(u64::MAX - 1)
                .build(),
        );
        let rx = sim.add_node("rx", Counter::default());
        let _tx = sim.add_node("tx", Sender { dst: rx, n: 3 });
        // Crash the receiver before the packets (in flight) arrive.
        sim.crash(rx);
        sim.run_until_idle(1000);
        assert!(sim.node_ref::<Counter>(rx).unwrap().packets.is_empty());
        assert_eq!(sim.metrics().packets_dropped_crashed, 3);
        assert_eq!(sim.metrics().packets_delivered, 0);
    }

    #[test]
    fn restart_between_send_and_delivery_still_drops() {
        let mut sim = Shard::new(
            6,
            LinkModel::builder()
                .latency(SimDuration::from_secs(1))
                .bandwidth_bps(u64::MAX - 1)
                .build(),
        );
        let rx = sim.add_node("rx", Counter::default());
        let _tx = sim.add_node("tx", Sender { dst: rx, n: 1 });
        sim.run_until(SimTime::from_nanos(1_000_000));
        // The packet is in flight (arrives at t=1s). Reboot quickly: the
        // epoch bump must still kill the packet.
        sim.crash(rx);
        sim.restart(rx, SimDuration::from_millis(10));
        sim.run_until_idle(1000);
        assert!(sim.node_ref::<Counter>(rx).unwrap().packets.is_empty());
        assert_eq!(sim.metrics().packets_dropped_crashed, 1);
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_heal() {
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Counter::default());
        let tx = sim.add_node("tx", Sender { dst: rx, n: 2 });
        sim.partition(vec![vec![rx], vec![tx]]);
        assert!(sim.partitioned(tx, rx));
        sim.run_until_idle(1000);
        assert!(sim.node_ref::<Counter>(rx).unwrap().packets.is_empty());
        assert_eq!(sim.metrics().packets_dropped_partitioned, 2);

        sim.heal();
        assert!(!sim.partitioned(tx, rx));
        sim.add_node("tx2", Sender { dst: rx, n: 2 });
        sim.run_until_idle(1000);
        assert_eq!(sim.node_ref::<Counter>(rx).unwrap().packets.len(), 2);
    }

    #[test]
    fn unlisted_nodes_are_unaffected_by_partition() {
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Counter::default());
        let a = sim.add_node("a", Counter::default());
        let b = sim.add_node("b", Counter::default());
        sim.partition(vec![vec![a], vec![b]]);
        // rx is in no group: everyone still reaches it.
        assert!(!sim.partitioned(a, rx));
        assert!(!sim.partitioned(rx, b));
        assert!(sim.partitioned(a, b));
    }

    #[test]
    fn faults_appear_in_the_trace_stream() {
        let mut sim = ideal_sim();
        let n = sim.add_node("victim", Beeper::default());
        sim.crash(n);
        sim.restart(n, SimDuration::from_secs(1));
        sim.record_fault("chaos.link_flap", format_args!("a=n0 b=n1"));
        sim.run_until(SimTime::from_secs(2));
        let kinds: Vec<String> = sim
            .telemetry()
            .tracer
            .events()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        // Partitions and heals are recorded by the runner, once for all
        // shards (`parallel::tests::crash_and_partition_fan_out`).
        for kind in ["chaos.crash", "chaos.restart", "chaos.link_flap"] {
            assert!(kinds.iter().any(|k| k == kind), "missing {kind}: {kinds:?}");
        }
    }

    #[test]
    fn a_crash_after_the_ring_wraps_keeps_its_trace_id() {
        let mut sim = ideal_sim();
        let n = sim.add_node("victim", Beeper::default());
        let tracer = sim.telemetry().tracer.clone();
        tracer.set_capacity(4);
        for _ in 0..8 {
            sim.record_fault("chaos.link_flap", format_args!(""));
        }
        assert!(tracer.dropped() > 0, "the ring has not wrapped");
        let flights: Vec<_> = (0..64).map(|_| tracer.start_flight()).collect();
        assert!(flights.contains(&telemetry::NO_TRACE), "nothing sampled");
        sim.crash(n);
        let crash = tracer.events().pop().expect("recorded");
        assert_eq!(crash.kind, "chaos.crash");
        assert_ne!(crash.trace_id, telemetry::NO_TRACE);
    }

    #[test]
    fn nic_bandwidth_serializes_egress() {
        // 10 packets of 68 wire bytes over an ideal link, but a sender
        // NIC of 8 kbit/s: each packet occupies the NIC for 68 ms, so
        // deliveries are spaced 68 ms apart instead of arriving at once.
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Counter::default());
        let tx = sim.add_node("tx", Sender { dst: rx, n: 10 });
        sim.set_node_bandwidth(tx, Some(8_000));
        sim.run_until_idle(1000);
        let got = &sim.node_ref::<Counter>(rx).unwrap().packets;
        assert_eq!(got.len(), 10);
        // Payload 1 byte + 32-byte header = 33 bytes = 33 ms at 1 kB/s.
        let spacing = SimDuration::from_millis(33);
        for (i, (t, _)) in got.iter().enumerate() {
            assert_eq!(*t, SimTime::ZERO + spacing * (i as u64 + 1), "packet {i}");
        }
    }

    #[test]
    fn nic_bandwidth_serializes_ingress() {
        // Two senders each fire 3 packets at t=0; the receiver NIC
        // drains one packet per 33 ms, so the last arrives at 6*33 ms.
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Counter::default());
        let _a = sim.add_node("a", Sender { dst: rx, n: 3 });
        let _b = sim.add_node("b", Sender { dst: rx, n: 3 });
        sim.set_node_bandwidth(rx, Some(8_000));
        sim.run_until_idle(1000);
        let got = &sim.node_ref::<Counter>(rx).unwrap().packets;
        assert_eq!(got.len(), 6);
        let last = got.iter().map(|(t, _)| *t).max().unwrap();
        assert_eq!(last, SimTime::ZERO + SimDuration::from_millis(6 * 33));
        assert_eq!(sim.metrics().packets_delivered, 6);
    }

    #[test]
    fn nic_default_off_keeps_timing_identical() {
        let run = |nic: bool| {
            let mut sim = Shard::new(9, wan());
            let rx = sim.add_node("rx", Counter::default());
            let tx = sim.add_node("tx", Sender { dst: rx, n: 20 });
            if nic {
                // Effectively infinite NIC: must not shift any delivery.
                sim.set_node_bandwidth(tx, None);
            }
            sim.run_until_idle(10_000);
            sim.node_ref::<Counter>(rx)
                .unwrap()
                .packets
                .iter()
                .map(|(t, _)| t.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn slowdown_stretches_delays_by_the_factor() {
        // Ideal link with a fixed 10 ms latency: a 5× slow receiver
        // turns every delivery into 50 ms.
        let run = |factor: f64| {
            let mut sim = Shard::new(
                11,
                LinkModel::builder()
                    .latency(SimDuration::from_millis(10))
                    .bandwidth_bps(u64::MAX - 1)
                    .build(),
            );
            let rx = sim.add_node("rx", Counter::default());
            let _tx = sim.add_node("tx", Sender { dst: rx, n: 3 });
            sim.set_node_slowdown(rx, factor);
            assert_eq!(sim.node_slowdown(rx), factor);
            sim.run_until_idle(1000);
            sim.node_ref::<Counter>(rx)
                .unwrap()
                .packets
                .iter()
                .map(|(t, _)| t.as_nanos())
                .collect::<Vec<_>>()
        };
        let normal = run(1.0);
        let slow = run(5.0);
        assert_eq!(normal.len(), 3);
        assert_eq!(slow.len(), 3, "a slow node still answers — late");
        for (n, s) in normal.iter().zip(&slow) {
            assert_eq!(*s, n * 5, "delay must scale exactly by the factor");
        }
    }

    #[test]
    fn slowdown_default_keeps_timing_identical() {
        let run = |touch: bool| {
            let mut sim = Shard::new(12, wan());
            let rx = sim.add_node("rx", Counter::default());
            let tx = sim.add_node("tx", Sender { dst: rx, n: 20 });
            if touch {
                sim.set_node_slowdown(tx, 1.0);
            }
            sim.run_until_idle(10_000);
            sim.node_ref::<Counter>(rx)
                .unwrap()
                .packets
                .iter()
                .map(|(t, _)| t.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    struct BurstThenTimer {
        dst: NodeId,
        n: u32,
    }

    impl Node for BurstThenTimer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.n {
                ctx.send(self.dst, Port::new(1), vec![0]);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: TimerTag) {
            ctx.send(self.dst, Port::new(1), vec![7]);
        }
        fn on_restart(&mut self, _ctx: &mut Context<'_>) {
            // Don't resend the boot burst; the test probes the cursor.
        }
    }

    #[test]
    fn nic_backlog_resets_on_restart() {
        // 50 packets at 1 kbit/s push the egress cursor out to ~13 s.
        // The sender then crashes; a send after the restart must not
        // queue behind the dead process's backlog.
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Counter::default());
        let tx = sim.add_node("tx", BurstThenTimer { dst: rx, n: 50 });
        sim.set_node_bandwidth(tx, Some(1_000));
        sim.run_until(SimTime::from_nanos(1_000_000));
        sim.crash(tx);
        sim.restart(tx, SimDuration::from_millis(10));
        sim.schedule_timer(tx, SimTime::from_nanos(100_000_000), TimerTag(1));
        sim.run_until_idle(100_000);
        let got = &sim.node_ref::<Counter>(rx).unwrap().packets;
        let (when, _) = got
            .iter()
            .find(|(_, p)| p == &vec![7])
            .expect("post-restart send delivered");
        // 33 bytes at 1 kbit/s is 264 ms on the wire; without the
        // cursor reset this would land after the ~13.2 s backlog.
        assert_eq!(
            *when,
            SimTime::from_nanos(100_000_000) + SimDuration::from_millis(264)
        );
    }

    #[test]
    fn crashes_replay_identically_under_a_seed() {
        let run = |seed| {
            let mut sim = Shard::new(seed, wan());
            let rx = sim.add_node("rx", Counter::default());
            let _tx = sim.add_node("tx", Sender { dst: rx, n: 50 });
            sim.run_until(SimTime::from_nanos(5_000_000));
            sim.crash(rx);
            sim.restart(rx, SimDuration::from_millis(20));
            sim.run_until_idle(10_000);
            let m = sim.metrics();
            (
                m.packets_dropped_crashed,
                m.packets_delivered,
                sim.node_ref::<Counter>(rx)
                    .unwrap()
                    .packets
                    .iter()
                    .map(|(t, p)| (t.as_nanos(), p.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(11), run(11));
    }
}
