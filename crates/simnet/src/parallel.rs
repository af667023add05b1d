//! The simulation runner: one [`Simulator`], one or more shards, with
//! deterministic cross-shard merging.
//!
//! A [`Simulator`] partitions one logical simulation into up to 256
//! shards (one per broker shard of the deployment, by convention), each
//! a discrete-event engine of its own, and executes them on worker OS
//! threads. A stand-alone simulation is the one-shard case: no cross
//! traffic, no barrier, a plain run of its only engine. Cross-shard
//! traffic flows through epoch-synchronized mailboxes drained at
//! **conservative lookahead barriers**: virtual time advances in windows
//! no wider than the minimum delay of any cross-shard link, so a packet
//! sent during a window can never arrive inside it, and every shard sees
//! the complete, identically-ordered set of foreign packets before it
//! executes the instants they land on.
//!
//! ## Why the merged order is bit-identical at any thread count
//!
//! 1. The barrier schedule (the sequence of window end times) is
//!    computed from per-shard event peeks and mailbox arrivals only —
//!    values each deterministic shard produces on its own — by one
//!    formula evaluated on the coordinator. Thread placement never
//!    enters it.
//! 2. Mailboxes are merged in shard-index order and stably sorted by
//!    arrival time, so ties resolve by (shard, send order), never by
//!    which thread finished first.
//! 3. Each shard's event queue assigns its `(time, seq)` total order
//!    from its own deterministic seed and the injection order of
//!    foreign packets, both of which are thread-count independent.
//!
//! Workers block at every barrier until the coordinator has merged all
//! mailboxes — the classic conservative (Chandy–Misra–Bryant style)
//! trade: parallelism bounded by lookahead, determinism absolute.
//!
//! ```
//! use simnet::{Context, Node, Packet, ParallelConfig, Port, SimDuration, Simulator};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
//!         ctx.send(pkt.src, pkt.port, pkt.payload);
//!     }
//! }
//! struct Pinger { peer: simnet::NodeId, got: u32 }
//! impl Node for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context<'_>) {
//!         ctx.send(self.peer, Port::new(7), b"ping".to_vec());
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {
//!         self.got += 1;
//!     }
//! }
//!
//! let mut sim = Simulator::new(ParallelConfig {
//!     shards: 2,
//!     threads: 2,
//!     ..ParallelConfig::default()
//! });
//! let echo = sim.add_node_on(0, "echo", Echo);
//! let pinger = sim.add_node_on(1, "pinger", Pinger { peer: echo, got: 0 });
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.node_ref::<Pinger>(pinger).unwrap().got, 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{Receiver, Sender};

use crate::link::LinkModel;
use crate::node::{Node, NodeId};
use crate::rng::DeterministicRng;
use crate::sim::{CrossPacket, NetMetrics, NodeMetrics, Shard, SimConfig};
use crate::time::{SimDuration, SimTime};
use telemetry::Telemetry;

/// Configuration of a sharded [`Simulator`]: shard `i` is seeded with
/// `seed`'s `i`-th derived sub-seed, also when `shards` is 1.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Seed from which every shard's randomness derives (each shard gets
    /// a distinct sub-seed, stable across thread counts).
    pub seed: u64,
    /// Number of simulation shards (1–256). Fixed for the lifetime of
    /// the simulation; determinism is guaranteed across *thread* counts
    /// for a given shard count, not across shard counts.
    pub shards: usize,
    /// Number of OS threads executing the shards (clamped to `shards`).
    /// Thread 0 is the caller's thread, which doubles as the barrier
    /// coordinator.
    pub threads: usize,
    /// Intra-shard link model for pairs without an explicit override.
    pub default_link: LinkModel,
    /// Cross-shard link model for pairs without an explicit override.
    /// Its minimum delay bounds the lookahead, so it must be able to
    /// deliver and must have positive latency − jitter.
    pub cross_link: LinkModel,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            seed: 0xD1_44_E2,
            shards: 1,
            threads: 1,
            default_link: LinkModel::lan(),
            cross_link: LinkModel::backbone(),
        }
    }
}

/// Counters accumulated by the barrier protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelStats {
    /// Lookahead windows executed.
    pub windows: u64,
    /// Cross-shard packets routed through the mailboxes.
    pub cross_packets: u64,
    /// Wall-clock nanoseconds the coordinator spent blocked waiting for
    /// worker reports (virtual time never sees it).
    pub barrier_stall_ns: u64,
    /// Largest single-barrier mailbox (packets bound for one shard).
    pub max_mailbox_depth: usize,
}

/// What a shard group hands back after running a window: per shard, its
/// cross-shard egress and the time of its earliest remaining event.
type GroupReport = Vec<(usize, Vec<CrossPacket>, Option<SimTime>)>;

/// A window order broadcast by the coordinator: mail to inject (indexed
/// like the group's shard list), then run to `end`. When `done` is set
/// the worker injects the final mail and exits without running.
struct Order {
    end: SimTime,
    ingress: Vec<Vec<CrossPacket>>,
    done: bool,
}

/// What either config lowers to: one kernel seed per shard. The two
/// `From` impls below are the only place the two seed rules live, and
/// the only way to make one, so [`Simulator::new`] accepts exactly
/// [`SimConfig`] and [`ParallelConfig`].
pub struct ShardPlan {
    seeds: Vec<u64>,
    threads: usize,
    default_link: LinkModel,
    cross_link: LinkModel,
}

impl From<SimConfig> for ShardPlan {
    /// One shard, seeded with `seed` itself.
    fn from(cfg: SimConfig) -> Self {
        ShardPlan {
            seeds: vec![cfg.seed],
            threads: 1,
            default_link: cfg.default_link,
            cross_link: LinkModel::backbone(),
        }
    }
}

impl From<ParallelConfig> for ShardPlan {
    /// Shard `i` gets `root.derive(i)`: a pure function of `(seed, i)`,
    /// identical at every thread count.
    fn from(cfg: ParallelConfig) -> Self {
        assert!(
            (1..=1 << NodeId::SHARD_BITS).contains(&cfg.shards),
            "shard count must be 1..=256"
        );
        assert!(cfg.threads >= 1, "thread count must be positive");
        let root = DeterministicRng::seed_from(cfg.seed);
        ShardPlan {
            seeds: (0..cfg.shards as u64)
                .map(|i| root.derive(i).next_u64())
                .collect(),
            threads: cfg.threads,
            default_link: cfg.default_link,
            cross_link: cfg.cross_link,
        }
    }
}

/// A deterministic discrete-event network simulation: one or more
/// shards of one logical network, run on worker threads and
/// synchronized by conservative lookahead barriers, so the merged event
/// order is bit-identical at every thread count. Built from a
/// [`SimConfig`] it has one shard and no barrier; from a
/// [`ParallelConfig`], as many as the config asks for.
///
/// See the [crate-level documentation](crate) for a full example.
pub struct Simulator {
    shards: Vec<Shard>,
    threads: usize,
    /// The node-name registry, the only one: lookups work across
    /// shards.
    names: HashMap<String, NodeId>,
    /// Directed cross-shard link overrides, tracked so the lookahead
    /// can shrink to match (the owning shard holds the model used for
    /// delay sampling).
    cross_links: HashMap<(NodeId, NodeId), LinkModel>,
    cross_default: LinkModel,
    stats: ParallelStats,
}

/// The runner's former name. `benchmark/` is the only caller.
pub type ParallelSimulator = Simulator;

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("shards", &self.shards.len())
            .field("threads", &self.threads)
            .field("now", &self.now())
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulation at time zero from a [`SimConfig`]
    /// (one shard, seeded with the config's seed) or a
    /// [`ParallelConfig`] (`shards` shards, each seeded with a sub-seed
    /// derived from the config's seed).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or exceeds 256, or `threads` is 0.
    pub fn new(cfg: impl Into<ShardPlan>) -> Self {
        let plan = cfg.into();
        let shards: Vec<Shard> = plan
            .seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let mut shard = Shard::new(SimConfig {
                    seed,
                    default_link: plan.default_link.clone(),
                });
                shard.set_shard(i as u32);
                shard.set_cross_default_link(plan.cross_link.clone());
                shard
            })
            .collect();
        Simulator {
            threads: plan.threads.min(shards.len()),
            shards,
            names: HashMap::new(),
            cross_links: HashMap::new(),
            cross_default: plan.cross_link,
            stats: ParallelStats::default(),
        }
    }

    /// Number of simulation shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of OS threads executing the shards.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The current virtual time (all shards agree between runs).
    pub fn now(&self) -> SimTime {
        self.shards[0].now()
    }

    /// Barrier-protocol counters accumulated so far.
    pub fn stats(&self) -> ParallelStats {
        self.stats
    }

    /// Shard 0's telemetry bundle: the whole simulation's when there is
    /// one shard, and where faults that belong to no single node
    /// (partitions, heals, link and slow-node faults) are recorded when
    /// there are more.
    ///
    /// The handle is clonable and internally shared: a clone taken before
    /// a run observes everything recorded during it.
    pub fn telemetry(&self) -> &Telemetry {
        self.shard_telemetry(0)
    }

    /// The telemetry bundle of one shard: what the nodes placed on it
    /// write and serve.
    pub fn shard_telemetry(&self, shard: usize) -> &Telemetry {
        self.shards[shard].telemetry()
    }

    /// Registers a node on shard 0 (the only shard of a stand-alone
    /// simulation); see [`Simulator::add_node_on`].
    pub fn add_node<N: Node>(&mut self, name: impl Into<String>, node: N) -> NodeId {
        self.add_node_on(0, name, node)
    }

    /// Registers a node on `shard` under a globally unique name and
    /// schedules its [`Node::on_start`] callback at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `name` is taken anywhere in
    /// the simulation.
    pub fn add_node_on<N: Node>(
        &mut self,
        shard: usize,
        name: impl Into<String>,
        node: N,
    ) -> NodeId {
        let name = name.into();
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        assert!(
            !self.names.contains_key(&name),
            "duplicate node name {name:?}"
        );
        let id = self.shards[shard].add_node(name.clone(), node);
        self.names.insert(name, id);
        id
    }

    /// The shard that owns `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id's shard tag is out of range.
    fn owner(&self, id: NodeId) -> &Shard {
        &self.shards[id.shard()]
    }

    fn owner_mut(&mut self, id: NodeId) -> &mut Shard {
        &mut self.shards[id.shard()]
    }

    /// The number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.shards.iter().map(Shard::node_count).sum()
    }

    /// Looks a node up by its registration name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// The registration name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        self.owner(id).node_name(id)
    }

    /// Borrows a node, downcast to its concrete type.
    ///
    /// Returns `None` if `id` is unknown, the node is currently executing a
    /// callback, or the concrete type does not match.
    pub fn node_ref<N: Node>(&self, id: NodeId) -> Option<&N> {
        self.owner(id).node_ref(id)
    }

    /// Mutably borrows a node, downcast to its concrete type.
    pub fn node_mut<N: Node>(&mut self, id: NodeId) -> Option<&mut N> {
        self.owner_mut(id).node_mut(id)
    }

    /// Whether the node is currently up (i.e. not crashed).
    ///
    /// Unknown ids report `false`.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.owner(id).is_up(id)
    }

    /// Traffic counters of one node.
    pub fn node_metrics(&self, id: NodeId) -> NodeMetrics {
        self.owner(id).node_metrics(id)
    }

    /// Models the node's network interface as a `bps` serializer: its
    /// packets (egress and ingress) occupy the NIC one at a time, so a
    /// node fanning out faster than its interface drains builds a real
    /// backlog. `None` (the default for every node) disables the model
    /// and keeps links as the only delay source. Cross-shard packets are
    /// shaped on egress by the sender's shard and on ingress by the
    /// owner's shard at barrier injection.
    ///
    /// Unknown ids are ignored.
    pub fn set_node_bandwidth(&mut self, id: NodeId, bps: Option<u64>) {
        self.owner_mut(id).set_node_bandwidth(id, bps);
    }

    /// Overrides the link model between `a` and `b` in both directions.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, model: LinkModel) {
        self.set_link_directed(a, b, model.clone());
        self.set_link_directed(b, a, model);
    }

    /// Overrides the link model for the directed pair `(src, dst)` only.
    pub(crate) fn set_link_directed(&mut self, src: NodeId, dst: NodeId, model: LinkModel) {
        if src.shard() != dst.shard() {
            // Track the override so the lookahead can adapt; delay
            // sampling happens on the sending shard.
            self.cross_links.insert((src, dst), model.clone());
        }
        self.owner_mut(src).set_link_directed(src, dst, model);
    }

    /// The link model in effect from `src` to `dst`.
    pub(crate) fn link_model(&self, src: NodeId, dst: NodeId) -> LinkModel {
        self.owner(src).link(src, dst).clone()
    }

    /// Models a gray-failed ("slow but up") node: every packet delay on
    /// a path that starts or ends at `id` is multiplied by `factor`.
    /// The node keeps answering — late — which is exactly the failure
    /// mode liveness probes miss. `1.0` (the default for every node)
    /// restores normal service.
    ///
    /// Unknown ids are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is below 1.0: shrinking delays under the
    /// lookahead would break conservative synchrony, and gray failures
    /// only slow nodes down.
    pub(crate) fn set_node_slowdown(&mut self, id: NodeId, factor: f64) {
        assert!(factor >= 1.0, "slowdown factors must be >= 1.0");
        self.owner_mut(id).set_node_slowdown(id, factor);
    }

    /// The node's current gray-failure slowdown factor (1.0 = normal).
    pub(crate) fn node_slowdown(&self, id: NodeId) -> f64 {
        self.owner(id).node_slowdown(id)
    }

    /// Crashes a node: from now until a [`Simulator::restart`] completes,
    /// packets addressed to it are dropped, its pending timers are
    /// silently discarded and no callbacks run. The node's struct state
    /// is untouched — what a restart wipes or keeps is decided by
    /// [`Node::on_restart`].
    ///
    /// Crashing an already-down node is a no-op. The fault is counted and
    /// recorded into the owning shard's trace stream.
    pub fn crash(&mut self, id: NodeId) {
        self.owner_mut(id).crash(id);
    }

    /// Schedules a crashed node to come back up `after` from now; its
    /// [`Node::on_restart`] hook runs at that instant. A restart
    /// scheduled for a node that is (still or again) up when it fires is
    /// ignored.
    pub fn restart(&mut self, id: NodeId, after: SimDuration) {
        self.owner_mut(id).restart(id, after);
    }

    /// Partitions the network into `groups`: packets between nodes of
    /// different groups are dropped at the sender until
    /// [`Simulator::heal`] is called. Nodes not listed in any group keep
    /// full connectivity. Replaces any previous partition.
    pub(crate) fn partition(&mut self, groups: Vec<Vec<NodeId>>) {
        let sizes: Vec<String> = groups.iter().map(|g| g.len().to_string()).collect();
        // Every shard drops cross-group packets at its own senders, so
        // each needs the full group list.
        for s in &mut self.shards {
            s.partition(groups.clone());
        }
        self.record_fault(
            "chaos.partition",
            format_args!("groups=[{}]", sizes.join(",")),
        );
    }

    /// Lifts the active partition, restoring full connectivity.
    pub(crate) fn heal(&mut self) {
        let mut healed = false;
        for s in &mut self.shards {
            healed |= s.heal();
        }
        if healed {
            self.record_fault("chaos.heal", format_args!(""));
        }
    }

    /// Counts a fault that belongs to no single node under `kind` and
    /// records it into the trace stream of [`Simulator::telemetry`]
    /// (chaos controllers use this for faults the simulator does not
    /// apply itself, e.g. link flaps).
    pub(crate) fn record_fault(&self, kind: &'static str, detail: fmt::Arguments<'_>) {
        self.shards[0].record_fault(kind, detail);
    }

    /// Whole-network counters, summed across shards.
    pub fn metrics(&self) -> NetMetrics {
        let mut total = NetMetrics::default();
        for s in &self.shards {
            let m = s.metrics();
            total.packets_sent += m.packets_sent;
            total.packets_delivered += m.packets_delivered;
            total.packets_lost += m.packets_lost;
            total.bytes_delivered += m.bytes_delivered;
            total.events_processed += m.events_processed;
            total.packets_dropped_crashed += m.packets_dropped_crashed;
            total.packets_dropped_partitioned += m.packets_dropped_partitioned;
            total.crashes += m.crashes;
            total.restarts += m.restarts;
        }
        total
    }

    /// Resets traffic counters on every shard.
    pub fn reset_metrics(&mut self) {
        for s in &mut self.shards {
            s.reset_metrics();
        }
    }

    /// Events still pending, summed across shards.
    pub fn pending_events(&self) -> usize {
        self.shards.iter().map(Shard::pending_events).sum()
    }

    /// Slots of the event arenas currently holding a pending event.
    ///
    /// The event queues store payloads in recycled slabs; this must
    /// equal [`Simulator::pending_events`] at all times and return to
    /// zero when the simulation quiesces — the chaos suite asserts both
    /// to catch slab leaks.
    pub fn event_arena_in_use(&self) -> usize {
        self.shards.iter().map(Shard::event_arena_in_use).sum()
    }

    /// High-water mark of the event arenas (total slots ever grown).
    pub fn event_arena_capacity(&self) -> usize {
        self.shards.iter().map(Shard::event_arena_capacity).sum()
    }

    /// The conservative lookahead: the minimum delay any cross-shard
    /// link can produce. Windows never exceed it, so a packet sent
    /// during a window always lands in a later one.
    ///
    /// Links that drop everything (loss ≥ 1.0, e.g. a chaos link flap)
    /// never deliver and do not constrain the lookahead.
    ///
    /// # Panics
    ///
    /// Panics if a cross-shard link that can deliver has zero minimum
    /// delay while more than one shard exists — conservative synchrony
    /// would need zero-width windows.
    pub(crate) fn lookahead(&self) -> SimDuration {
        let la = self
            .cross_links
            .values()
            .chain(std::iter::once(&self.cross_default))
            .filter_map(LinkModel::min_delay)
            .min()
            // Every deliverable cross link drops packets: no cross
            // traffic can ever arrive, so any positive window works.
            .unwrap_or_else(|| {
                self.cross_default
                    .latency()
                    .max(SimDuration::from_millis(1))
            });
        assert!(
            self.shards.len() == 1 || !la.is_zero(),
            "cross-shard lookahead is zero: a cross-shard link with \
             latency <= jitter cannot be parallelized conservatively"
        );
        la
    }

    /// Runs for `dur` of virtual time from the current instant.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.now() + dur;
        self.run_until(deadline);
    }

    /// Runs every shard until virtual time `deadline`, injecting
    /// cross-shard packets at lookahead barriers. The merged event
    /// order is identical at every thread count.
    pub fn run_until(&mut self, deadline: SimTime) {
        if deadline < self.now() {
            return;
        }
        if self.shards.len() == 1 {
            // One shard has no cross traffic: the barrier protocol
            // degenerates to a plain run (identical event order, since
            // the protocol only splits the same run at window edges).
            self.shards[0].run_until(deadline);
            return;
        }
        let lookahead = self.lookahead();
        let shard_count = self.shards.len();
        let threads = self.threads;

        // Distribute shards over thread groups round-robin; group 0
        // stays on the caller's thread with the coordinator.
        let mut sims: Vec<Option<Shard>> = self.shards.drain(..).map(Some).collect();
        let group_of = |shard: usize| shard % threads;
        let mut local: Vec<(usize, Shard)> = Vec::new();
        for i in (0..shard_count).filter(|&i| group_of(i) == 0) {
            local.push((i, sims[i].take().expect("shard taken twice")));
        }

        let stats = &mut self.stats;
        let mut returned: Vec<Vec<(usize, Shard)>> = Vec::new();
        std::thread::scope(|scope| {
            let mut order_txs: Vec<Sender<Order>> = Vec::new();
            let mut report_rxs: Vec<Receiver<GroupReport>> = Vec::new();
            let mut handles = Vec::new();
            for g in 1..threads {
                let mut group: Vec<(usize, Shard)> = Vec::new();
                for i in (0..shard_count).filter(|&i| group_of(i) == g) {
                    group.push((i, sims[i].take().expect("shard taken twice")));
                }
                let (order_tx, order_rx) = std::sync::mpsc::channel::<Order>();
                let (report_tx, report_rx) = std::sync::mpsc::channel::<GroupReport>();
                order_txs.push(order_tx);
                report_rxs.push(report_rx);
                handles.push(scope.spawn(move || {
                    while let Ok(order) = order_rx.recv() {
                        for ((_, sim), mail) in group.iter_mut().zip(order.ingress) {
                            for cp in mail {
                                sim.inject_cross(cp);
                            }
                        }
                        if order.done {
                            break;
                        }
                        let report: GroupReport = group
                            .iter_mut()
                            .map(|(i, sim)| {
                                sim.run_until(order.end);
                                (*i, sim.take_cross_egress(), sim.next_event_time())
                            })
                            .collect();
                        if report_tx.send(report).is_err() {
                            break;
                        }
                    }
                    group
                }));
            }

            // The barrier protocol. Every quantity that determines the
            // window schedule or the injection order is derived from
            // shard-deterministic values and merged in shard order —
            // never from thread timing.
            let mut end = local[0].1.now();
            // Mail gathered at the previous barrier, per shard, in
            // merged (deterministic) order.
            let mut mailboxes: Vec<Vec<CrossPacket>> =
                (0..shard_count).map(|_| Vec::new()).collect();
            loop {
                // Hand every group its mail and the window to run.
                // Workers first, so they overlap with the local group.
                for (g, tx) in order_txs.iter().enumerate() {
                    let ingress = (0..shard_count)
                        .filter(|&i| group_of(i) == g + 1)
                        .map(|i| std::mem::take(&mut mailboxes[i]))
                        .collect();
                    tx.send(Order {
                        end,
                        ingress,
                        done: false,
                    })
                    .expect("worker died");
                }
                let mut egress: Vec<Vec<CrossPacket>> =
                    (0..shard_count).map(|_| Vec::new()).collect();
                let mut next: Option<SimTime> = None;
                let mut fold = |i: usize, out: Vec<CrossPacket>, peek: Option<SimTime>| {
                    egress[i] = out;
                    next = match (next, peek) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                };
                for (i, sim) in local.iter_mut() {
                    for cp in std::mem::take(&mut mailboxes[*i]) {
                        sim.inject_cross(cp);
                    }
                    sim.run_until(end);
                    fold(*i, sim.take_cross_egress(), sim.next_event_time());
                }
                for rx in &report_rxs {
                    let stall = std::time::Instant::now();
                    let report = rx.recv().expect("worker died");
                    stats.barrier_stall_ns += stall.elapsed().as_nanos() as u64;
                    for (i, out, peek) in report {
                        fold(i, out, peek);
                    }
                }
                // Merge: concatenate in shard order, stable-sort by
                // arrival. Ties keep (shard, send) order — the same
                // total order every thread count produces.
                let mut mail: Vec<CrossPacket> = egress.into_iter().flatten().collect();
                mail.sort_by_key(|cp| cp.arrival);
                stats.windows += 1;
                stats.cross_packets += mail.len() as u64;
                for cp in &mail {
                    // Raw (pre-ingress-shaping) arrivals bound the next
                    // window: shaping can only delay, so this is safe
                    // and identical on every path.
                    next = Some(next.map_or(cp.arrival, |n| n.min(cp.arrival)));
                }
                let mut depth = vec![0usize; shard_count];
                for cp in mail {
                    let dst = cp.pkt.dst.shard();
                    depth[dst] += 1;
                    mailboxes[dst].push(cp);
                }
                let max_depth = depth.into_iter().max().unwrap_or(0);
                stats.max_mailbox_depth = stats.max_mailbox_depth.max(max_depth);
                if end == deadline {
                    // Final barrier: deliver the last mail (it lands
                    // strictly past the deadline) and release workers.
                    for (g, tx) in order_txs.iter().enumerate() {
                        let ingress = (0..shard_count)
                            .filter(|&i| group_of(i) == g + 1)
                            .map(|i| std::mem::take(&mut mailboxes[i]))
                            .collect();
                        tx.send(Order {
                            end,
                            ingress,
                            done: true,
                        })
                        .expect("worker died");
                    }
                    for (i, sim) in local.iter_mut() {
                        for cp in std::mem::take(&mut mailboxes[*i]) {
                            sim.inject_cross(cp);
                        }
                    }
                    break;
                }
                // Next window: at most one lookahead ahead, but jump
                // straight to the next known event when everything is
                // idle longer than that.
                end = next
                    .map_or(deadline, |n| n.max(end + lookahead))
                    .min(deadline);
            }
            for handle in handles {
                returned.push(handle.join().expect("worker panicked"));
            }
        });

        // Reassemble the shard vector in index order.
        for (i, sim) in local.into_iter().chain(returned.into_iter().flatten()) {
            sims[i] = Some(sim);
        }
        self.shards = sims
            .into_iter()
            .map(|s| s.expect("shard lost in flight"))
            .collect();
    }

    /// Runs until no events remain anywhere. Returns the number of
    /// events processed.
    ///
    /// # Panics
    ///
    /// Panics after `max_events` as a runaway guard.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let before = self.metrics().events_processed;
        loop {
            let next = self
                .shards
                .iter_mut()
                .filter_map(Shard::next_event_time)
                .min();
            let Some(next) = next else { break };
            self.run_until(next);
            let done = self.metrics().events_processed - before;
            assert!(
                done <= max_events,
                "simulation did not quiesce within {max_events} events"
            );
        }
        self.metrics().events_processed - before
    }

    /// A 64-bit FNV-1a digest of every flight-recorder event, shard by
    /// shard in index order. Two runs of the same scenario and seed
    /// produce the same digest at any thread count — `scripts/ci.sh`
    /// gates on exactly this.
    pub fn flight_digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for s in &self.shards {
            for e in s.telemetry().tracer.events() {
                eat(&e.time_ns.to_le_bytes());
                eat(&e.node.to_le_bytes());
                eat(e.kind.as_bytes());
                eat(&e.trace_id.to_le_bytes());
                eat(&e.span.to_le_bytes());
                eat(&e.parent_span.to_le_bytes());
                eat(e.detail.as_bytes());
                eat(&[0xFF]);
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Packet, Port, TimerTag};
    use crate::{Context, Node};

    /// Sends `count` packets to `peer`, one per `period`.
    struct Chatter {
        peer: NodeId,
        period: SimDuration,
        count: u32,
        sent: u32,
    }
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.period, TimerTag(1));
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: TimerTag) {
            if self.sent < self.count {
                self.sent += 1;
                ctx.send(self.peer, Port::new(9), vec![self.sent as u8]);
                ctx.set_timer(self.period, TimerTag(1));
            }
        }
    }

    /// Records `(time, payload)` of everything it receives and echoes.
    #[derive(Default)]
    struct Recorder {
        got: Vec<(SimTime, Vec<u8>)>,
    }
    impl Node for Recorder {
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
            self.got.push((ctx.now(), pkt.payload.clone()));
            ctx.send(pkt.src, pkt.port, pkt.payload);
        }
    }

    fn build(shards: usize, threads: usize) -> (Simulator, Vec<NodeId>) {
        let mut sim = Simulator::new(ParallelConfig {
            shards,
            threads,
            ..ParallelConfig::default()
        });
        let mut recorders = Vec::new();
        for s in 0..shards {
            let rx = sim.add_node_on(s, format!("rx-{s}"), Recorder::default());
            recorders.push(rx);
        }
        // Every shard chats with the recorder of the next shard (ring),
        // so all traffic crosses shard boundaries.
        for s in 0..shards {
            let peer = recorders[(s + 1) % shards];
            sim.add_node_on(
                s,
                format!("tx-{s}"),
                Chatter {
                    peer,
                    period: SimDuration::from_millis(17),
                    count: 40,
                    sent: 0,
                },
            );
        }
        (sim, recorders)
    }

    type Streams = Vec<Vec<(SimTime, Vec<u8>)>>;

    fn run_and_collect(shards: usize, threads: usize) -> (Streams, u64, NetMetrics) {
        let (mut sim, recorders) = build(shards, threads);
        sim.run_for(SimDuration::from_secs(2));
        let streams = recorders
            .iter()
            .map(|&r| sim.node_ref::<Recorder>(r).unwrap().got.clone())
            .collect();
        (streams, sim.flight_digest(), sim.metrics())
    }

    #[test]
    fn cross_shard_traffic_is_delivered() {
        let (streams, _, metrics) = run_and_collect(4, 1);
        for s in &streams {
            assert_eq!(s.len(), 40, "all 40 packets arrive cross-shard");
        }
        assert!(metrics.packets_delivered >= 4 * 40 * 2, "echoes count too");
    }

    #[test]
    fn thread_count_does_not_change_anything() {
        let base = run_and_collect(4, 1);
        for threads in [2, 3, 4] {
            let other = run_and_collect(4, threads);
            assert_eq!(base.0, other.0, "streams differ at {threads} threads");
            assert_eq!(base.1, other.1, "digest differs at {threads} threads");
            assert_eq!(base.2, other.2, "metrics differ at {threads} threads");
        }
    }

    #[test]
    fn single_shard_matches_stand_alone_simulator() {
        // The two seed rules meet: a `ParallelConfig` with one shard is
        // bit-identical to a `SimConfig` carrying that shard's derived
        // seed.
        let seed = DeterministicRng::seed_from(0xD1_44_E2).derive(0).next_u64();
        let mut plain = Simulator::new(SimConfig {
            seed,
            default_link: LinkModel::lan(),
        });
        let rx = plain.add_node("rx-0", Recorder::default());
        plain.add_node(
            "tx-0",
            Chatter {
                peer: rx,
                period: SimDuration::from_millis(17),
                count: 40,
                sent: 0,
            },
        );
        plain.run_for(SimDuration::from_secs(2));
        let plain_got = plain.node_ref::<Recorder>(rx).unwrap().got.clone();

        let (streams, _, _) = run_and_collect(1, 1);
        assert_eq!(plain_got, streams[0]);
    }

    #[test]
    fn lookahead_follows_min_cross_link() {
        let (mut sim, recorders) = build(2, 1);
        assert_eq!(sim.lookahead(), SimDuration::from_millis(5), "backbone");
        sim.set_link_directed(
            recorders[0],
            recorders[1],
            LinkModel::builder()
                .latency(SimDuration::from_millis(2))
                .jitter(SimDuration::from_micros(500))
                .build(),
        );
        assert_eq!(sim.lookahead(), SimDuration::from_micros(1500));
        // A total-loss link never delivers and must not constrain.
        sim.set_link_directed(
            recorders[1],
            recorders[0],
            LinkModel::builder().loss(1.0).build(),
        );
        assert_eq!(sim.lookahead(), SimDuration::from_micros(1500));
    }

    #[test]
    #[should_panic(expected = "lookahead is zero")]
    fn zero_lookahead_panics() {
        let mut sim = Simulator::new(ParallelConfig {
            shards: 2,
            cross_link: LinkModel::ideal(),
            ..ParallelConfig::default()
        });
        let a = sim.add_node_on(0, "a", Recorder::default());
        let b = sim.add_node_on(1, "b", Recorder::default());
        let _ = (a, b);
        sim.run_for(SimDuration::from_secs(1));
    }

    #[test]
    fn crash_and_partition_fan_out() {
        let (mut sim, recorders) = build(2, 2);
        sim.crash(recorders[0]);
        assert!(!sim.is_up(recorders[0]));
        sim.partition(vec![vec![recorders[0]], vec![recorders[1]]]);
        sim.restart(recorders[0], SimDuration::ZERO);
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.is_up(recorders[0]));
        sim.heal();
        sim.heal();
        assert_eq!(sim.metrics().crashes, 1);
        // Every shard drops for the partition; it is recorded once, in
        // shard 0, and the second heal found nothing to lift.
        let kinds = |shard: usize| -> Vec<String> {
            let events = sim.shard_telemetry(shard).tracer.events();
            events.into_iter().map(|e| e.kind).collect()
        };
        assert_eq!(
            kinds(0),
            [
                "chaos.crash",
                "chaos.partition",
                "chaos.restart",
                "chaos.heal"
            ]
        );
        assert!(kinds(1).is_empty(), "{:?}", kinds(1));
    }

    #[test]
    fn find_node_by_name() {
        let (sim, recorders) = build(2, 1);
        assert_eq!(sim.find_node("rx-1"), Some(recorders[1]));
        assert_eq!(sim.node_name(recorders[1]), "rx-1");
        assert!(sim.find_node("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut sim = Simulator::new(SimConfig::default());
        sim.add_node("x", Recorder::default());
        sim.add_node("x", Recorder::default());
    }

    #[test]
    fn run_until_idle_drains_cross_traffic() {
        let (mut sim, recorders) = build(3, 3);
        let n = sim.run_until_idle(1_000_000);
        assert!(n > 0);
        assert_eq!(sim.pending_events(), 0);
        for &r in &recorders {
            assert_eq!(sim.node_ref::<Recorder>(r).unwrap().got.len(), 40);
        }
    }

    #[test]
    fn stats_count_windows_and_mail() {
        let (mut sim, _) = build(2, 1);
        sim.run_for(SimDuration::from_secs(1));
        let stats = sim.stats();
        assert!(stats.windows > 0);
        assert!(stats.cross_packets > 0);
        assert!(stats.max_mailbox_depth > 0);
    }
}
