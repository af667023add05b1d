//! Declarative fault injection: [`FaultPlan`] schedules of crashes,
//! restarts, partitions, latency spikes and link flaps, applied to a
//! running [`Simulator`] by a [`ChaosRunner`].
//!
//! The simulator provides the primitives ([`Simulator::crash`],
//! [`Simulator::restart`], `Simulator::partition`, `Simulator::heal`,
//! `Simulator::set_link_directed`, `Simulator::set_node_slowdown`),
//! each routed to the owning shard or fanned out to all of them, so one
//! plan replays identically at any shard and thread count; this module
//! layers a schedule on top. Plans
//! are either written out explicitly (the `e10_chaos` experiment) or
//! generated from configurable rates under a seed
//! ([`FaultPlan::random`]), so a chaos run replays identically.
//!
//! Every injected fault is counted under a `chaos.*` metric and recorded
//! into a telemetry trace stream — a crash or restart into the owning
//! shard's, everything else into shard 0's
//! ([`Simulator::telemetry`]) — which makes a run fully reconstructable
//! from its `DIMMER_TRACE` output.
//!
//! ```
//! use simnet::chaos::{ChaosRunner, Fault, FaultPlan};
//! use simnet::{SimConfig, SimDuration, SimTime, Simulator};
//! # use simnet::{Context, Node, Packet};
//! # struct Quiet;
//! # impl Node for Quiet { fn on_packet(&mut self, _: &mut Context<'_>, _: Packet) {} }
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! let broker = sim.add_node("broker", Quiet);
//! let plan = FaultPlan::new()
//!     .at(
//!         SimTime::from_secs(60),
//!         Fault::CrashFor { node: broker, down: SimDuration::from_secs(30) },
//!     )
//!     .at(SimTime::from_secs(180), Fault::Heal);
//! let mut chaos = ChaosRunner::new(plan);
//! chaos.run_until(&mut sim, SimTime::from_secs(300));
//! assert_eq!(chaos.faults_injected(), 2);
//! ```

use crate::link::LinkModel;
use crate::node::NodeId;
use crate::parallel::Simulator;
use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};

/// One injectable fault.
#[derive(Debug, Clone)]
pub enum Fault {
    /// Crash a node; it stays down until an explicit [`Fault::Restart`].
    Crash {
        /// The victim.
        node: NodeId,
    },
    /// Bring a crashed node back up (runs its `on_restart` hook).
    Restart {
        /// The node to revive.
        node: NodeId,
    },
    /// Crash a node and bring it back up `down` later.
    CrashFor {
        /// The victim.
        node: NodeId,
        /// How long it stays down.
        down: SimDuration,
    },
    /// Partition the network into groups (see `Simulator::partition`).
    Partition {
        /// The groups; cross-group packets are dropped.
        groups: Vec<Vec<NodeId>>,
    },
    /// Lift the active partition.
    Heal,
    /// Replace the `a`↔`b` link with a total-loss link for `down`, then
    /// restore the previous models.
    LinkFlap {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Outage duration.
        down: SimDuration,
    },
    /// Add `extra` latency to the `a`↔`b` link for `duration`, then
    /// restore the previous models.
    LatencySpike {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Added one-way latency.
        extra: SimDuration,
        /// Spike duration.
        duration: SimDuration,
    },
    /// Gray-fail a node: multiply every delay on paths it terminates by
    /// `factor` for `duration`, then restore normal service. The node
    /// never stops answering — it just answers late, which is the
    /// failure mode liveness probes miss (see
    /// `Simulator::set_node_slowdown`).
    SlowNode {
        /// The victim.
        node: NodeId,
        /// Service-delay multiplier (e.g. `50.0` = fifty times slower).
        factor: f64,
        /// How long the node stays slow.
        duration: SimDuration,
    },
    /// Raise the `a`↔`b` loss probability to `loss` for `duration`,
    /// then restore the previous models (latency and bandwidth are
    /// preserved, so the link degrades rather than disappearing).
    LossyLink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Packet-loss probability while degraded, in `[0, 1]`.
        loss: f64,
        /// Degradation duration.
        duration: SimDuration,
    },
    /// A flapping link: `cycles` consecutive `down`-long outages of the
    /// `a`↔`b` link separated by `up`-long healthy gaps. Expanded at
    /// plan time into `cycles` [`Fault::LinkFlap`]s (each counted as an
    /// injected fault).
    Flapping {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Outage length of each cycle.
        down: SimDuration,
        /// Healthy gap between outages.
        up: SimDuration,
        /// Number of down/up cycles.
        cycles: u32,
    },
}

/// A fault and the instant it is injected.
#[derive(Debug, Clone)]
pub(crate) struct FaultEvent {
    /// Injection time.
    pub(crate) at: SimTime,
    /// The fault.
    pub(crate) fault: Fault,
}

/// Configuration for seeded random fault injection
/// ([`FaultPlan::random`]). Rates are per hour of virtual time.
#[derive(Debug, Clone, Default)]
pub struct RandomFaults {
    /// Nodes eligible for crash/restart cycles.
    pub crash_targets: Vec<NodeId>,
    /// Expected crashes per target per hour.
    pub crashes_per_hour: f64,
    /// Mean downtime of a crash (actual downtime is jittered ±50%).
    pub mean_downtime: SimDuration,
    /// Node pairs eligible for link flaps.
    pub flap_pairs: Vec<(NodeId, NodeId)>,
    /// Expected flaps per pair per hour.
    pub flaps_per_hour: f64,
    /// Mean flap outage (actual outage is jittered ±50%).
    pub mean_flap: SimDuration,
    /// Nodes eligible for gray-failure slowdowns ([`Fault::SlowNode`]).
    pub slow_targets: Vec<NodeId>,
    /// Expected slowdowns per target per hour.
    pub slows_per_hour: f64,
    /// Mean slowdown episode length (jittered ±50%).
    pub mean_slow: SimDuration,
    /// Service-delay multiplier of an injected slowdown.
    pub slow_factor: f64,
}

/// A time-ordered schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at `at` (builder style). Events may be added in any
    /// order; the runner sorts them.
    pub fn at(mut self, at: SimTime, fault: Fault) -> Self {
        self.events.push(FaultEvent { at, fault });
        self
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Generates a plan over `[0, horizon)` from per-hour rates,
    /// deterministically under `seed`. Crash counts follow the expected
    /// value (fractional parts resolved by a biased coin), times are
    /// uniform, durations jittered ±50% around their means.
    pub fn random(seed: u64, horizon: SimDuration, cfg: &RandomFaults) -> Self {
        let mut rng = DeterministicRng::seed_from(seed);
        let hours = horizon.as_secs_f64() / 3600.0;
        let mut plan = FaultPlan::new();
        let draw_count = |rng: &mut DeterministicRng, rate: f64| -> u32 {
            let expected = rate * hours;
            let mut n = expected.floor() as u32;
            if rng.chance(expected.fract()) {
                n += 1;
            }
            n
        };
        for &node in &cfg.crash_targets {
            for _ in 0..draw_count(&mut rng, cfg.crashes_per_hour) {
                let at = SimTime::from_nanos(rng.next_bounded(horizon.as_nanos().max(1)));
                let down = SimDuration::from_secs_f64(
                    cfg.mean_downtime.as_secs_f64() * rng.next_f64_range(0.5, 1.5),
                );
                plan = plan.at(at, Fault::CrashFor { node, down });
            }
        }
        for &(a, b) in &cfg.flap_pairs {
            for _ in 0..draw_count(&mut rng, cfg.flaps_per_hour) {
                let at = SimTime::from_nanos(rng.next_bounded(horizon.as_nanos().max(1)));
                let down = SimDuration::from_secs_f64(
                    cfg.mean_flap.as_secs_f64() * rng.next_f64_range(0.5, 1.5),
                );
                plan = plan.at(at, Fault::LinkFlap { a, b, down });
            }
        }
        for &node in &cfg.slow_targets {
            for _ in 0..draw_count(&mut rng, cfg.slows_per_hour) {
                let at = SimTime::from_nanos(rng.next_bounded(horizon.as_nanos().max(1)));
                let duration = SimDuration::from_secs_f64(
                    cfg.mean_slow.as_secs_f64() * rng.next_f64_range(0.5, 1.5),
                );
                plan = plan.at(
                    at,
                    Fault::SlowNode {
                        node,
                        factor: cfg.slow_factor.max(1.0),
                        duration,
                    },
                );
            }
        }
        plan
    }
}

/// A link restore scheduled by a flap or spike.
#[derive(Debug)]
struct LinkRestore {
    at: SimTime,
    a: NodeId,
    b: NodeId,
    forward: LinkModel,
    backward: LinkModel,
}

/// A slowdown restore scheduled by a [`Fault::SlowNode`].
#[derive(Debug)]
struct SlowRestore {
    at: SimTime,
    node: NodeId,
    /// The factor in effect before the fault (normally 1.0).
    factor: f64,
}

/// Applies a [`FaultPlan`] to a [`Simulator`], interleaving fault
/// injection with event processing.
///
/// The runner drives the simulator from outside (nodes cannot reach the
/// simulator), so use [`ChaosRunner::run_until`] / [`ChaosRunner::run_for`]
/// instead of the simulator's own run methods for the chaotic phase.
#[derive(Debug)]
pub struct ChaosRunner {
    events: Vec<FaultEvent>,
    next: usize,
    restores: Vec<LinkRestore>,
    slow_restores: Vec<SlowRestore>,
    injected: u64,
}

impl ChaosRunner {
    /// Creates a runner over `plan` (sorted by injection time; ties keep
    /// insertion order). [`Fault::Flapping`] events are expanded here
    /// into their individual [`Fault::LinkFlap`] cycles.
    pub fn new(plan: FaultPlan) -> Self {
        let mut events = Vec::with_capacity(plan.events.len());
        for e in plan.events {
            match e.fault {
                Fault::Flapping {
                    a,
                    b,
                    down,
                    up,
                    cycles,
                } => {
                    let period = down + up;
                    for i in 0..cycles {
                        events.push(FaultEvent {
                            at: e.at + period * u64::from(i),
                            fault: Fault::LinkFlap { a, b, down },
                        });
                    }
                }
                fault => events.push(FaultEvent { at: e.at, fault }),
            }
        }
        events.sort_by_key(|e| e.at);
        ChaosRunner {
            events,
            next: 0,
            restores: Vec::new(),
            slow_restores: Vec::new(),
            injected: 0,
        }
    }

    /// Number of faults injected so far (restores not counted).
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// Runs the simulation until `deadline`, injecting every fault (and
    /// link restore) whose time falls inside the window.
    pub fn run_until(&mut self, sim: &mut Simulator, deadline: SimTime) {
        loop {
            let next_fault = self.events.get(self.next).map(|e| e.at);
            let next_restore = self
                .restores
                .iter()
                .map(|r| r.at)
                .chain(self.slow_restores.iter().map(|r| r.at))
                .min();
            let next_action = match (next_fault, next_restore) {
                (Some(f), Some(r)) => Some(f.min(r)),
                (f, r) => f.or(r),
            };
            match next_action {
                Some(at) if at <= deadline => {
                    sim.run_until(at.max(sim.now()));
                    self.apply_due(sim);
                }
                _ => {
                    sim.run_until(deadline);
                    return;
                }
            }
        }
    }

    /// Runs for `dur` of virtual time from the current instant.
    pub fn run_for(&mut self, sim: &mut Simulator, dur: SimDuration) {
        let deadline = sim.now() + dur;
        self.run_until(sim, deadline);
    }

    /// Applies every fault and restore due at or before the current time.
    fn apply_due(&mut self, sim: &mut Simulator) {
        let now = sim.now();
        let mut i = 0;
        while i < self.restores.len() {
            if self.restores[i].at <= now {
                let r = self.restores.swap_remove(i);
                sim.set_link_directed(r.a, r.b, r.forward);
                sim.set_link_directed(r.b, r.a, r.backward);
                sim.record_fault("chaos.link_restore", format_args!("a={} b={}", r.a, r.b));
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.slow_restores.len() {
            if self.slow_restores[i].at <= now {
                let r = self.slow_restores.swap_remove(i);
                sim.set_node_slowdown(r.node, r.factor);
                sim.record_fault("chaos.slow_restore", format_args!("node={}", r.node));
            } else {
                i += 1;
            }
        }
        while self.next < self.events.len() && self.events[self.next].at <= now {
            let fault = self.events[self.next].fault.clone();
            self.next += 1;
            self.injected += 1;
            self.apply(sim, fault);
        }
    }

    fn apply(&mut self, sim: &mut Simulator, fault: Fault) {
        match fault {
            Fault::Crash { node } => sim.crash(node),
            Fault::Restart { node } => sim.restart(node, SimDuration::ZERO),
            Fault::CrashFor { node, down } => {
                sim.crash(node);
                sim.restart(node, down);
            }
            Fault::Partition { groups } => sim.partition(groups),
            Fault::Heal => sim.heal(),
            Fault::LinkFlap { a, b, down } => {
                self.save_link(sim, a, b, down);
                let dead = LinkModel::builder().loss(1.0).build();
                sim.set_link_directed(a, b, dead.clone());
                sim.set_link_directed(b, a, dead);
                sim.record_fault(
                    "chaos.link_flap",
                    format_args!("a={a} b={b} down={:.1}s", down.as_secs_f64()),
                );
            }
            Fault::LatencySpike {
                a,
                b,
                extra,
                duration,
            } => {
                self.save_link(sim, a, b, duration);
                let spike = |m: &LinkModel| {
                    LinkModel::builder()
                        .latency(m.latency() + extra)
                        .bandwidth_bps(m.bandwidth_bps())
                        .jitter(m.jitter())
                        .loss(m.loss_probability())
                        .build()
                };
                let (fw, bw) = (spike(&sim.link_model(a, b)), spike(&sim.link_model(b, a)));
                sim.set_link_directed(a, b, fw);
                sim.set_link_directed(b, a, bw);
                sim.record_fault(
                    "chaos.latency_spike",
                    format_args!("a={a} b={b} extra={:.0}ms", extra.as_millis_f64()),
                );
            }
            Fault::SlowNode {
                node,
                factor,
                duration,
            } => {
                self.slow_restores.push(SlowRestore {
                    at: sim.now() + duration,
                    node,
                    factor: sim.node_slowdown(node),
                });
                sim.set_node_slowdown(node, factor);
                sim.record_fault(
                    "chaos.slow_node",
                    format_args!(
                        "node={node} factor={factor:.1} for={:.1}s",
                        duration.as_secs_f64()
                    ),
                );
            }
            Fault::LossyLink {
                a,
                b,
                loss,
                duration,
            } => {
                self.save_link(sim, a, b, duration);
                let degrade = |m: &LinkModel| {
                    LinkModel::builder()
                        .latency(m.latency())
                        .bandwidth_bps(m.bandwidth_bps())
                        .jitter(m.jitter())
                        .loss(loss)
                        .build()
                };
                let (fw, bw) = (
                    degrade(&sim.link_model(a, b)),
                    degrade(&sim.link_model(b, a)),
                );
                sim.set_link_directed(a, b, fw);
                sim.set_link_directed(b, a, bw);
                sim.record_fault(
                    "chaos.lossy_link",
                    format_args!(
                        "a={a} b={b} loss={loss:.2} for={:.1}s",
                        duration.as_secs_f64()
                    ),
                );
            }
            Fault::Flapping { .. } => {
                unreachable!("Flapping is expanded into LinkFlaps at plan time")
            }
        }
    }

    fn save_link(&mut self, sim: &Simulator, a: NodeId, b: NodeId, duration: SimDuration) {
        self.restores.push(LinkRestore {
            at: sim.now() + duration,
            a,
            b,
            forward: sim.link_model(a, b),
            backward: sim.link_model(b, a),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Node, Packet, Port, SimConfig};

    #[derive(Default)]
    struct Rx {
        got: Vec<SimTime>,
    }
    impl Node for Rx {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _pkt: Packet) {
            self.got.push(ctx.now());
        }
    }

    /// Sends one packet to `dst` every second.
    struct Ticker {
        dst: NodeId,
    }
    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), crate::TimerTag(1));
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: crate::TimerTag) {
            ctx.send(self.dst, Port::new(1), vec![1]);
            ctx.set_timer(SimDuration::from_secs(1), crate::TimerTag(1));
        }
    }

    fn ideal_sim() -> Simulator {
        Simulator::new(SimConfig {
            seed: 1,
            default_link: LinkModel::ideal(),
        })
    }

    #[test]
    fn plan_applies_in_time_order() {
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Rx::default());
        let _tx = sim.add_node("tx", Ticker { dst: rx });
        // Out-of-order insertion; the runner sorts.
        let plan = FaultPlan::new()
            .at(
                SimTime::from_secs(10),
                Fault::Partition {
                    groups: vec![vec![rx], vec![_tx]],
                },
            )
            .at(
                SimTime::from_secs(3),
                Fault::CrashFor {
                    node: rx,
                    down: SimDuration::from_secs(2),
                },
            )
            .at(SimTime::from_secs(15), Fault::Heal);
        let mut chaos = ChaosRunner::new(plan);
        chaos.run_until(&mut sim, SimTime::from_secs(20));
        assert_eq!(chaos.faults_injected(), 3);
        assert_eq!(chaos.next, chaos.events.len());
        let got = &sim.node_ref::<Rx>(rx).unwrap().got;
        // Down 3→5 drops the tick sent at 4 (the restart event at t=5 is
        // older than that second's tick, so the node is back up in time);
        // partitioned 10→15 drops the five ticks sent at 11..=15.
        assert_eq!(got.len(), 20 - 1 - 5, "{got:?}");
        assert_eq!(sim.metrics().packets_dropped_crashed, 1);
        assert_eq!(sim.metrics().packets_dropped_partitioned, 5);
    }

    #[test]
    fn link_flap_restores_previous_model() {
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Rx::default());
        let tx = sim.add_node("tx", Ticker { dst: rx });
        let custom = LinkModel::builder()
            .latency(SimDuration::from_millis(7))
            .bandwidth_bps(1_000_000)
            .build();
        sim.set_link(tx, rx, custom.clone());
        let plan = FaultPlan::new().at(
            SimTime::from_secs(2),
            Fault::LinkFlap {
                a: tx,
                b: rx,
                down: SimDuration::from_secs(3),
            },
        );
        let mut chaos = ChaosRunner::new(plan);
        chaos.run_until(&mut sim, SimTime::from_secs(10));
        assert_eq!(sim.link_model(tx, rx).latency(), custom.latency());
        assert!((sim.link_model(tx, rx).loss_probability() - 0.0).abs() < f64::EPSILON);
        let got = &sim.node_ref::<Rx>(rx).unwrap().got;
        // Flapped 2→5: ticks sent at 3, 4 and 5 are lost on the wire (the
        // restore lands just after the t=5 send). The t=10 tick is still
        // in flight at the deadline.
        assert_eq!(got.len(), 10 - 3 - 1, "{got:?}");
        assert!(sim.metrics().packets_lost >= 3);
    }

    #[test]
    fn latency_spike_slows_then_recovers() {
        let mut sim = Simulator::new(SimConfig {
            seed: 2,
            default_link: LinkModel::builder()
                .latency(SimDuration::from_millis(1))
                .bandwidth_bps(u64::MAX - 1)
                .build(),
        });
        let rx = sim.add_node("rx", Rx::default());
        let tx = sim.add_node("tx", Ticker { dst: rx });
        let plan = FaultPlan::new().at(
            SimTime::from_secs(2),
            Fault::LatencySpike {
                a: tx,
                b: rx,
                extra: SimDuration::from_millis(400),
                duration: SimDuration::from_secs(2),
            },
        );
        let mut chaos = ChaosRunner::new(plan);
        chaos.run_until(&mut sim, SimTime::from_secs(6));
        let got = &sim.node_ref::<Rx>(rx).unwrap().got;
        let slow = got
            .iter()
            .filter(|t| {
                let off_ms = t.as_nanos() % 1_000_000_000 / 1_000_000;
                off_ms > 100
            })
            .count();
        assert_eq!(slow, 2, "ticks sent at 3s and 4s ride the spike: {got:?}");
        assert_eq!(
            sim.link_model(tx, rx).latency(),
            SimDuration::from_millis(1),
            "restored"
        );
    }

    #[test]
    fn slow_node_stretches_then_recovers() {
        let mut sim = Simulator::new(SimConfig {
            seed: 3,
            default_link: LinkModel::builder()
                .latency(SimDuration::from_millis(10))
                .bandwidth_bps(u64::MAX - 1)
                .build(),
        });
        let rx = sim.add_node("rx", Rx::default());
        let _tx = sim.add_node("tx", Ticker { dst: rx });
        let plan = FaultPlan::new().at(
            SimTime::from_secs(2),
            Fault::SlowNode {
                node: rx,
                factor: 50.0,
                duration: SimDuration::from_secs(2),
            },
        );
        let mut chaos = ChaosRunner::new(plan);
        chaos.run_until(&mut sim, SimTime::from_secs(6));
        assert_eq!(sim.node_slowdown(rx), 1.0, "restored after the episode");
        let got = &sim.node_ref::<Rx>(rx).unwrap().got;
        // Ticks sent at 3s and 4s ride the 50× slowdown (500 ms instead
        // of 10 ms); everything else arrives promptly — the node never
        // stopped answering.
        let slow = got
            .iter()
            .filter(|t| t.as_nanos() % 1_000_000_000 / 1_000_000 > 100)
            .count();
        assert_eq!(slow, 2, "{got:?}");
        assert_eq!(got.len(), 5, "no tick is lost under gray failure");
    }

    #[test]
    fn lossy_link_degrades_then_restores() {
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Rx::default());
        let tx = sim.add_node("tx", Ticker { dst: rx });
        let plan = FaultPlan::new().at(
            SimTime::from_secs(1),
            Fault::LossyLink {
                a: tx,
                b: rx,
                loss: 1.0,
                duration: SimDuration::from_secs(4),
            },
        );
        let mut chaos = ChaosRunner::new(plan);
        chaos.run_until(&mut sim, SimTime::from_secs(10));
        // Total loss 1→5 drops the ticks sent at 2, 3, 4 and 5 (the
        // restore lands just after the t=5 send); the ideal link
        // delivers the rest instantly.
        assert_eq!(sim.link_model(tx, rx).loss_probability(), 0.0, "restored");
        let got = &sim.node_ref::<Rx>(rx).unwrap().got;
        assert_eq!(got.len(), 10 - 4, "{got:?}");
        assert_eq!(sim.metrics().packets_lost, 4);
    }

    #[test]
    fn flapping_expands_into_link_flap_cycles() {
        let mut sim = ideal_sim();
        let rx = sim.add_node("rx", Rx::default());
        let tx = sim.add_node("tx", Ticker { dst: rx });
        let plan = FaultPlan::new().at(
            SimTime::from_secs(1),
            Fault::Flapping {
                a: tx,
                b: rx,
                down: SimDuration::from_secs(1),
                up: SimDuration::from_secs(2),
                cycles: 3,
            },
        );
        let mut chaos = ChaosRunner::new(plan);
        assert_eq!(chaos.events.len(), 3, "one LinkFlap per cycle");
        chaos.run_until(&mut sim, SimTime::from_secs(12));
        assert_eq!(chaos.faults_injected(), 3);
        // Down windows [1,2], [4,5], [7,8] each eat one tick (sent at
        // 2s, 5s and 8s); between the windows the link is healthy and
        // the ideal link delivers instantly.
        let got = &sim.node_ref::<Rx>(rx).unwrap().got;
        assert_eq!(got.len(), 12 - 3, "{got:?}");
        assert_eq!(sim.link_model(tx, rx).loss_probability(), 0.0, "restored");
    }

    #[test]
    fn random_plans_are_deterministic_and_rate_shaped() {
        let nodes: Vec<NodeId> = (0..10).map(NodeId::from_index).collect();
        let cfg = RandomFaults {
            crash_targets: nodes.clone(),
            crashes_per_hour: 2.0,
            mean_downtime: SimDuration::from_secs(30),
            flap_pairs: vec![(nodes[0], nodes[1])],
            flaps_per_hour: 1.0,
            mean_flap: SimDuration::from_secs(10),
            ..RandomFaults::default()
        };
        let horizon = SimDuration::from_hours(1);
        let a = FaultPlan::random(42, horizon, &cfg);
        let b = FaultPlan::random(42, horizon, &cfg);
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.at, y.at);
            assert_eq!(format!("{:?}", x.fault), format!("{:?}", y.fault));
        }
        // ~2 crashes/node/hour over 10 nodes + ~1 flap: expect 15..30.
        assert!((15..=30).contains(&a.events.len()), "{}", a.events.len());
        let c = FaultPlan::random(43, horizon, &cfg);
        assert!(
            a.events.iter().map(|e| e.at).collect::<Vec<_>>()
                != c.events.iter().map(|e| e.at).collect::<Vec<_>>(),
            "different seeds should differ"
        );
    }
}
