//! Chaos tests: crash/restart lifecycle faults against the full
//! district deployment — broker outages, master amnesia, and seeded
//! random fault plans.

use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::ScenarioConfig;
use dimmer::master::MasterNode;
use dimmer::proxy::device_proxy::{DeviceProxyNode, STORE_FORWARD_CAPACITY};
use dimmer::pubsub::{BrokerNode, PubSubClient, PubSubEvent, QoS, TopicFilter, PUBSUB_PORT};
use dimmer::simnet::chaos::{ChaosRunner, FaultPlan, RandomFaults};
use dimmer::simnet::telemetry::flight::reconstruct;
use dimmer::simnet::telemetry::NO_SPAN;
use dimmer::simnet::{Context, Node, Packet, SimConfig, SimDuration, SimTime, Simulator, TimerTag};

/// A subscriber that rides out broker restarts via keepalive probes.
struct Monitor {
    client: PubSubClient,
    received: u64,
    restarts_seen: u64,
}

impl Monitor {
    fn new(broker: dimmer::simnet::NodeId) -> Self {
        Monitor {
            client: PubSubClient::new(broker, 100),
            received: 0,
            restarts_seen: 0,
        }
    }
}

impl Node for Monitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            TopicFilter::new("district/#").expect("valid"),
            QoS::AtLeastOnce,
        );
        self.client.start_keepalive(ctx, SimDuration::from_secs(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != PUBSUB_PORT {
            return;
        }
        match self.client.accept(ctx, &pkt) {
            Some(PubSubEvent::Message { .. }) => self.received += 1,
            Some(PubSubEvent::BrokerRestarted { .. }) => self.restarts_seen += 1,
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

fn qos1_scenario() -> dimmer::district::scenario::Scenario {
    let mut config = ScenarioConfig::small();
    config.publish_qos = QoS::AtLeastOnce;
    config.build()
}

/// A simulator seeded from `DIMMER_SEED` (default 0), so the CI seed
/// sweep exercises these scenarios under shifted network timing.
fn seeded_sim(base: u64) -> Simulator {
    let offset = std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    Simulator::new(SimConfig {
        seed: base + offset,
        ..SimConfig::default()
    })
}

#[test]
fn broker_outage_buffers_then_replays_without_loss() {
    let scenario = qos1_scenario();
    let mut sim = seeded_sim(0xC4A0);
    sim.telemetry().tracer.set_capacity(1 << 17);
    let deployment = Deployment::build(&mut sim, &scenario);
    let monitor = sim.add_node("monitor", Monitor::new(deployment.broker));

    sim.run_for(SimDuration::from_secs(120));
    sim.crash(deployment.broker);
    sim.restart(deployment.broker, SimDuration::from_secs(30));
    sim.run_for(SimDuration::from_secs(280));

    // The proxies noticed the outage, parked samples, and replayed them.
    let (mut buffered, mut replayed, mut shed, mut backlog) = (0u64, 0u64, 0u64, 0usize);
    for p in deployment.device_proxies() {
        let proxy = sim.node_ref::<DeviceProxyNode>(p).unwrap();
        buffered += proxy.stats().buffered;
        replayed += proxy.stats().replayed;
        shed += proxy.stats().shed_capacity;
        backlog += proxy.backlog_len();
        // Store-and-forward conservation per proxy: everything that
        // entered the buffer either replayed, was shed at capacity, or
        // is still parked — decode drops are counted separately.
        assert_eq!(
            proxy.stats().buffered,
            proxy.stats().replayed + proxy.stats().shed_capacity + proxy.backlog_len() as u64,
            "{}",
            sim.node_name(p)
        );
        assert_eq!(proxy.stats().shed_decode, 0, "{}", sim.node_name(p));
    }
    assert!(buffered > 0, "no proxy buffered during the outage");
    assert!(
        replayed >= buffered,
        "{replayed} replays of {buffered} buffered"
    );
    assert_eq!(shed, 0, "the 30 s outage fits in the buffers");
    assert_eq!(backlog, 0, "backlogs fully drained");

    // The monitor resumed its session and kept receiving.
    let m = sim.node_ref::<Monitor>(monitor).unwrap();
    assert_eq!(m.restarts_seen, 1);
    assert!(m.received > 0);

    // Flight-recorder reconstruction: every buffered sample still made
    // it end to end.
    let paths = reconstruct(&sim.telemetry().tracer.events());
    let parked: Vec<_> = paths
        .iter()
        .filter(|p| p.visits(&["proxy.buffer"]))
        .collect();
    assert!(!parked.is_empty(), "traced samples were parked");
    for path in parked {
        assert!(
            path.visits(&["sub.receive"]),
            "buffered trace {} was lost:\n{path}",
            path.trace_id
        );
    }

    // QoS 1 conservation at the broker.
    let broker = sim.node_ref::<BrokerNode>(deployment.broker).unwrap();
    let stats = broker.stats();
    assert_eq!(
        stats.qos1_enqueued,
        stats.acked + stats.dropped + broker.pending_deliveries() as u64,
        "conservation violated: {stats:?}"
    );
    assert_eq!(broker.incarnation(), 1);
}

#[test]
fn store_and_forward_sheds_the_oldest_sample_past_its_capacity() {
    let mut config = ScenarioConfig::small();
    config.publish_qos = QoS::AtLeastOnce;
    config.sample_interval = SimDuration::from_secs(1);
    // A fixed seed: "at the bound" below is one step of one timeline.
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &config.build());
    sim.run_for(SimDuration::from_secs(30));
    sim.crash(deployment.broker);

    let victim = deployment.device_proxies().next().unwrap();
    let books = |sim: &Simulator| {
        let proxy = sim.node_ref::<DeviceProxyNode>(victim).unwrap();
        let stats = proxy.stats();
        assert_eq!(
            stats.buffered,
            stats.replayed + stats.shed_capacity + proxy.backlog_len() as u64,
            "conservation violated: {stats:?}"
        );
        assert!(proxy.backlog_len() <= STORE_FORWARD_CAPACITY);
        (proxy.backlog_len(), stats.shed_capacity)
    };
    // The broker never comes back. At the bound the buffer is full and
    // nothing has been shed.
    let step = SimDuration::from_millis(10);
    while books(&sim).0 < STORE_FORWARD_CAPACITY {
        assert!(sim.now() < SimTime::from_secs(600), "buffer never filled");
        sim.run_for(step);
    }
    assert_eq!(books(&sim), (STORE_FORWARD_CAPACITY, 0));
    // One sample past it: the oldest is written off, the buffer no larger.
    while books(&sim).1 == 0 {
        assert!(sim.now() < SimTime::from_secs(600), "nothing was shed");
        sim.run_for(step);
    }
    assert_eq!(books(&sim).1, 1);
    // Long enough for replay probes to time out against the full buffer.
    for _ in 0..300 {
        sim.run_for(SimDuration::from_secs(1));
        books(&sim);
    }
    let (backlog, shed) = books(&sim);
    assert!(
        backlog >= STORE_FORWARD_CAPACITY - 1,
        "one probe at most in flight"
    );
    assert!(shed > 1);
}

#[test]
fn master_restart_is_followed_by_full_reregistration() {
    let scenario = qos1_scenario();
    let mut sim = seeded_sim(0xC4A1);
    let deployment = Deployment::build(&mut sim, &scenario);
    sim.run_for(SimDuration::from_secs(120));
    assert_eq!(
        sim.node_ref::<MasterNode>(deployment.master)
            .unwrap()
            .ontology()
            .device_count(),
        12
    );

    // The master reboots with an empty registry; heartbeats come back
    // 404 and every proxy re-registers.
    sim.crash(deployment.master);
    sim.restart(deployment.master, SimDuration::from_secs(20));
    sim.run_for(SimDuration::from_secs(400));

    let master = sim.node_ref::<MasterNode>(deployment.master).unwrap();
    assert_eq!(master.proxy_count(), 19, "stats: {:?}", master.stats());
    assert_eq!(master.ontology().device_count(), 12);
    assert_eq!(master.ontology().entity_count(), 5);
}

#[test]
fn seeded_random_chaos_is_deterministic_and_conserves_qos1() {
    let run = |seed: u64| {
        let scenario = qos1_scenario();
        let mut sim = seeded_sim(0xC4A2);
        let deployment = Deployment::build(&mut sim, &scenario);
        sim.run_for(SimDuration::from_secs(60));

        let faults = RandomFaults {
            crash_targets: deployment
                .device_proxies()
                .chain([deployment.broker])
                .collect(),
            crashes_per_hour: 20.0,
            mean_downtime: SimDuration::from_secs(40),
            ..RandomFaults::default()
        };
        let plan = FaultPlan::random(seed, SimDuration::from_secs(600), &faults);
        assert!(!plan.is_empty(), "rates should produce faults");
        let mut runner = ChaosRunner::new(plan);
        runner.run_until(&mut sim, SimTime::from_secs(660));
        // Quiet period so restarts re-register and backlogs drain.
        sim.run_for(SimDuration::from_secs(300));

        let broker = sim.node_ref::<BrokerNode>(deployment.broker).unwrap();
        let stats = broker.stats();
        assert_eq!(
            stats.qos1_enqueued,
            stats.acked + stats.dropped + broker.pending_deliveries() as u64,
            "conservation violated after chaos: {stats:?}"
        );
        let master = sim.node_ref::<MasterNode>(deployment.master).unwrap();
        assert_eq!(
            master.ontology().device_count(),
            12,
            "inventory did not converge: {:?}",
            master.stats()
        );
        (
            runner.faults_injected(),
            stats,
            master.stats(),
            sim.metrics().crashes,
            sim.metrics().restarts,
        )
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed must replay identically");
    assert!(a.3 > 0, "no crashes were injected");
}

#[test]
fn bridge_link_flaps_mid_batch_conserve_qos1() {
    use dimmer::district::scenario::FederationSpec;
    use dimmer::simnet::chaos::Fault;

    let mut config = ScenarioConfig::small()
        .with_districts(2)
        .with_federation(FederationSpec::sharded(2));
    config.publish_qos = QoS::AtLeastOnce;
    let scenario = config.build();

    let mut sim = seeded_sim(0xC4A3);
    sim.telemetry().tracer.set_capacity(1 << 17);
    let deployment = Deployment::build(&mut sim, &scenario);
    // The monitor listens on shard 0, so every district-1 publish must
    // cross the bridge to reach it.
    let monitor = sim.add_node("monitor", Monitor::new(deployment.brokers[0]));
    sim.run_for(SimDuration::from_secs(60));

    // Flap the bridge link repeatedly. Each 8 s outage is far inside the
    // retransmission budget (8 tries x 2 s), so in-flight batches must
    // ride the flaps out instead of being lost.
    let (b0, b1) = (deployment.brokers[0], deployment.brokers[1]);
    let mut plan = FaultPlan::new();
    for i in 0..5u64 {
        plan = plan.at(
            SimTime::from_secs(63 + i * 60),
            Fault::LinkFlap {
                a: b0,
                b: b1,
                down: SimDuration::from_secs(8),
            },
        );
    }
    let mut runner = ChaosRunner::new(plan);
    runner.run_until(&mut sim, SimTime::from_secs(400));
    // Quiet period: retries drain, batchers flush.
    sim.run_for(SimDuration::from_secs(200));
    let end_ns = sim.now().as_nanos();

    // Zero QoS 1 loss across the bridge under link faults, and the
    // bridge ledger balances on both shards.
    let mut total_retries = 0u64;
    for (i, &b) in deployment.brokers.iter().enumerate() {
        let broker = sim.node_ref::<BrokerNode>(b).unwrap();
        let s = broker.bridge_stats();
        assert_eq!(s.frames_dropped, 0, "shard {i} dropped frames: {s:?}");
        assert_eq!(
            s.frames_enqueued,
            s.frames_acked
                + s.frames_dropped
                + broker.bridge_in_flight() as u64
                + broker.bridge_buffered() as u64,
            "shard {i} bridge conservation violated: {s:?}"
        );
        total_retries += s.retries;
    }
    assert!(
        total_retries > 0,
        "no flap hit an in-flight batch - the fault schedule is toothless"
    );

    // Flight recorder: every measurement forwarded onto the bridge (and
    // old enough that retries had time to settle) reached the peer.
    let paths = reconstruct(&sim.telemetry().tracer.events());
    let settle_ns = SimDuration::from_secs(30).as_nanos();
    let bridged: Vec<_> = paths
        .iter()
        .filter(|p| {
            p.hops
                .iter()
                .any(|h| h.kind == "bridge.forward" && h.time_ns + settle_ns < end_ns)
        })
        .collect();
    assert!(!bridged.is_empty(), "no traces crossed the bridge");
    for path in &bridged {
        assert!(
            path.visits(&["bridge.forward", "bridge.deliver"]),
            "bridged trace {} was lost:\n{path}",
            path.trace_id
        );
    }

    // And the cross-shard subscriber kept receiving throughout.
    let m = sim.node_ref::<Monitor>(monitor).unwrap();
    assert!(m.received > 0);
    assert_eq!(m.restarts_seen, 0, "link faults are not broker restarts");
}

/// A publisher that sends a bounded burst of traced QoS 1 publishes and
/// then goes quiet, so the simulation can actually drain to idle.
struct BurstPub {
    client: PubSubClient,
    total: u64,
    sent: u64,
}

impl Node for BurstPub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(500), TimerTag(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag != TimerTag(1) {
            self.client.on_timer(ctx, tag);
            return;
        }
        if self.sent >= self.total {
            return;
        }
        let trace = ctx.telemetry().tracer.next_trace_id();
        ctx.trace_hop("pub.send", trace, format_args!("seq={}", self.sent));
        self.client.publish_ref(
            ctx,
            &dimmer::pubsub::Topic::new(format!("district/d0/burst/{}", self.sent)).unwrap(),
            format!("sample-{}", self.sent).as_bytes(),
            false,
            QoS::AtLeastOnce,
            trace,
            NO_SPAN,
        );
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(100), TimerTag(1));
    }
}

/// A subscriber with no keepalive timer: it counts deliveries but never
/// re-arms anything, so it cannot keep the event queue alive.
struct QuietSub {
    client: PubSubClient,
    received: u64,
}

impl Node for QuietSub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            TopicFilter::new("district/#").expect("valid"),
            QoS::AtLeastOnce,
        );
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != PUBSUB_PORT {
            return;
        }
        if let Some(PubSubEvent::Message { .. }) = self.client.accept(ctx, &pkt) {
            self.received += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

/// PR-6 slab queue under chaos: a broker crash mid-burst must not leak
/// arena slots (every scheduled event is popped or recycled — the slab
/// is empty once the simulation quiesces), and two identical runs must
/// produce byte-identical flight-recorder output.
#[test]
fn event_slab_drains_to_zero_and_replays_byte_identically_under_chaos() {
    let run = || {
        let mut sim = seeded_sim(0xC4A4);
        sim.telemetry().tracer.set_capacity(1 << 16);
        let broker = sim.add_node("broker", BrokerNode::with_label("b0"));
        let sub = sim.add_node(
            "sub",
            QuietSub {
                client: PubSubClient::new(broker, 100),
                received: 0,
            },
        );
        sim.add_node(
            "pub",
            BurstPub {
                client: PubSubClient::new(broker, 100),
                total: 80,
                sent: 0,
            },
        );

        // Crash the broker mid-burst; in-flight deliveries, QoS 1 retry
        // timers and the restart event all cross the fault boundary.
        sim.run_for(SimDuration::from_secs(3));
        assert!(
            sim.event_arena_in_use() > 0,
            "the burst should be mid-flight at the crash point"
        );
        sim.crash(broker);
        sim.restart(broker, SimDuration::from_secs(2));
        let drained = sim.run_until_idle(2_000_000);
        assert!(drained > 0, "nothing left to drain after the restart");

        // The slab ledger: no pending events, no live arena slots, and
        // the arena did grow (the scenario exercised it).
        assert_eq!(sim.pending_events(), 0, "queue not idle");
        assert_eq!(
            sim.event_arena_in_use(),
            0,
            "event slab leaked {} of {} slots",
            sim.event_arena_in_use(),
            sim.event_arena_capacity()
        );
        assert!(sim.event_arena_capacity() > 0);

        let received = sim.node_ref::<QuietSub>(sub).unwrap().received;
        assert!(received > 0, "no deliveries before the crash");

        // Serialize the full flight recorder; two runs must agree byte
        // for byte (timer-wheel and slab determinism end to end).
        let recorder: String = sim
            .telemetry()
            .tracer
            .events()
            .iter()
            .map(|e| {
                format!(
                    "{} n{} {} t{} {} {}\n",
                    e.time_ns, e.node, e.node_name, e.trace_id, e.kind, e.detail
                )
            })
            .collect();
        assert!(!recorder.is_empty(), "flight recorder captured nothing");
        (received, sim.event_arena_capacity(), recorder)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "delivery counts diverged");
    assert_eq!(a.1, b.1, "arena high-water marks diverged");
    assert_eq!(a.2, b.2, "flight-recorder output diverged between runs");
}

/// A query client sharing a fleet-wide retry budget: fires a GET at the
/// master every 2 s and classifies each completion exactly once.
struct BudgetedQuerier {
    client: dimmer::proxy::webservice::WsClient,
    master: dimmer::simnet::NodeId,
    stop_at: SimTime,
    sent: u64,
    ok: u64,
    ok_after: u64,
    /// Responses count as `ok_after` past this time (the heal point).
    after: SimTime,
    timed_out: u64,
}

impl Node for BudgetedQuerier {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_millis(500), TimerTag(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        use dimmer::proxy::webservice::WsClientEvent;
        match self.client.accept(&pkt) {
            Some(WsClientEvent::Response { response, .. }) if response.is_ok() => {
                self.ok += 1;
                if ctx.now() >= self.after {
                    self.ok_after += 1;
                }
            }
            Some(WsClientEvent::TimedOut { .. }) => self.timed_out += 1,
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        use dimmer::proxy::webservice::WsClientEvent;
        if tag != TimerTag(1) {
            if let Some(WsClientEvent::TimedOut { .. }) = self.client.on_timer(ctx, tag) {
                self.timed_out += 1;
            }
            return;
        }
        if ctx.now() >= self.stop_at {
            return;
        }
        self.client.request(
            ctx,
            self.master,
            &dimmer::proxy::webservice::WsRequest::get("/districts"),
        );
        self.sent += 1;
        ctx.set_timer(SimDuration::from_secs(2), TimerTag(1));
    }
}

#[test]
fn retry_budget_bounds_resend_storms_during_partition() {
    use dimmer::simnet::chaos::Fault;
    use dimmer::simnet::overload::RetryBudget;

    let scenario = qos1_scenario();
    let mut sim = seeded_sim(0xB0D6E7);
    let deployment = Deployment::build(&mut sim, &scenario);

    // Queriers 0–1 carry no budget: their requests run every retry to
    // exhaustion, surfacing as `rpc.retry_exhausted`. Queriers 2–3
    // share a starved budget (one token, trickle refill): almost every
    // retry is denied, so their storm is bounded — `rpc.budget_exhausted`
    // counts exactly those denials.
    let budget = RetryBudget::new(1.0, 0.02);
    let heal_at = SimTime::from_secs(40);
    let queriers: Vec<_> = (0..4)
        .map(|i| {
            let mut node = BudgetedQuerier {
                client: dimmer::proxy::webservice::WsClient::new(1_000_000),
                master: deployment.master,
                stop_at: SimTime::from_secs(65),
                sent: 0,
                ok: 0,
                ok_after: 0,
                after: heal_at,
                timed_out: 0,
            };
            if i >= 2 {
                node.client.set_retry_budget(budget.clone());
            }
            sim.add_node(format!("querier-{i}"), node)
        })
        .collect();

    let plan = FaultPlan::new()
        .at(
            SimTime::from_secs(10),
            Fault::Partition {
                groups: vec![vec![deployment.master], queriers.clone()],
            },
        )
        .at(heal_at, Fault::Heal);
    let mut runner = ChaosRunner::new(plan);
    // Stop offering at 65 s, then drain well past the 3 s × 3 attempt
    // worst case so every request resolves exactly once.
    runner.run_until(&mut sim, SimTime::from_secs(80));

    let metrics = &sim.telemetry().metrics;
    assert!(
        metrics.counter("rpc.retry_exhausted") > 0,
        "no request ran out of retries during the partition"
    );
    assert!(
        metrics.counter("rpc.budget_exhausted") > 0,
        "the shared budget never denied a retry"
    );
    // Only the queriers carry a budget, so the metric and the budget's
    // own denial count must agree exactly.
    assert_eq!(metrics.counter("rpc.budget_exhausted"), budget.exhausted());

    let (mut sent, mut ok, mut ok_after, mut timed_out) = (0u64, 0u64, 0u64, 0u64);
    for &q in &queriers {
        let node = sim.node_ref::<BudgetedQuerier>(q).expect("querier");
        sent += node.sent;
        ok += node.ok;
        ok_after += node.ok_after;
        timed_out += node.timed_out;
    }
    assert_eq!(
        sent,
        ok + timed_out,
        "every request must resolve exactly once"
    );
    assert!(timed_out > 0, "the partition never surfaced as timeouts");
    assert!(ok_after > 0, "queries never recovered after the heal");
}

/// The tskv torn-checkpoint window: a device proxy crashes *between*
/// sealing its head into segments (plus writing the snapshot) and
/// truncating the WAL. The differential oracle is the same seeded run
/// without the crash — every point acknowledged before the crash must
/// read back bit-identically after recovery.
#[test]
fn proxy_crash_between_seal_and_wal_truncate_recovers_exactly() {
    // Everything ingested more than 30 s before the crash was delivered
    // (or lost) identically in both runs; newer points may still be in
    // flight when the crash hits and are excluded from the comparison.
    const CUTOFF_MARGIN_MILLIS: i64 = 30_000;

    /// Per-series points with values as raw bits, for exact comparison.
    type SeriesBits = Vec<(String, Vec<(i64, u64)>)>;

    let run = |crash: bool| -> (i64, SeriesBits, u64, usize) {
        let scenario = qos1_scenario();
        let mut sim = seeded_sim(0xC4A5);
        let deployment = Deployment::build(&mut sim, &scenario);
        let victim = deployment.device_proxies().next().expect("a device proxy");

        sim.run_for(SimDuration::from_secs(180));
        if crash {
            // Freeze the exact torn state: segments sealed, snapshot
            // written, WAL not yet truncated.
            let proxy = sim.node_mut::<DeviceProxyNode>(victim).expect("victim");
            let store = proxy.store_mut();
            store.seal_all();
            store.debug_snapshot_without_truncate();
        }
        // Two more sampling rounds (the scenario samples every 60 s) of
        // acknowledged ingest land in the WAL tail — and only there —
        // before the crash.
        sim.run_for(SimDuration::from_secs(120));
        let cutoff = {
            let proxy = sim.node_ref::<DeviceProxyNode>(victim).expect("victim");
            let store = proxy.store();
            let names: Vec<String> = store.series_names().map(str::to_owned).collect();
            let newest = names
                .iter()
                .filter_map(|n| store.latest(n))
                .map(|(t, _)| t)
                .max()
                .expect("victim ingested samples");
            newest - CUTOFF_MARGIN_MILLIS
        };
        if crash {
            sim.crash(victim);
            sim.restart(victim, SimDuration::from_secs(10));
        }
        sim.run_for(SimDuration::from_secs(120));

        let proxy = sim.node_ref::<DeviceProxyNode>(victim).expect("victim");
        let store = proxy.store();
        let names: Vec<String> = store.series_names().map(str::to_owned).collect();
        let contents: Vec<(String, Vec<(i64, u64)>)> = names
            .iter()
            .map(|n| {
                let pts = store
                    .range(n, i64::MIN, cutoff)
                    .into_iter()
                    .map(|(t, v)| (t, v.to_bits()))
                    .collect();
                (n.clone(), pts)
            })
            .collect();
        let stats = store.stats();
        (cutoff, contents, stats.wal_replayed, stats.segments)
    };

    let (oracle_cutoff, oracle, oracle_replayed, _) = run(false);
    let (cutoff, recovered, replayed, segments) = run(true);

    assert_eq!(cutoff, oracle_cutoff, "runs diverged before the crash");
    assert_eq!(oracle_replayed, 0, "the oracle never recovers");
    assert!(replayed > 0, "recovery replayed no WAL records");
    assert!(segments > 0, "sealed segments did not survive the crash");
    let points: usize = oracle.iter().map(|(_, pts)| pts.len()).sum();
    assert!(points > 0, "oracle holds no pre-crash points");
    assert_eq!(
        recovered, oracle,
        "recovered store is not byte-identical to the uncrashed oracle"
    );
}
