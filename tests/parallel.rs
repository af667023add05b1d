//! Differential determinism tests for the sharded parallel runner: the
//! same seeded city, deployed through `Deployment::build` on a 4-shard
//! `Simulator`, must produce bit-identical results at
//! `--threads 1` and `--threads N` — delivery streams `(time, seq)`
//! equal, per-broker `BridgeStats` ledgers equal, flight-recorder
//! digests equal — including with a broker shard crashing mid-run.
//!
//! `DIMMER_THREADS` picks the parallel thread count (default 4); the CI
//! thread matrix runs this suite at 1 and 4. `DIMMER_SEED` shifts the
//! seed like every other seeded suite.

use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::{FederationSpec, Scenario, ScenarioConfig};
use dimmer::master::MasterNode;
use dimmer::pubsub::{BridgeStats, BrokerNode, PubSubClient, PubSubEvent, QoS, TopicFilter};
use dimmer::simnet::chaos::{ChaosRunner, Fault, FaultPlan};
use dimmer::simnet::telemetry::flight::reconstruct;
use dimmer::simnet::telemetry::{TraceId, NO_SPAN};
use dimmer::simnet::{
    Context, Node, NodeId, Packet, ParallelConfig, SimDuration, SimTime, Simulator, TimerTag,
};
use std::collections::{BTreeMap, BTreeSet};

const SHARDS: usize = 4;

fn env_threads() -> usize {
    std::env::var("DIMMER_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(4)
        .max(1)
}

fn seed(base: u64) -> u64 {
    let offset = std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    base + offset
}

fn city() -> Scenario {
    let mut config = ScenarioConfig::small();
    config.districts = SHARDS;
    config.buildings_per_district = 2;
    config.devices_per_building = 2;
    config.sample_interval = SimDuration::from_secs(5);
    config.publish_qos = QoS::AtLeastOnce;
    config.federation = Some(FederationSpec::sharded(SHARDS));
    config.build()
}

/// Subscribes `district/#` on broker shard 0 and records every delivery
/// as `(arrival_ns, topic, payload_len)` in arrival order — messages
/// from the other shards reach it through the federation bridge, so the
/// record doubles as a cross-shard delivery stream.
struct StreamRecorder {
    client: PubSubClient,
    stream: Vec<(u64, String, usize)>,
}

impl Node for StreamRecorder {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            TopicFilter::new("district/#").expect("valid"),
            QoS::AtLeastOnce,
        );
        self.client.start_keepalive(ctx, SimDuration::from_secs(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(PubSubEvent::Message { topic, payload, .. }) = self.client.accept(ctx, &pkt) {
            self.stream.push((
                ctx.now().as_nanos(),
                topic.as_str().to_string(),
                payload.len(),
            ));
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

/// Everything a run leaves behind that must be thread-count invariant.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    stream: Vec<(u64, String, usize)>,
    bridges: Vec<BridgeStats>,
    device_count: usize,
    digest: u64,
    now_ns: u64,
}

/// A finished 120 s run of the city: the simulator, its deployment and
/// the stream recorder's id. `ring` resizes every shard's trace ring.
struct CityRun {
    sim: Simulator,
    deployment: Deployment,
    recorder: NodeId,
}

fn run_city_sim(
    shards: usize,
    base_seed: u64,
    threads: usize,
    crash_broker: bool,
    ring: Option<usize>,
) -> CityRun {
    let scenario = city();
    let mut sim = Simulator::new(ParallelConfig {
        seed: seed(base_seed),
        shards,
        threads,
        ..ParallelConfig::default()
    });
    if let Some(capacity) = ring {
        for shard in 0..shards {
            sim.shard_telemetry(shard).tracer.set_capacity(capacity);
        }
    }
    let deployment = Deployment::build(&mut sim, &scenario);
    let recorder = sim.add_node_on(
        0,
        "stream-recorder",
        StreamRecorder {
            client: PubSubClient::new(deployment.brokers[0], 100),
            stream: Vec::new(),
        },
    );

    let mut plan = FaultPlan::new();
    if crash_broker {
        plan = plan.at(
            SimTime::ZERO + SimDuration::from_secs(40),
            Fault::CrashFor {
                node: deployment.brokers[1],
                down: SimDuration::from_secs(15),
            },
        );
    }
    let mut chaos = ChaosRunner::new(plan);
    chaos.run_for(&mut sim, SimDuration::from_secs(120));
    CityRun {
        sim,
        deployment,
        recorder,
    }
}

fn run_city(shards: usize, base_seed: u64, threads: usize, crash_broker: bool) -> Fingerprint {
    let CityRun {
        sim,
        deployment,
        recorder,
    } = run_city_sim(shards, base_seed, threads, crash_broker, None);
    assert_eq!(
        sim.stats().cross_packets > 0,
        shards > 1,
        "a federated city generates cross-shard traffic exactly when it has shards to cross"
    );
    let stream = sim
        .node_ref::<StreamRecorder>(recorder)
        .expect("recorder")
        .stream
        .clone();
    assert!(
        !stream.is_empty(),
        "recorder saw no deliveries from the federated city"
    );
    let bridges: Vec<BridgeStats> = deployment
        .brokers
        .iter()
        .map(|&b| {
            sim.node_ref::<BrokerNode>(b)
                .expect("broker")
                .bridge_stats()
        })
        .collect();
    if crash_broker {
        assert!(
            sim.is_up(deployment.brokers[1]),
            "crashed broker shard should be back up after CrashFor elapses"
        );
    }
    let device_count = sim
        .node_ref::<MasterNode>(deployment.master)
        .expect("master")
        .ontology()
        .device_count();
    assert!(device_count > 0, "no devices registered with the master");
    Fingerprint {
        stream,
        bridges,
        device_count,
        digest: sim.flight_digest(),
        now_ns: sim.now().as_nanos(),
    }
}

#[test]
fn sharded_deployment_identical_across_thread_counts() {
    let single = run_city(SHARDS, 0x9A11, 1, false);
    let multi = run_city(SHARDS, 0x9A11, env_threads(), false);
    assert_eq!(single, multi);
}

/// Each shard mints its own trace and span ids, and the federation
/// bridge carries them into the other shards' rings: a flight bridged
/// into shard 0 must not share its ids with one of shard 0's own
/// flights, or the flight recorder merges the two and span trees hang
/// hops under a foreign parent.
#[test]
fn trace_and_span_ids_are_unique_across_shards() {
    let CityRun { sim, .. } = run_city_sim(SHARDS, 0x9A11, env_threads(), false, None);
    let mut heads: BTreeMap<TraceId, Vec<usize>> = BTreeMap::new();
    let mut spans: BTreeMap<u64, usize> = BTreeMap::new();
    let mut bridged: BTreeSet<TraceId> = BTreeSet::new();
    for shard in 0..SHARDS {
        let tracer = &sim.shard_telemetry(shard).tracer;
        assert_eq!(tracer.dropped(), 0, "shard {shard}'s ring wrapped");
        for e in tracer.events() {
            match e.kind.as_str() {
                "device.sample" => heads.entry(e.trace_id).or_default().push(shard),
                "bridge.deliver" if shard == 0 => {
                    bridged.insert(e.trace_id);
                }
                _ => {}
            }
            if e.span != NO_SPAN {
                *spans.entry(e.span).or_default() += 1;
            }
        }
    }
    assert!(
        !bridged.is_empty(),
        "nothing crossed the bridge into shard 0"
    );
    for trace in &bridged {
        let at = heads.get(trace).map(Vec::as_slice);
        assert!(
            matches!(at, Some([s]) if *s != 0),
            "bridged trace {trace:#x} started on shards {at:?}"
        );
    }
    for (trace, at) in &heads {
        assert_eq!(at.len(), 1, "trace {trace:#x} started on shards {at:?}");
    }
    for (span, n) in &spans {
        assert_eq!(*n, 1, "span {span:#x} recorded {n} times");
    }
}

/// Small enough that every shard's ring wraps early in the city run.
const SMALL_RING: usize = 256;
/// Longer than any fault-free flight of the city takes, retries included.
const FLIGHT_MARGIN_NS: u64 = 10_000_000_000;

/// Once the rings wrap, flights are sampled at their head. The sample
/// is keyed on the shard seeds, so it is the same at every thread
/// count, and it is all or nothing per flight: every flight the wrapped
/// rings still cover end to end is whole.
#[test]
fn wrapped_rings_keep_whole_flights_at_any_thread_count() {
    let single = run_city_sim(SHARDS, 0x9A11, 1, false, Some(SMALL_RING));
    let multi = run_city_sim(SHARDS, 0x9A11, env_threads(), false, Some(SMALL_RING));
    assert_eq!(single.sim.flight_digest(), multi.sim.flight_digest());

    let sim = &multi.sim;
    let mut events = Vec::new();
    // Every ring holds everything since its oldest event, so all of
    // them cover the span from the latest of those on.
    let mut covered_from = 0;
    for shard in 0..SHARDS {
        let telemetry = sim.shard_telemetry(shard);
        assert!(
            telemetry.tracer.dropped() > 0,
            "shard {shard}'s ring did not wrap"
        );
        telemetry.exposition();
        assert!(
            telemetry.metrics.gauge("trace.unsampled") > 0.0,
            "shard {shard} sampled every flight"
        );
        let ring = telemetry.tracer.events();
        covered_from = covered_from.max(ring[0].time_ns);
        events.extend(ring);
    }
    events.sort_by_key(|e| e.time_ns);
    let flights = reconstruct(&events);
    let window = covered_from + FLIGHT_MARGIN_NS..=sim.now().as_nanos() - FLIGHT_MARGIN_NS;
    let mut whole = 0;
    for flight in flights
        .iter()
        .filter(|f| window.contains(&f.hops[0].time_ns))
    {
        assert!(
            flight.visits(&[
                "device.sample",
                "proxy.ingest",
                "broker.publish",
                "sub.receive"
            ]),
            "partial flight in a wrapped ring:\n{flight}"
        );
        whole += 1;
    }
    assert!(whole > 0, "the wrapped rings cover no whole flight");
}

/// Flight digests of the fault-free city under `ParallelConfig`'s seed
/// rule (shard `i` is seeded `root.derive(i)`, also at `shards: 1`),
/// recorded before the kernel became crate-private; the 4-shard one
/// re-recorded when trace and span ids gained their shard tag. Outside
/// the frozen benchmark's `sim_digest` nothing else pins that rule, so
/// a refactor of the runner must leave both unchanged. The with-faults digest of
/// `broker_crash_mid_run_stays_deterministic` is deliberately not
/// pinned: runner-level fault records may move between bundles; only
/// its 1-vs-N-thread equality is promised.
const CITY_DIGEST_4_SHARDS: u64 = 0x4bd9_a7ba_60ef_3560;
const CITY_DIGEST_1_SHARD: u64 = 0x9eac_ce09_97f3_e00f;

#[test]
fn derived_seed_digests_match_the_recorded_ones() {
    if std::env::var_os("DIMMER_SEED").is_some() {
        return; // the pins hold for the unshifted seed only
    }
    let four = run_city(SHARDS, 0x9A11, env_threads(), false).digest;
    let one = run_city(1, 0x9A11, 1, false).digest;
    assert_eq!(
        (four, one),
        (CITY_DIGEST_4_SHARDS, CITY_DIGEST_1_SHARD),
        "got {four:#018x} (4 shards) and {one:#018x} (1 shard)"
    );
}

/// One district on one shard — every probe and reply crosses a jittered
/// LAN link — with the master's fleet scraper on. Returns the flight
/// digest and the `/metrics` text, whose `ops.*` gauges and link-delay
/// sums record when each probe was answered.
fn run_scraped_district(base_seed: u64) -> (u64, String) {
    let mut sim = Simulator::new(ParallelConfig {
        seed: seed(base_seed),
        ..ParallelConfig::default()
    });
    let mut config = ScenarioConfig::small();
    config.sample_interval = SimDuration::from_secs(1);
    let deployment = Deployment::build(&mut sim, &config.build());
    sim.node_mut::<MasterNode>(deployment.master)
        .expect("master")
        .enable_fleet_scrape(SimDuration::from_secs(3));
    sim.run_for(SimDuration::from_secs(60));
    let counters = sim.shard_telemetry(0).metrics.snapshot().counters;
    assert!(
        counters.iter().any(|(n, v)| n == "ops.scrapes" && *v >= 10),
        "the fleet scraper did not run"
    );
    (sim.flight_digest(), sim.shard_telemetry(0).exposition())
}

/// The fleet scraper probes every registered proxy each round; the
/// probe order must not follow `HashMap` iteration order, or two runs of
/// one seed hand the sampled link delays to different probes and
/// diverge.
#[test]
fn fleet_scrape_runs_are_reproducible() {
    let (digest, metrics_text) = run_scraped_district(0x5C4A);
    for _ in 0..3 {
        let (again, text_again) = run_scraped_district(0x5C4A);
        assert_eq!(digest, again, "flight digests differ between runs");
        assert_eq!(
            metrics_text, text_again,
            "/metrics text differs between runs"
        );
    }
}

#[test]
fn broker_crash_mid_run_stays_deterministic() {
    let single = run_city(SHARDS, 0xC4A5, 1, true);
    let multi = run_city(SHARDS, 0xC4A5, env_threads(), true);
    assert_eq!(single, multi);
}
