//! E13 — city-scale hot path: sustained simulated-event throughput at
//! 1k / 5k / 10k / 100k buildings, sharded across OS threads.
//!
//! The ROADMAP targets a 100k-building city. Earlier experiments scale
//! the *protocol* (E8 fan-out, E12 federation); this one scales the
//! *engine*: every building carries a constant-rate publisher, districts
//! of 100 buildings each are served by a federated shard tier, and the
//! whole simulation runs on a sharded `simnet::Simulator` — one
//! simulation shard per broker shard, `--threads N` worker threads,
//! cross-shard bridge batches and master RPCs flowing through the
//! deterministic lookahead barriers. The run reports how fast the
//! engine chews through the event stream in wall-clock terms.
//!
//! Metrics per scale:
//!
//! * `delivered_msg_s` — application messages reaching subscribers per
//!   simulated second (sanity: must track the offered rate);
//! * `p99_ms` — end-to-end publish→deliver latency in simulated time;
//! * `sim_events` / `wall_s` / `events_wall_s` — total simulator events
//!   processed, host wall-clock for the run, and their ratio: the
//!   engine-throughput headline;
//! * `sim_x_real` — simulated seconds per wall second (>1 means the
//!   city runs faster than real time).
//!
//! After the table the binary prints one `e13-digest` line per scale
//! (the flight-recorder digest, identical at any `--threads` — the CI
//! determinism gate diffs it across thread counts) and one
//! `e13-speedup` line comparing the largest scale's wall time at
//! `--threads 1` vs the requested count (asserting the digests match,
//! so the speedup is measured on bit-identical runs).
//!
//! The run also stands up the PR-7 ops plane: a master with the fleet
//! scraper tracking every broker shard (cross-shard RPCs under the
//! barrier), a probe node scraping `GET /fleet/metrics` over the
//! Web-Service wire, every 50th building publishing traced, and a
//! scraped-gauge + SLO section after each scale's table row.
//! `DIMMER_SEED=<offset>` shifts the simulation seed (the CI gate holds
//! it fixed across thread counts).
//!
//! `DIMMER_E13_SMOKE=1` shrinks the run (500 buildings, short window)
//! so `scripts/ci.sh` can exercise the binary in debug builds.

use dimmer_core::DistrictId;
use district::report::{fmt_f64, install_default_slos, slo_report, Table};
use master::MasterNode;
use proxy::webservice::{WsClient, WsClientEvent, WsRequest};
use pubsub::{
    BrokerNode, FederationConfig, PubSubClient, PubSubEvent, QoS, ShardMap, Topic, TopicFilter,
    PUBSUB_PORT,
};
use simnet::batch::BatchPolicy;
use simnet::telemetry::SloReport;
use simnet::{
    Context, Node, NodeId, Packet, ParallelConfig, SimDuration, SimTime, Simulator, TimerTag,
};

/// Every Nth building publishes traced: enough flights for the SLO
/// harvest without flooding the trace ring at the 100k scale.
const TRACED_BUILDING_STRIDE: usize = 50;
/// How often the master's fleet scraper and the probe poll.
const SCRAPE_INTERVAL: SimDuration = SimDuration::from_secs(5);

const BUILDINGS_PER_DISTRICT: usize = 100;
const PUBLISH_INTERVAL: SimDuration = SimDuration::from_secs(2);
const WARMUP: SimDuration = SimDuration::from_secs(5);
const MEASURE: SimDuration = SimDuration::from_secs(60);

/// Federates `shards` brokers over round-robin district assignments
/// (district i → shard i % shards), mirroring `district::deploy`.
/// Broker i lives on simulation shard i, so bridge batches are the
/// cross-shard traffic.
fn build_brokers(sim: &mut Simulator, shards: usize, districts: usize) -> Vec<NodeId> {
    let ids: Vec<NodeId> = (0..shards)
        .map(|i| {
            sim.add_node_on(
                i,
                format!("broker-{i}"),
                BrokerNode::with_label(format!("b{i}")),
            )
        })
        .collect();
    let mut shard = ShardMap::new(shards);
    for d in 0..districts {
        shard.assign(format!("d{d}"), d % shards);
    }
    for (i, &id) in ids.iter().enumerate() {
        sim.node_mut::<BrokerNode>(id)
            .expect("just added")
            .federate(FederationConfig {
                index: i,
                brokers: ids.clone(),
                shard: shard.clone(),
                batch: BatchPolicy::default(),
            });
    }
    ids
}

/// A constant-rate building publisher stamping each payload with its
/// send time (64-byte padded, the measurement-frame size from E2).
struct LoadPub {
    client: PubSubClient,
    topic: Topic,
    interval: SimDuration,
    start_offset: SimDuration,
    stop_at: SimTime,
    sent: u64,
    /// When set, every publish mints a flight-recorder trace whose
    /// spans feed the `publish_to_deliver` SLO harvest.
    traced: bool,
}

impl Node for LoadPub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.start_offset, TimerTag(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag != TimerTag(1) {
            self.client.on_timer(ctx, tag);
            return;
        }
        if ctx.now() >= self.stop_at {
            return;
        }
        let mut payload = format!("{} {}", self.sent, ctx.now().as_nanos());
        while payload.len() < 64 {
            payload.push(' ');
        }
        if self.traced {
            let trace = ctx.telemetry().tracer.next_trace_id();
            let span = ctx.trace_hop("pub.send", trace, format_args!("{}", self.topic.as_str()));
            self.client.publish_ref(
                ctx,
                &self.topic,
                payload.as_bytes(),
                false,
                QoS::AtMostOnce,
                trace,
                span,
            );
        } else {
            self.client.publish(
                ctx,
                self.topic.clone(),
                payload.into_bytes(),
                false,
                QoS::AtMostOnce,
            );
        }
        self.sent += 1;
        ctx.set_timer(self.interval, TimerTag(1));
    }
}

/// Periodically scrapes the master's merged `GET /fleet/metrics` over
/// the Web-Service wire, keeping the last successful exposition body.
struct FleetProbe {
    client: WsClient,
    master: NodeId,
    interval: SimDuration,
    scrapes: u64,
    last_body: Option<String>,
}

impl FleetProbe {
    fn new(master: NodeId, interval: SimDuration) -> Self {
        FleetProbe {
            // Tag base far above TimerTag(1) so probe timers and RPC
            // retry timers cannot collide.
            client: WsClient::new(1_000_000),
            master,
            interval,
            scrapes: 0,
            last_body: None,
        }
    }
}

impl Node for FleetProbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.interval, TimerTag(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let _ = ctx;
        if let Some(WsClientEvent::Response { response, .. }) = self.client.accept(&pkt) {
            if response.is_ok() {
                if let Some(text) = response.body.as_str() {
                    self.scrapes += 1;
                    self.last_body = Some(text.to_string());
                }
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TimerTag(1) {
            self.client
                .request(ctx, self.master, &WsRequest::get("/fleet/metrics"));
            ctx.set_timer(self.interval, TimerTag(1));
        } else {
            self.client.on_timer(ctx, tag);
        }
    }
}

/// A per-district subscriber recording latency inside the measure window.
struct LoadSub {
    client: PubSubClient,
    filter: String,
    window: (SimTime, SimTime),
    received: u64,
    latencies_ns: Vec<u64>,
}

impl Node for LoadSub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.client.subscribe(
            ctx,
            TopicFilter::new(&self.filter).expect("valid filter"),
            QoS::AtMostOnce,
        );
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port != PUBSUB_PORT {
            return;
        }
        if let Some(PubSubEvent::Message { payload, .. }) = self.client.accept(ctx, &pkt) {
            let text = String::from_utf8_lossy(&payload);
            let sent_ns: u64 = text
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let now = ctx.now();
            if now >= self.window.0 && now < self.window.1 {
                self.received += 1;
                self.latencies_ns
                    .push(now.as_nanos().saturating_sub(sent_ns));
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

/// Folds per-shard SLO reports into one per name: counts sum,
/// attainment is count-weighted, met/burn re-derived.
fn merge_slos(per_shard: Vec<Vec<SloReport>>) -> Vec<SloReport> {
    let mut merged: Vec<SloReport> = Vec::new();
    for r in per_shard.into_iter().flatten() {
        if let Some(m) = merged.iter_mut().find(|m| m.name == r.name) {
            let total = m.count + r.count;
            if total > 0 {
                m.attainment =
                    (m.attainment * m.count as f64 + r.attainment * r.count as f64) / total as f64;
            }
            m.count = total;
            m.met = m.count == 0 || m.attainment >= m.objective;
            m.burn = (1.0 - m.attainment) / (1.0 - m.objective);
        } else {
            merged.push(r);
        }
    }
    merged
}

struct RunResult {
    districts: usize,
    shards: usize,
    threads: usize,
    offered_msg_s: f64,
    delivered_msg_s: f64,
    p99_ms: f64,
    sim_events: u64,
    wall_s: f64,
    /// Flight-recorder digest — identical at any thread count for the
    /// same seed, which `scripts/ci.sh` gates on.
    digest: u64,
    /// Barrier-protocol counters (windows, cross packets, stalls).
    parallel: simnet::ParallelStats,
    /// Queue-depth / ops / SLO gauge lines from the probe's last
    /// wire-scraped `/fleet/metrics` body.
    fleet_lines: Vec<String>,
    /// SLO reports merged across shards at the end of the run.
    slos: Vec<SloReport>,
}

fn run_scale(
    buildings: usize,
    shards: usize,
    threads: usize,
    seed: u64,
    warmup: SimDuration,
    measure: SimDuration,
) -> RunResult {
    let districts = buildings.div_ceil(BUILDINGS_PER_DISTRICT);
    let mut sim = Simulator::new(ParallelConfig {
        seed,
        shards,
        threads,
        ..ParallelConfig::default()
    });
    for s in 0..shards {
        install_default_slos(sim.shard_telemetry(s));
    }
    let brokers = build_brokers(&mut sim, shards, districts);

    // Ops plane: a master scraping every broker shard (cross-shard RPC
    // under the barrier), plus a probe pulling the merged fleet
    // exposition over the Web-Service wire. Both live on shard 0.
    let mut master_node = MasterNode::new((0..districts).map(|d| {
        (
            DistrictId::new(format!("d{d}")).expect("valid district id"),
            format!("District {d}"),
        )
    }));
    master_node.enable_fleet_scrape(SCRAPE_INTERVAL);
    for (i, &b) in brokers.iter().enumerate() {
        master_node.track_broker(format!("b{i}"), b);
    }
    let master = sim.add_node_on(0, "master", master_node);
    let probe = sim.add_node_on(0, "fleet-probe", FleetProbe::new(master, SCRAPE_INTERVAL));

    let t0 = SimTime::ZERO + warmup;
    let t1 = t0 + measure;
    // Publishers and subscribers are co-located with their district's
    // broker shard, so steady-state load is intra-shard and only bridge
    // batches + master RPCs cross the barrier — the deployment shape
    // `district::deploy::Deployment::build` uses.
    let subs: Vec<NodeId> = (0..districts)
        .map(|d| {
            sim.add_node_on(
                d % shards,
                format!("sub-d{d}"),
                LoadSub {
                    client: PubSubClient::new(brokers[d % shards], 100),
                    filter: format!("district/d{d}/#"),
                    window: (t0, t1),
                    received: 0,
                    latencies_ns: Vec::new(),
                },
            )
        })
        .collect();
    for b in 0..buildings {
        let d = b / BUILDINGS_PER_DISTRICT;
        sim.add_node_on(
            d % shards,
            format!("pub-d{d}-b{b}"),
            LoadPub {
                client: PubSubClient::new(brokers[d % shards], 100),
                topic: Topic::new(format!("district/d{d}/building/b{b}/active_power"))
                    .expect("valid topic"),
                interval: PUBLISH_INTERVAL,
                // Smear starts across the publish interval so the load is
                // flat instead of a 100k-message thundering herd.
                start_offset: SimDuration::from_millis((b as u64 * 7) % 2000),
                stop_at: t1,
                sent: 0,
                traced: b % TRACED_BUILDING_STRIDE == 0,
            },
        );
    }

    let wall = std::time::Instant::now();
    sim.run_for(warmup + measure);
    let wall_s = wall.elapsed().as_secs_f64();

    let mut delivered = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for &s in &subs {
        let sub = sim.node_ref::<LoadSub>(s).expect("sub");
        delivered += sub.received;
        latencies.extend_from_slice(&sub.latencies_ns);
    }
    latencies.sort_unstable();
    let p99 = latencies
        .get((latencies.len().saturating_mul(99)) / 100)
        .or(latencies.last())
        .copied()
        .unwrap_or(0);
    let measure_s = measure.as_nanos() as f64 / 1e9;

    // The ops-plane harvest: the probe must have scraped the fleet view
    // over the wire at least once, and the default SLO must have real
    // flights behind it.
    let probe_ref = sim.node_ref::<FleetProbe>(probe).expect("probe");
    assert!(
        probe_ref.scrapes > 0,
        "fleet probe never scraped /fleet/metrics"
    );
    let body = probe_ref.last_body.clone().unwrap_or_default();
    let fleet_lines: Vec<String> = body
        .lines()
        .filter(|l| {
            // Exposition names are sanitised (dots → underscores).
            l.starts_with("pubsub_pending_deliveries_")
                || l.starts_with("pubsub_bridge_")
                || l.starts_with("ops_up_")
                || l.starts_with("slo_")
        })
        .map(str::to_string)
        .collect();
    let slos = merge_slos(
        (0..shards)
            .map(|s| sim.shard_telemetry(s).slo_refresh())
            .collect(),
    );
    let e2e = slos
        .iter()
        .find(|r| r.name == "publish_to_deliver")
        .expect("default SLO installed");
    assert!(
        e2e.count > 0,
        "publish_to_deliver SLO harvested no traced flights"
    );
    assert!(
        e2e.met,
        "publish_to_deliver SLO missed: attainment {:.4} over {} flights (burn {:.2})",
        e2e.attainment, e2e.count, e2e.burn
    );

    RunResult {
        districts,
        shards,
        threads: sim.threads(),
        offered_msg_s: buildings as f64 / (PUBLISH_INTERVAL.as_nanos() as f64 / 1e9),
        delivered_msg_s: delivered as f64 / measure_s,
        p99_ms: p99 as f64 / 1e6,
        sim_events: sim.metrics().events_processed,
        wall_s,
        digest: sim.flight_digest(),
        parallel: sim.stats(),
        fleet_lines,
        slos,
    }
}

fn parse_threads() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--threads needs a positive integer");
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return v.parse().expect("--threads needs a positive integer");
        }
    }
    1
}

fn main() {
    let threads = parse_threads();
    assert!(threads >= 1, "--threads must be positive");
    let seed_offset = std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let seed = 0xD1_44_E2 + seed_offset;
    let smoke = std::env::var("DIMMER_E13_SMOKE").is_ok_and(|v| v == "1");
    let (scales, warmup, measure): (Vec<(usize, usize)>, _, _) = if smoke {
        (
            vec![(500, 4)],
            SimDuration::from_secs(2),
            SimDuration::from_secs(10),
        )
    } else {
        (
            vec![(1_000, 2), (5_000, 4), (10_000, 8), (100_000, 16)],
            WARMUP,
            MEASURE,
        )
    };

    let title = if smoke {
        "E13: city-scale hot path (smoke)"
    } else {
        "E13: city-scale hot path (100 buildings/district, 2 s publish interval)"
    };
    let mut table = Table::new(
        title,
        [
            "buildings",
            "districts",
            "shards",
            "threads",
            "offered_msg_s",
            "delivered_msg_s",
            "p99_ms",
            "sim_events",
            "wall_s",
            "events_wall_s",
            "sim_x_real",
        ],
    );
    let sim_span_s = (warmup + measure).as_nanos() as f64 / 1e9;
    let mut ops_sections: Vec<(usize, Vec<String>, Vec<SloReport>)> = Vec::new();
    let mut digest_lines: Vec<String> = Vec::new();
    let mut last_run: Option<(usize, usize, RunResult)> = None;
    for &(buildings, shards) in &scales {
        let r = run_scale(buildings, shards, threads, seed, warmup, measure);
        // The engine must keep up: losing deliveries at QoS 0 with no NIC
        // cap would mean the hot path itself is broken.
        assert!(
            r.delivered_msg_s >= r.offered_msg_s * 0.95,
            "delivered {:.1}/s fell below offered {:.1}/s at {buildings} buildings",
            r.delivered_msg_s,
            r.offered_msg_s
        );
        table.row([
            buildings.to_string(),
            r.districts.to_string(),
            r.shards.to_string(),
            r.threads.to_string(),
            fmt_f64(r.offered_msg_s, 1),
            fmt_f64(r.delivered_msg_s, 1),
            fmt_f64(r.p99_ms, 2),
            r.sim_events.to_string(),
            fmt_f64(r.wall_s, 2),
            fmt_f64(r.sim_events as f64 / r.wall_s, 0),
            fmt_f64(sim_span_s / r.wall_s, 1),
        ]);
        digest_lines.push(format!(
            "e13-digest buildings={buildings} shards={} threads={} seed={seed} \
             digest={:#018x} windows={} cross_packets={} stall_ms={:.1} mailbox_max={}",
            r.shards,
            r.threads,
            r.digest,
            r.parallel.windows,
            r.parallel.cross_packets,
            r.parallel.barrier_stall_ns as f64 / 1e6,
            r.parallel.max_mailbox_depth,
        ));
        ops_sections.push((buildings, r.fleet_lines.clone(), r.slos.clone()));
        last_run = Some((buildings, shards, r));
    }
    println!("{table}");
    println!("# series (csv)\n{}", table.to_csv());
    for line in &digest_lines {
        println!("{line}");
    }

    // Speedup probe: re-run the largest scale single-threaded and
    // compare wall time. The digests must match — the speedup is
    // measured between bit-identical executions.
    let (buildings, shards, r_threads) = last_run.expect("at least one scale ran");
    if threads > 1 {
        let r1 = run_scale(buildings, shards, 1, seed, warmup, measure);
        assert_eq!(
            r1.digest, r_threads.digest,
            "flight digests diverged between --threads 1 and --threads {threads}"
        );
        let speedup = r1.wall_s / r_threads.wall_s;
        println!(
            "e13-speedup buildings={buildings} threads={threads} wall_1={:.2} wall_t={:.2} \
             speedup={speedup:.3}",
            r1.wall_s, r_threads.wall_s
        );
    } else {
        println!(
            "e13-speedup buildings={buildings} threads=1 wall_1={:.2} wall_t={:.2} speedup=1.000",
            r_threads.wall_s, r_threads.wall_s
        );
    }

    for (buildings, fleet_lines, slos) in &ops_sections {
        println!("## E13: fleet scrape ({buildings} buildings, wire-scraped /fleet/metrics)");
        for line in fleet_lines {
            println!("{line}");
        }
        print!(
            "{}",
            slo_report(&format!("E13 ({buildings} buildings)"), slos)
        );
    }
}
