//! E14 — overload protection and gray-failure survival.
//!
//! Claim tested: when offered query load sweeps past capacity, the
//! admission gates shed the excess cheaply instead of collapsing —
//! goodput plateaus at the configured service rate, the p99 of
//! *accepted* requests stays inside the latency objective, and every
//! request is accounted for (`offered == served + shed + failed`,
//! exactly). And when a node gray-fails — alive but slow — the master's
//! per-district circuit breaker opens and queries are answered from the
//! last retained rollup snapshot with a staleness marker, instead of a
//! redirect into a tar pit.
//!
//! Phase 1 — open-loop sweep. A small district (aggregation on, both
//! admission gates sized to [`CAPACITY_QPS`]) is queried open-loop at
//! 0.5× / 1× / 2× / 4× capacity, split between the master's
//! `/district/{id}/profile` redirect endpoint and the aggregator's
//! `/rollups`. Per load point the run reports offered/served/shed/
//! failed, goodput against capacity, and the accepted-request p99.
//!
//! Phase 2 — gray failure. The same deployment runs with the fleet
//! scraper on; at [`FAULT_AT`] the district aggregator is made
//! [`Fault::SlowNode`]-slow (service delays ×1200 — alive, answering,
//! useless). A profile watcher polls throughout and must see the
//! breaker open (stale rollups served, `stale: true`), then recover to
//! fresh redirects after the fault clears and the half-open probe
//! succeeds. The `publish_to_deliver` SLO is asserted over the traced
//! measurement traffic that kept flowing underneath.

use district::deploy::Deployment;
use district::report::{
    dump_trace_if_requested, fmt_f64, install_default_slos, metrics_report, slo_report, Table,
};
use district::scenario::{AggregationSpec, OverloadSpec, ScenarioConfig};
use master::MasterNode;
use proxy::webservice::{WsClient, WsClientEvent, WsRequest};
use pubsub::{PubSubClient, PubSubEvent, QoS, TopicFilter, PUBSUB_PORT};
use simnet::chaos::{ChaosRunner, Fault, FaultPlan};
use simnet::{Context, Node, NodeId, Packet, SimConfig, SimDuration, SimTime, Simulator, TimerTag};

/// Admission drain rate each gate is sized to (master and aggregator).
const CAPACITY_QPS: f64 = 40.0;
/// Open-loop clients per target endpoint.
const CLIENTS_PER_TARGET: usize = 4;
/// Accepted-request latency objective (mirrors the default SLO target).
const ACCEPTED_P99_MS: f64 = 250.0;
/// Gray-failure phase: fault injection time, slowdown, duration.
const FAULT_AT: SimTime = SimTime::from_secs(80);
const SLOW_FACTOR: f64 = 1200.0;
const SLOW_FOR: SimDuration = SimDuration::from_secs(90);
const GRAY_HORIZON: SimTime = SimTime::from_secs(300);
/// When the gray-phase watcher stops polling: far enough before the
/// horizon for every outstanding request to resolve.
const WATCH_STOP: SimTime = SimTime::from_secs(288);
/// How often the gray-phase watcher polls the profile endpoint.
const WATCH_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Fleet-scrape cadence in the gray phase.
const SCRAPE_INTERVAL: SimDuration = SimDuration::from_secs(5);

fn scenario() -> district::scenario::Scenario {
    ScenarioConfig::small()
        .with_aggregation(AggregationSpec::tumbling(10_000))
        .with_overload(OverloadSpec::rate_limited(CAPACITY_QPS))
        .build()
}

/// An open-loop query client: fires GETs on a fixed cadence regardless
/// of outstanding responses, and classifies every completion exactly
/// once — served (2xx), shed (503), or failed (other error / timeout).
struct QueryLoad {
    client: WsClient,
    target: NodeId,
    path: String,
    interval: SimDuration,
    start_offset: SimDuration,
    stop_at: SimTime,
    window: (SimTime, SimTime),
    offered: u64,
    served: u64,
    shed: u64,
    failed: u64,
    served_in_window: u64,
    latencies_ns: Vec<u64>,
}

impl QueryLoad {
    fn new(
        target: NodeId,
        path: String,
        interval: SimDuration,
        start_offset: SimDuration,
        stop_at: SimTime,
        window: (SimTime, SimTime),
    ) -> Self {
        QueryLoad {
            // Tag base far above TimerTag(1) so load timers and RPC
            // retry timers cannot collide.
            client: WsClient::new(1_000_000),
            target,
            path,
            interval,
            start_offset,
            stop_at,
            window,
            offered: 0,
            served: 0,
            shed: 0,
            failed: 0,
            served_in_window: 0,
            latencies_ns: Vec::new(),
        }
    }
}

impl Node for QueryLoad {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.start_offset, TimerTag(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match self.client.accept(&pkt) {
            Some(WsClientEvent::Response { id, response }) => {
                let sent_at = self.client.take_sent_at(id);
                if response.is_shed() {
                    self.shed += 1;
                } else if response.is_ok() {
                    self.served += 1;
                    let now = ctx.now();
                    if now >= self.window.0 && now < self.window.1 {
                        self.served_in_window += 1;
                        if let Some(at) = sent_at {
                            self.latencies_ns.push(now.saturating_since(at).as_nanos());
                        }
                    }
                } else {
                    self.failed += 1;
                }
            }
            Some(WsClientEvent::TimedOut { id }) => {
                let _ = self.client.take_sent_at(id);
                self.failed += 1;
            }
            None => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag != TimerTag(1) {
            if let Some(WsClientEvent::TimedOut { id }) = self.client.on_timer(ctx, tag) {
                let _ = self.client.take_sent_at(id);
                self.failed += 1;
            }
            return;
        }
        if ctx.now() >= self.stop_at {
            return;
        }
        self.client
            .request(ctx, self.target, &WsRequest::get(&self.path));
        self.offered += 1;
        ctx.set_timer(self.interval, TimerTag(1));
    }
}

/// Gray-phase watcher: polls `/district/{id}/profile` and records the
/// staleness marker of each answer.
struct StaleWatch {
    client: WsClient,
    master: NodeId,
    path: String,
    stop_at: SimTime,
    offered: u64,
    served: u64,
    shed: u64,
    failed: u64,
    fresh_seen: u64,
    stale_seen: u64,
    stale_with_rollups: u64,
    last_stale: Option<bool>,
}

impl Node for StaleWatch {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(WATCH_INTERVAL, TimerTag(1));
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        let _ = ctx;
        match self.client.accept(&pkt) {
            Some(WsClientEvent::Response { id, response }) => {
                let _ = self.client.take_sent_at(id);
                if response.is_shed() {
                    self.shed += 1;
                } else if response.is_ok() {
                    self.served += 1;
                    let stale = response
                        .body
                        .get("stale")
                        .and_then(dimmer_core::Value::as_bool)
                        .unwrap_or(false);
                    self.last_stale = Some(stale);
                    if stale {
                        self.stale_seen += 1;
                        if response.body.get("rollups").is_some() {
                            self.stale_with_rollups += 1;
                        }
                    } else {
                        self.fresh_seen += 1;
                    }
                } else {
                    self.failed += 1;
                }
            }
            Some(WsClientEvent::TimedOut { id }) => {
                let _ = self.client.take_sent_at(id);
                self.failed += 1;
            }
            None => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag != TimerTag(1) {
            if let Some(WsClientEvent::TimedOut { id }) = self.client.on_timer(ctx, tag) {
                let _ = self.client.take_sent_at(id);
                self.failed += 1;
            }
            return;
        }
        if ctx.now() >= self.stop_at {
            return;
        }
        self.client
            .request(ctx, self.master, &WsRequest::get(&self.path));
        self.offered += 1;
        ctx.set_timer(WATCH_INTERVAL, TimerTag(1));
    }
}

/// Monitoring subscriber: completes the `broker.publish → sub.receive`
/// trace path so the `publish_to_deliver` SLO harvest has flights.
struct Monitor {
    client: PubSubClient,
    received: u64,
}

impl Node for Monitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Raw measurements only: subscribing `district/#` would also
        // receive the aggregator's windowed rollup publications, whose
        // traces share the original flight id — the SLO harvest would
        // then measure publish→window-close→deliver instead of the raw
        // publish→deliver path.
        self.client.subscribe(
            ctx,
            TopicFilter::new("district/+/entity/#").expect("valid filter"),
            QoS::AtMostOnce,
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

struct SweepPoint {
    mult: f64,
    offered: u64,
    served: u64,
    shed: u64,
    failed: u64,
    goodput_qps: f64,
    goodput_frac: f64,
    p99_ms: f64,
    conserved: bool,
}

fn run_sweep_point(
    mult: f64,
    warmup: SimDuration,
    measure: SimDuration,
    drain: SimDuration,
) -> SweepPoint {
    let scenario = scenario();
    let mut sim = Simulator::new(SimConfig::default());
    let deployment = Deployment::build(&mut sim, &scenario);
    let district = scenario.districts[0].district.clone();
    let aggregator = deployment.districts[0]
        .aggregator
        .expect("aggregation enabled");

    let t0 = SimTime::ZERO + warmup;
    let t1 = t0 + measure;
    // Per-target offered rate is `mult × CAPACITY_QPS`, split over
    // CLIENTS_PER_TARGET open-loop clients with smeared starts.
    let interval =
        SimDuration::from_nanos((CLIENTS_PER_TARGET as f64 / (mult * CAPACITY_QPS) * 1e9) as u64);
    let targets = [
        (deployment.master, format!("/district/{district}/profile")),
        (aggregator, "/rollups".to_owned()),
    ];
    let mut loads: Vec<NodeId> = Vec::new();
    for (t, (target, path)) in targets.iter().enumerate() {
        for c in 0..CLIENTS_PER_TARGET {
            loads.push(sim.add_node(
                format!("load-t{t}-c{c}"),
                QueryLoad::new(
                    *target,
                    path.clone(),
                    interval,
                    warmup + SimDuration::from_millis((c as u64 * 137 + t as u64 * 61) % 1000),
                    t1,
                    (t0, t1),
                ),
            ));
        }
    }

    sim.run_for(warmup + measure + drain);

    let (mut offered, mut served, mut shed, mut failed, mut in_window) = (0u64, 0, 0, 0, 0u64);
    let mut latencies: Vec<u64> = Vec::new();
    for &l in &loads {
        let load = sim.node_ref::<QueryLoad>(l).expect("load");
        offered += load.offered;
        served += load.served;
        shed += load.shed;
        failed += load.failed;
        in_window += load.served_in_window;
        latencies.extend_from_slice(&load.latencies_ns);
    }
    latencies.sort_unstable();
    let p99 = latencies
        .get((latencies.len().saturating_mul(99)) / 100)
        .or(latencies.last())
        .copied()
        .unwrap_or(0);
    let measure_s = measure.as_nanos() as f64 / 1e9;
    let capacity = 2.0 * CAPACITY_QPS; // two gated targets
    let goodput = in_window as f64 / measure_s;
    SweepPoint {
        mult,
        offered,
        served,
        shed,
        failed,
        goodput_qps: goodput,
        goodput_frac: goodput / capacity,
        p99_ms: p99 as f64 / 1e6,
        conserved: offered == served + shed + failed,
    }
}

struct GrayResult {
    watch_offered: u64,
    watch_conserved: bool,
    fresh_seen: u64,
    stale_seen: u64,
    stale_with_rollups: u64,
    recovered_fresh: bool,
    breaker_opens: u64,
    stale_rollups_served: u64,
    monitor_received: u64,
    /// SLO state harvested just before the fault: the baseline the
    /// accepted traffic must meet.
    pre_slos: Vec<simnet::telemetry::SloReport>,
    /// SLO state at the horizon — includes the gray window, so the
    /// degradation is visible in the report (not asserted).
    slos: Vec<simnet::telemetry::SloReport>,
    metrics_text: String,
}

fn run_gray_failure() -> GrayResult {
    let scenario = scenario();
    let mut sim = Simulator::new(SimConfig::default());
    install_default_slos(sim.telemetry());
    sim.telemetry().tracer.set_capacity(1 << 18);
    let deployment = Deployment::build(&mut sim, &scenario);
    let district = scenario.districts[0].district.clone();
    let aggregator = deployment.districts[0]
        .aggregator
        .expect("aggregation enabled");
    // The fleet scraper drives the per-district breaker: health probes,
    // one `/rollups` snapshot per district per round, outlier stats.
    sim.node_mut::<MasterNode>(deployment.master)
        .expect("master")
        .enable_fleet_scrape(SCRAPE_INTERVAL);

    let monitor = sim.add_node(
        "monitor",
        Monitor {
            client: PubSubClient::new(deployment.broker, 100),
            received: 0,
        },
    );
    let watch = sim.add_node(
        "stale-watch",
        StaleWatch {
            client: WsClient::new(1_000_000),
            master: deployment.master,
            path: format!("/district/{district}/profile"),
            // Stop polling early enough for every outstanding request
            // to resolve (3 s RPC timeout × 3 attempts) by the horizon.
            stop_at: WATCH_STOP,
            offered: 0,
            served: 0,
            shed: 0,
            failed: 0,
            fresh_seen: 0,
            stale_seen: 0,
            stale_with_rollups: 0,
            last_stale: None,
        },
    );

    let plan = FaultPlan::new().at(
        FAULT_AT,
        Fault::SlowNode {
            node: aggregator,
            factor: SLOW_FACTOR,
            duration: SLOW_FOR,
        },
    );
    let mut runner = ChaosRunner::new(plan);
    // Harvest the SLO baseline right before the fault lands: the flights
    // behind it are the accepted measurement traffic under normal
    // operation. The gray window itself degrades deliveries *through
    // the slow node* by design — that shows up in the final report.
    runner.run_until(&mut sim, FAULT_AT);
    let pre_slos = sim.telemetry().slo_refresh();
    runner.run_until(&mut sim, GRAY_HORIZON);

    let snapshot = sim.telemetry().metrics.snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let slos = sim.telemetry().slo_refresh();
    let w = sim.node_ref::<StaleWatch>(watch).expect("watch");
    GrayResult {
        watch_offered: w.offered,
        watch_conserved: w.offered == w.served + w.shed + w.failed,
        fresh_seen: w.fresh_seen,
        stale_seen: w.stale_seen,
        stale_with_rollups: w.stale_with_rollups,
        recovered_fresh: w.last_stale == Some(false),
        breaker_opens: counter("breaker.open"),
        stale_rollups_served: counter("master.stale_rollups"),
        monitor_received: sim.node_ref::<Monitor>(monitor).expect("monitor").received,
        pre_slos,
        slos,
        metrics_text: metrics_report("E14 gray failure", &snapshot)
            + &dump_trace_if_requested(sim.telemetry())
                .map(|d| format!("trace dumped to {d}\n"))
                .unwrap_or_default(),
    }
}

fn main() {
    let warmup = SimDuration::from_secs(20);
    let measure = SimDuration::from_secs(30);
    // Long enough for every outstanding request to resolve (3 s RPC
    // timeout × 3 attempts), so the conservation check is exact.
    let drain = SimDuration::from_secs(12);

    let mut table = Table::new(
        "E14: overload sweep (2 gated targets, 40 qps drain each)",
        [
            "load_x",
            "offered",
            "served",
            "shed",
            "failed",
            "goodput_qps",
            "goodput_x",
            "p99_ms",
            "conserved",
        ],
    );
    let mut points: Vec<SweepPoint> = Vec::new();
    for mult in [0.5, 1.0, 2.0, 4.0] {
        let p = run_sweep_point(mult, warmup, measure, drain);
        table.row([
            fmt_f64(p.mult, 1),
            p.offered.to_string(),
            p.served.to_string(),
            p.shed.to_string(),
            p.failed.to_string(),
            fmt_f64(p.goodput_qps, 1),
            fmt_f64(p.goodput_frac, 2),
            fmt_f64(p.p99_ms, 2),
            if p.conserved { "exact" } else { "BROKEN" }.to_owned(),
        ]);
        points.push(p);
    }
    println!("{table}");
    println!("# series (csv)\n{}", table.to_csv());

    for p in &points {
        assert!(
            p.conserved,
            "conservation broken at {}x: {} offered != {} served + {} shed + {} failed",
            p.mult, p.offered, p.served, p.shed, p.failed
        );
        assert!(
            p.p99_ms <= ACCEPTED_P99_MS,
            "accepted p99 {:.2} ms blew the {ACCEPTED_P99_MS} ms objective at {}x",
            p.p99_ms,
            p.mult
        );
        if p.mult >= 1.0 {
            // The plateau claim: past capacity, goodput holds at ≥90%
            // of the configured service rate instead of collapsing.
            assert!(
                p.goodput_frac >= 0.9,
                "goodput collapsed at {}x: {:.1} qps is {:.0}% of capacity",
                p.mult,
                p.goodput_qps,
                p.goodput_frac * 100.0
            );
        }
    }

    // Overload must actually have been exercised: the top load point
    // sheds a substantial fraction of what it offers.
    let top = points.last().expect("at least one load point");
    assert!(
        top.shed > top.offered / 4,
        "top load point shed only {} of {} offered — gates never engaged",
        top.shed,
        top.offered
    );

    println!(
        "## E14: gray failure (aggregator {SLOW_FACTOR}x slow for {} s)",
        SLOW_FOR.as_nanos() / 1_000_000_000
    );
    let gray = run_gray_failure();
    assert!(
        gray.watch_conserved,
        "watcher conservation broken over {} requests",
        gray.watch_offered
    );
    assert!(
        gray.stale_seen > 0 && gray.stale_with_rollups > 0,
        "breaker never served stale rollups: {} stale of {} fresh",
        gray.stale_seen,
        gray.fresh_seen
    );
    assert!(
        gray.breaker_opens >= 1,
        "district breaker never opened (stale {} / fresh {})",
        gray.stale_seen,
        gray.fresh_seen
    );
    assert!(
        gray.recovered_fresh,
        "profile endpoint still stale after the fault cleared"
    );
    let e2e = gray
        .pre_slos
        .iter()
        .find(|r| r.name == "publish_to_deliver")
        .expect("default SLO installed");
    assert!(e2e.count > 0, "no traced flights before the gray failure");
    assert!(
        e2e.met,
        "publish_to_deliver missed for accepted traffic: attainment {:.4} over {} flights",
        e2e.attainment, e2e.count
    );
    assert!(
        gray.monitor_received > 0,
        "measurement flow stalled under the gray failure"
    );
    println!(
        "watcher: {} polls, {} fresh, {} stale ({} with rollups), recovered={}",
        gray.watch_offered,
        gray.fresh_seen,
        gray.stale_seen,
        gray.stale_with_rollups,
        gray.recovered_fresh
    );
    println!(
        "breaker opens: {}, stale rollups served: {}, monitor received {} messages",
        gray.breaker_opens, gray.stale_rollups_served, gray.monitor_received
    );
    print!("{}", slo_report("E14 pre-fault baseline", &gray.pre_slos));
    print!("{}", slo_report("E14 full horizon", &gray.slos));
    print!("{}", gray.metrics_text);
}
