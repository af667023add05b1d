//! E10 — chaos and recovery.
//!
//! Claim tested: the distributed integration framework survives the
//! faults a real district deployment sees — broker outages, network
//! partitions, and proxy crashes — without losing buffered QoS 1
//! measurements, and converges back to the full device inventory.
//!
//! A mid-size district (6 buildings, 18 devices, QoS 1 publication)
//! runs under a scripted [`FaultPlan`]:
//!
//! | time | fault |
//! |---|---|
//! | 180 s | broker crashes, restarts after 30 s |
//! | 300 s | two buildings partitioned from the core for 60 s |
//! | 420 s | one Device-proxy crashes, restarts after 150 s (evicted and re-admitted) |
//!
//! The run reports per-phase registry availability, recovery times, the
//! proxy store-and-forward counters, and — from the flight recorder —
//! how many buffered samples were replayed end to end with zero loss.

use bench_support::report::{dump_trace_if_requested, fmt_f64, metrics_report, Table};
use bench_support::{deploy, Subscriber};
use district::scenario::ScenarioConfig;
use master::MasterNode;
use proxy::device_proxy::DeviceProxyNode;
use pubsub::QoS;
use simnet::chaos::{ChaosRunner, Fault, FaultPlan};
use simnet::telemetry::flight::reconstruct;
use simnet::{SimDuration, SimTime};

/// Devices in the 6-building scenario (3 per building).
const DEVICES: usize = 18;
/// Sampling cadence of the measurement loop.
const SLICE: SimDuration = SimDuration::from_secs(5);

const BROKER_CRASH: SimTime = SimTime::from_secs(180);
const BROKER_DOWNTIME: SimDuration = SimDuration::from_secs(30);
const PARTITION_AT: SimTime = SimTime::from_secs(300);
const HEAL_AT: SimTime = SimTime::from_secs(360);
const PROXY_CRASH: SimTime = SimTime::from_secs(420);
const PROXY_DOWNTIME: SimDuration = SimDuration::from_secs(150);
const HORIZON: SimTime = SimTime::from_secs(780);

struct Sample {
    at: SimTime,
    devices: usize,
    received: u64,
    backlog: usize,
}

fn main() {
    let mut config = ScenarioConfig::small().with_buildings(6);
    config.publish_qos = QoS::AtLeastOnce;
    let (mut sim, deployment, _) = deploy(config);
    // The default trace ring is sized for demos; a 13-minute chaos run
    // needs the full history to reconstruct loss afterwards.
    sim.telemetry().tracer.set_capacity(1 << 18);
    // A monitor with keepalive-based session resumption.
    let monitor = sim.add_node(
        "monitor",
        Subscriber::new(
            deployment.broker,
            "district/#",
            QoS::AtLeastOnce,
            Some(SimDuration::from_secs(2)),
        ),
    );

    // Two buildings (their proxies AND their devices, which stay
    // together) are cut off from the core; everything else keeps
    // talking.
    let d0 = &deployment.districts[0];
    let isolated: Vec<_> = d0.device_proxies[12..]
        .iter()
        .chain(&d0.devices[12..])
        .copied()
        .collect();
    let core = vec![deployment.master, deployment.broker, monitor];
    let victim = d0.device_proxies[0];

    let plan = FaultPlan::new()
        .at(
            BROKER_CRASH,
            Fault::CrashFor {
                node: deployment.broker,
                down: BROKER_DOWNTIME,
            },
        )
        .at(
            PARTITION_AT,
            Fault::Partition {
                groups: vec![isolated.clone(), core],
            },
        )
        .at(HEAL_AT, Fault::Heal)
        .at(
            PROXY_CRASH,
            Fault::CrashFor {
                node: victim,
                down: PROXY_DOWNTIME,
            },
        );
    let mut runner = ChaosRunner::new(plan);

    // Drive the run in slices, sampling the registry and the monitor.
    let mut samples: Vec<Sample> = Vec::new();
    let mut t = SimTime::ZERO;
    while t < HORIZON {
        t += SLICE;
        runner.run_until(&mut sim, t);
        let devices = sim
            .node_ref::<MasterNode>(deployment.master)
            .expect("master")
            .ontology()
            .device_count();
        let received = sim
            .node_ref::<Subscriber>(monitor)
            .expect("monitor")
            .received
            .len() as u64;
        let backlog: usize = deployment
            .device_proxies()
            .map(|p| {
                sim.node_ref::<DeviceProxyNode>(p)
                    .expect("proxy")
                    .backlog_len()
            })
            .sum();
        samples.push(Sample {
            at: t,
            devices,
            received,
            backlog,
        });
    }

    // Per-phase registry availability: fraction of slices at full
    // inventory.
    let phases: [(&str, SimTime, SimTime); 5] = [
        ("warmup", SimTime::from_secs(60), BROKER_CRASH),
        ("broker down", BROKER_CRASH, BROKER_CRASH + BROKER_DOWNTIME),
        ("partition", PARTITION_AT, HEAL_AT),
        ("proxy down", PROXY_CRASH, PROXY_CRASH + PROXY_DOWNTIME),
        ("recovered", PROXY_CRASH + PROXY_DOWNTIME, HORIZON),
    ];
    let mut table = Table::new(
        "E10: chaos and recovery (18 devices, QoS 1)",
        ["phase", "slices", "registry_avail", "msgs", "peak_backlog"],
    );
    for (name, from, to) in phases {
        let window: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.at > from && s.at <= to)
            .collect();
        let full = window.iter().filter(|s| s.devices == DEVICES).count();
        let msgs = {
            let first = window.first().map_or(0, |s| s.received);
            let last = window.last().map_or(0, |s| s.received);
            last - first
        };
        let peak = window.iter().map(|s| s.backlog).max().unwrap_or(0);
        table.row([
            name.to_owned(),
            window.len().to_string(),
            fmt_f64(full as f64 / window.len().max(1) as f64, 2),
            msgs.to_string(),
            peak.to_string(),
        ]);
    }
    table.print_with_series();

    // Recovery times.
    let first_after = |from: SimTime, pred: &dyn Fn(&Sample, &Sample) -> bool| {
        samples
            .windows(2)
            .find(|w| w[1].at > from && pred(&w[0], &w[1]))
            .map(|w| w[1].at.since(from).as_secs_f64())
    };
    let broker_up = BROKER_CRASH + BROKER_DOWNTIME;
    if let Some(s) = first_after(broker_up, &|a, b| b.received > a.received) {
        println!("measurement flow resumed {s:.0} s after broker restart");
    }
    if let Some(s) = first_after(HEAL_AT, &|_, b| b.backlog == 0) {
        println!("partition backlog fully replayed {s:.0} s after heal");
    }
    let victim_up = PROXY_CRASH + PROXY_DOWNTIME;
    if let Some(s) = first_after(victim_up, &|_, b| b.devices == DEVICES) {
        println!("registry back to {DEVICES}/{DEVICES} devices {s:.0} s after proxy restart");
    }
    let final_devices = samples.last().map_or(0, |s| s.devices);
    println!(
        "final inventory: {final_devices}/{DEVICES} devices, {} faults injected, monitor saw {} broker restart(s)",
        runner.faults_injected(),
        sim.node_ref::<Subscriber>(monitor)
            .expect("monitor")
            .broker_restarts,
    );

    // Store-and-forward counters across all Device-proxies.
    let (mut buffered, mut replayed, mut shed) = (0u64, 0u64, 0u64);
    for p in deployment.device_proxies() {
        let stats = sim.node_ref::<DeviceProxyNode>(p).expect("proxy").stats();
        buffered += stats.buffered;
        replayed += stats.replayed;
        shed += stats.shed_capacity;
    }
    println!("store-and-forward: {buffered} buffered, {replayed} replayed, {shed} shed");

    // Flight-recorder loss accounting: every trace that was parked in a
    // store-and-forward buffer must still reach a subscriber.
    let telemetry = sim.telemetry();
    let events = telemetry.tracer.events();
    let chaos_events = events
        .iter()
        .filter(|e| e.kind.starts_with("chaos."))
        .count();
    let paths = reconstruct(&events);
    let ingested = paths.iter().filter(|p| p.visits(&["proxy.ingest"])).count();
    let delivered = paths
        .iter()
        .filter(|p| p.visits(&["proxy.ingest", "sub.receive"]))
        .count();
    let buffered_traces: Vec<_> = paths
        .iter()
        .filter(|p| p.visits(&["proxy.buffer"]))
        .collect();
    let buffered_delivered = buffered_traces
        .iter()
        .filter(|p| p.visits(&["sub.receive"]))
        .count();
    println!(
        "flight recorder: {chaos_events} fault events in trace stream, \
         {delivered}/{ingested} ingested samples reached the subscriber"
    );
    println!(
        "buffered samples delivered after replay: {buffered_delivered}/{} (loss {})",
        buffered_traces.len(),
        buffered_traces.len() - buffered_delivered,
    );

    print!(
        "{}",
        metrics_report("E10 chaos", &telemetry.metrics.snapshot())
    );
    if let Some(dest) = dump_trace_if_requested(telemetry) {
        println!("trace dumped to {dest}");
    }
}
