//! The four workloads and what the three simulator ones share.

pub mod area_query;
pub mod city_fanout;
pub mod district_ingest;
pub mod history_store;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

use dimmer::simnet::{ParallelSimulator, ParallelStats};

use crate::alloc::{self, AllocCount};
use crate::catalogue;
use crate::expo::{scrape_all, Scrape};
use crate::report::{Outcome, RunOpts};
use crate::spans::Spans;
use crate::stats::quartiles;

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Slices after the timed ones that are counted (allocations), not timed.
pub const COUNTED_SLICES: usize = 2;
/// Slices a traced run takes with every clock off before the clocked
/// ones: the reference for `trace.overhead_frac`.
pub const UNCLOCKED_SLICES: usize = 4;

/// Whether [`crate::timed::Timed`] wrappers and the load generator
/// clock their work. Off outside the clocked slices of a traced run, so
/// one binary serves both runs and warm-up is never clocked.
static CLOCKED: AtomicBool = AtomicBool::new(false);

pub fn set_clocked(on: bool) {
    CLOCKED.store(on, Relaxed);
}

#[inline]
pub fn clocked() -> bool {
    CLOCKED.load(Relaxed)
}

/// Runs the named workload.
pub fn run(opts: &RunOpts, spans: &mut Spans) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        catalogue::CITY_FANOUT => Ok(city_fanout::run(opts, spans)),
        catalogue::DISTRICT_INGEST => Ok(district_ingest::run(opts, spans)),
        catalogue::AREA_QUERY => Ok(area_query::run(opts, spans)),
        catalogue::HISTORY_STORE => Ok(history_store::run(opts, spans)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// What [`set_up`] measured: the allocations of one set-up (counted in
/// traced runs only) and the median seconds of every span the set-ups
/// recorded.
pub struct SetUpStats {
    allocs_per_setup: f64,
    phase_s: BTreeMap<String, f64>,
}

impl SetUpStats {
    /// Median seconds of the set-up span `name` (`setup.deploy`, ...).
    pub fn median_s(&self, name: &str) -> f64 {
        self.phase_s.get(name).copied().unwrap_or(0.0)
    }

    /// The per-layer numbers every traced run takes from its set-up;
    /// phases a workload does not have are skipped.
    pub fn push_layers(&self, out: &mut Outcome) {
        let n = SETUP_REPEATS as u64;
        for (span, metric) in [
            ("setup.scenario", "district.scenario_build_s"),
            ("setup.deploy", "district.deploy_s"),
            ("setup.register", "master.register_wall_s"),
        ] {
            if let Some(&s) = self.phase_s.get(span) {
                out.push(metric, s, n);
            }
        }
        out.push("alloc.count_setup", self.allocs_per_setup, n);
    }
}

/// Sets the workload up [`SETUP_REPEATS`] times, each inside a `setup`
/// span, dropping every instance but the last (which it returns), and
/// reports `setup_s`.
/// Phase medians are taken from the spans `build` records, at once, so
/// a later differential set-up cannot leak into them.
pub fn set_up<T>(
    opts: &RunOpts,
    spans: &mut Spans,
    out: &mut Outcome,
    mut build: impl FnMut(&mut Spans) -> T,
) -> (T, SetUpStats) {
    let first_span = spans.spans.len();
    let mut world = None;
    let ((), allocs) = alloc::counted_if(opts.traced, || {
        for _ in 0..SETUP_REPEATS {
            drop(world.take());
            let open = spans.begin("setup");
            world = Some(build(spans));
            spans.end(open);
        }
    });
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for span in &spans.spans[first_span..] {
        let seconds = span.end_s - span.start_s;
        by_name.entry(span.name.clone()).or_default().push(seconds);
    }
    let phase_s: BTreeMap<String, f64> = by_name
        .into_iter()
        .map(|(name, seconds)| (name, quartiles(&seconds)[1]))
        .collect();
    out.push("setup_s", phase_s["setup"], SETUP_REPEATS as u64);
    let stats = SetUpStats {
        allocs_per_setup: allocs.calls as f64 / SETUP_REPEATS as f64,
        phase_s,
    };
    (world.expect("SETUP_REPEATS is positive"), stats)
}

/// A placed simulation the harness runs in slices of equal work.
pub trait Sliced {
    /// Ops completed so far (deliveries, snapshots).
    fn ops(&self) -> u64;
    /// Advances by one slice: a fixed length of simulated time.
    fn advance(&mut self);
}

/// Runs `n` slices of `world`, each inside a `<label>.<i>` span, and
/// returns the wall seconds and the ops of each; `after` runs outside
/// the clock. The one definition of a slice for all three simulator
/// workloads.
pub fn run_slices<W: Sliced>(
    world: &mut W,
    n: usize,
    label: &str,
    spans: &mut Spans,
    mut after: impl FnMut(usize, &W, &mut Spans),
) -> (Vec<f64>, Vec<f64>) {
    let (mut times, mut work) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut before = world.ops();
    for i in 0..n {
        let ((), wall) = spans.scope(format!("{label}.{i}"), || world.advance());
        let now = world.ops();
        times.push(wall);
        work.push((now - before) as f64);
        before = now;
        after(i, world, spans);
    }
    (times, work)
}

/// `allocs_per_op` from the counted slices and, traced,
/// `alloc.bytes_per_op`.
pub fn push_allocs(out: &mut Outcome, allocs: AllocCount, ops: u64) {
    let ops = ops.max(1);
    out.push("allocs_per_op", allocs.calls as f64 / ops as f64, ops);
    if out.opts.traced {
        out.push("alloc.bytes_per_op", allocs.bytes as f64 / ops as f64, ops);
    }
}

/// Counters of a simulation read from outside at one instant: the
/// merged exposition of every shard, the network totals, the barrier
/// protocol's counters and the trace rings' fill.
pub struct SimCounters {
    pub scrape: Scrape,
    pub render_s: f64,
    pub expo_bytes: usize,
    pub events: u64,
    pub packets: u64,
    pub parallel: ParallelStats,
    pub trace_events: u64,
    pub trace_dropped: u64,
}

impl SimCounters {
    pub fn take(sim: &ParallelSimulator) -> SimCounters {
        let fleet = scrape_all(sim);
        let net = sim.metrics();
        let (mut len, mut dropped) = (0, 0);
        for s in 0..sim.shard_count() {
            let tracer = &sim.shard_telemetry(s).tracer;
            len += tracer.len() as u64;
            dropped += tracer.dropped();
        }
        SimCounters {
            scrape: fleet.scrape,
            render_s: fleet.render_s,
            expo_bytes: fleet.bytes,
            events: net.events_processed,
            packets: net.packets_sent,
            parallel: sim.stats(),
            trace_events: len + dropped,
            trace_dropped: dropped,
        }
    }
}

/// The `simnet.*` counts and rates and the `telemetry.*` numbers every
/// simulator workload derives the same way from two [`SimCounters`]
/// around its timed region. `ops` is the region's op count, `times_s`
/// its slice wall times.
pub fn push_sim_layers(
    out: &mut Outcome,
    before: &SimCounters,
    after: &SimCounters,
    ops: f64,
    times_s: &[f64],
) {
    let d = after.scrape.since(&before.scrape);
    let n = ops as u64;
    let events = (after.events - before.events) as f64;
    out.push("simnet.events_per_op", events / ops, n);
    out.push(
        "simnet.packets_per_op",
        (after.packets - before.packets) as f64 / ops,
        n,
    );
    out.push("simnet.timers_per_op", d.get("net.timers_fired") / ops, n);
    out.push(
        "simnet.wire_bytes_per_op",
        d.get("net.wire_bytes_sum") / ops,
        n,
    );
    out.push(
        "simnet.arena_capacity",
        after.scrape.get("sim.event_arena_capacity"),
        1,
    );
    out.push(
        "simnet.nic_wait_p99_ms",
        after.scrape.get("net_nic_wait_ns{quantile=\"0.99\"}") / 1e6,
        after.scrape.get("net.nic_wait_ns_count") as u64,
    );
    let (p0, p1) = (before.parallel, after.parallel);
    out.push(
        "simnet.parallel.windows",
        (p1.windows - p0.windows) as f64,
        1,
    );
    out.push(
        "simnet.parallel.cross_packets",
        (p1.cross_packets - p0.cross_packets) as f64,
        1,
    );
    out.push(
        "simnet.parallel.mailbox_max",
        p1.max_mailbox_depth as f64,
        1,
    );
    let per_slice = vec![events / times_s.len() as f64; times_s.len()];
    out.push_rate("simnet.events_per_wall_s", &per_slice, times_s);

    out.push(
        "telemetry.trace_events_per_op",
        (after.trace_events - before.trace_events) as f64 / ops,
        n,
    );
    out.push("telemetry.trace_dropped", after.trace_dropped as f64, 1);
    out.push("telemetry.metric_series", after.scrape.series() as f64, 1);
    out.push("telemetry.expo_render_ms", after.render_s * 1e3, 1);
    out.push("telemetry.expo_bytes", after.expo_bytes as f64, 1);
}

/// The `pubsub.*` counts between two scrapes.
pub fn push_pubsub_counts(out: &mut Outcome, d: &Scrape) {
    let publishes = d.get("pubsub.publish");
    let batches = d.get("pubsub.bridge.batch_sent");
    out.push("pubsub.publishes", publishes, 1);
    out.push("pubsub.deliveries", d.get("pubsub.deliver"), 1);
    out.push(
        "pubsub.fanout_ratio",
        d.get("pubsub.deliver") / publishes.max(1.0),
        publishes as u64,
    );
    out.push(
        "pubsub.bridge_frames_per_batch",
        d.get("pubsub.bridge.batch_frames_sum") / batches.max(1.0),
        batches as u64,
    );
    out.push("pubsub.dropped", d.get("pubsub.drop"), 1);
    out.push("pubsub.retries", d.get("pubsub.retry"), 1);
}

/// The counts a deployed scenario's own nodes expose (`protocols`,
/// `proxy`, `storage`, `streams`, `master`): `d` is the exposition
/// delta over the timed region, `total` the scrape at its end.
pub fn push_deployment_counts(out: &mut Outcome, d: &Scrape, total: &Scrape, ops: f64) {
    for (metric, series) in [
        ("protocols.frames", "device.samples"),
        ("proxy.samples_ingested", "proxy.samples_ingested"),
        ("proxy.published", "proxy.published"),
        ("proxy.decode_errors", "proxy.decode_errors"),
        ("proxy.ws_requests", "proxy.ws_requests"),
        ("streams.samples_in", "streams.samples_in"),
        ("streams.windows_closed", "streams.windows_closed"),
        ("streams.late_dropped", "streams.late_dropped"),
        ("streams.shed", "streams.shed"),
        ("streams.rollups_published", "streams.rollups_published"),
        ("master.requests", "master.requests"),
        // Every admission gate counts under one name; the master's is
        // not separable from the proxies' and aggregators' from outside.
        ("master.shed", "admission.shed"),
    ] {
        out.push(metric, d.get(series), 1);
    }
    out.push(
        "proxy.shed",
        d.get("proxy.shed_capacity") + d.get("proxy.shed_decode"),
        1,
    );
    out.push(
        "storage.tskv_appends_per_op",
        d.get("tskv.append") / ops,
        ops as u64,
    );
    out.push("master.registrations", total.get("master.registrations"), 1);
}
