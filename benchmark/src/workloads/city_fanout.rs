//! `city_fanout`: the ROADMAP's city, with only `simnet` and `pubsub`
//! doing work.
//!
//! 100 000 buildings in 1 000 districts on 16 federated broker shards,
//! one simulation shard each. Every building is a [`LeanPub`] (64-byte
//! binary payload, 2 s period, QoS 0, untraced); every district has one
//! `district/dN/#` [`LeanSub`] on its home shard, and every 17th
//! district a second one on the *next* shard, so about 6 % of publishes
//! also cross a federation bridge in batches — the only cross-shard
//! traffic, and what the 2-thread determinism leg exercises. Open loop:
//! 50 000 publishes per simulated second whatever the host does.

use dimmer::district::scenario::FederationSpec;
use dimmer::pubsub::{BrokerNode, FederationConfig, ShardMap, Topic};
use dimmer::simnet::{Node, NodeId, ParallelConfig, ParallelSimulator, SimDuration, SimTime};

use crate::alloc;
use crate::checks;
use crate::json::Json;
use crate::loadgen::{Deliveries, LeanPub, LeanSub, Window, PAYLOAD_LEN};
use crate::replay;
use crate::report::{fold_digest, peak_rss_mib, Outcome, RunOpts};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{percentile_sorted, quartiles, Slices};
use crate::timed::{self, CallbackCost, Timed};
use crate::workloads::{
    push_allocs, push_pubsub_counts, push_sim_layers, run_slices, set_clocked, set_up, SimCounters,
    Sliced, COUNTED_SLICES, UNCLOCKED_SLICES,
};

const BUILDINGS_PER_DISTRICT: usize = 100;
const PERIOD: SimDuration = SimDuration::from_secs(2);
const WARMUP: SimDuration = SimDuration::from_secs(5);
/// 250 000 publishes: about a second of host time on the reference box.
const SLICE: SimDuration = SimDuration::from_secs(5);
/// Every `MONITOR_STRIDE`-th district is also watched from the next shard.
const MONITOR_STRIDE: usize = 17;
/// The repository's publish-to-deliver objective at p99.
pub const DELIVER_LIMIT_MS: f64 = 250.0;
/// Slices of the 2-thread leg; its checksum is compared with the main
/// run's after the same number of slices.
const LEG_SLICES: usize = 4;
const CLASSES: [&str; 3] = ["broker", "publisher", "subscriber"];

struct Scale {
    buildings: usize,
    shards: usize,
}

impl Scale {
    fn of(opts: &RunOpts) -> Scale {
        if opts.quick {
            Scale {
                buildings: 2_000,
                shards: 4,
            }
        } else {
            Scale {
                buildings: 100_000,
                shards: 16,
            }
        }
    }

    fn districts(&self) -> usize {
        self.buildings.div_ceil(BUILDINGS_PER_DISTRICT)
    }
}

fn slices_dur(n: usize) -> SimDuration {
    SimDuration::from_nanos(SLICE.as_nanos() * n as u64)
}

/// A placed city. Nodes are `Timed<_>` when `wrapped`.
struct City {
    sim: ParallelSimulator,
    brokers: Vec<NodeId>,
    pubs: Vec<NodeId>,
    /// Home subscribers, then the cross-shard monitors.
    subs: Vec<NodeId>,
    /// Publishers in monitored districts: their publishes are due twice.
    monitored_pubs: Vec<NodeId>,
    wrapped: bool,
}

fn place<N: Node>(
    sim: &mut ParallelSimulator,
    shard: usize,
    name: String,
    node: N,
    wrapped: bool,
) -> NodeId {
    if wrapped {
        sim.add_node_on(shard, name, Timed::new(node))
    } else {
        sim.add_node_on(shard, name, node)
    }
}

impl City {
    fn build(scale: &Scale, seed: u64, threads: usize, window: Window, wrapped: bool) -> City {
        let shards = scale.shards;
        let districts = scale.districts();
        let mut sim = ParallelSimulator::new(ParallelConfig {
            seed,
            shards,
            threads,
            ..ParallelConfig::default()
        });
        let brokers: Vec<NodeId> = (0..shards)
            .map(|i| {
                let broker = BrokerNode::with_label(format!("b{i}"));
                place(&mut sim, i, format!("broker-{i}"), broker, wrapped)
            })
            .collect();
        let mut map = ShardMap::new(shards);
        for d in 0..districts {
            map.assign(format!("d{d}"), d % shards);
        }
        for (i, &id) in brokers.iter().enumerate() {
            let config = FederationConfig {
                index: i,
                brokers: brokers.clone(),
                shard: map.clone(),
                batch: FederationSpec::sharded(shards).batch_policy(),
            };
            if wrapped {
                let node = sim.node_mut::<Timed<BrokerNode>>(id);
                node.expect("placed above").inner.federate(config);
            } else {
                let node = sim.node_mut::<BrokerNode>(id);
                node.expect("placed above").federate(config);
            }
        }

        let mut subs = Vec::new();
        for d in 0..districts {
            let home = d % shards;
            let sub = LeanSub::new(brokers[home], format!("district/d{d}/#"), window);
            subs.push(place(&mut sim, home, format!("sub-d{d}"), sub, wrapped));
        }
        for d in (0..districts).step_by(MONITOR_STRIDE) {
            let away = (d + 1) % shards;
            let sub = LeanSub::new(brokers[away], format!("district/d{d}/#"), window);
            subs.push(place(&mut sim, away, format!("monitor-d{d}"), sub, wrapped));
        }

        let mut phases = Rng::new(seed, 1);
        let mut pubs = Vec::with_capacity(scale.buildings);
        let mut monitored_pubs = Vec::new();
        for b in 0..scale.buildings {
            let d = b / BUILDINGS_PER_DISTRICT;
            let home = d % shards;
            let topic = Topic::new(topic_of(b)).expect("generated topic is grammatical");
            let phase = SimDuration::from_nanos(phases.below(PERIOD.as_nanos()));
            let node = LeanPub::new(brokers[home], topic, PERIOD, phase, window);
            let id = place(&mut sim, home, format!("pub-b{b}"), node, wrapped);
            pubs.push(id);
            if d.is_multiple_of(MONITOR_STRIDE) {
                monitored_pubs.push(id);
            }
        }
        City {
            sim,
            brokers,
            pubs,
            subs,
            monitored_pubs,
            wrapped,
        }
    }

    /// The node placed as `id`, looked through its wrapper if it has one.
    fn node<N: Node>(&self, id: NodeId) -> &N {
        let node = if self.wrapped {
            self.sim.node_ref::<Timed<N>>(id).map(|timed| &timed.inner)
        } else {
            self.sim.node_ref::<N>(id)
        };
        node.expect("placed by City::build as this type")
    }

    fn sub(&self, id: NodeId) -> &LeanSub {
        self.node(id)
    }

    fn received(&self) -> u64 {
        self.subs.iter().map(|&s| self.sub(s).seen.received).sum()
    }

    fn checksum(&self) -> u64 {
        self.subs
            .iter()
            .fold(0, |acc, &s| acc.wrapping_add(self.sub(s).seen.checksum))
    }

    fn sent_in_window(&self, pubs: &[NodeId]) -> u64 {
        pubs.iter()
            .map(|&p| self.node::<LeanPub>(p).sent_in_window)
            .sum()
    }

    /// Callback cost summed per node class ([`CLASSES`] order); zero
    /// unless `wrapped`.
    fn class_costs(&self) -> [CallbackCost; 3] {
        let mut costs = [CallbackCost::default(); 3];
        if !self.wrapped {
            return costs;
        }
        for &b in &self.brokers {
            costs[0] += self.sim.node_ref::<Timed<BrokerNode>>(b).expect("b").cost;
        }
        for &p in &self.pubs {
            costs[1] += self.sim.node_ref::<Timed<LeanPub>>(p).expect("p").cost;
        }
        for &s in &self.subs {
            costs[2] += self.sim.node_ref::<Timed<LeanSub>>(s).expect("s").cost;
        }
        costs
    }
}

impl Sliced for City {
    fn ops(&self) -> u64 {
        self.received()
    }

    fn advance(&mut self) {
        self.sim.run_for(SLICE);
    }
}

fn topic_of(building: usize) -> String {
    let d = building / BUILDINGS_PER_DISTRICT;
    format!("district/d{d}/building/b{building}/active_power")
}

/// One trace-file row per node class and callback with calls in the slice.
fn push_cost_rows(
    spans: &mut Spans,
    slice: usize,
    now: &[CallbackCost; 3],
    prev: &[CallbackCost; 3],
) {
    for (class, (a, b)) in CLASSES.iter().zip(now.iter().zip(prev)) {
        let d = *a - *b;
        for (k, callback) in timed::CALLBACKS.iter().enumerate() {
            if d.calls[k] > 0 {
                spans.rows.push(Json::obj([
                    ("slice", Json::from(slice as u64)),
                    ("class", Json::from(*class)),
                    ("callback", Json::from(*callback)),
                    ("calls", Json::from(d.calls[k])),
                    ("ns", Json::from(d.ns[k])),
                ]));
            }
        }
    }
}

pub fn run(opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let scale = Scale::of(opts);
    let mut out = Outcome::new(opts);
    let n_slices = opts.slices();
    let unclocked = if opts.traced { UNCLOCKED_SLICES } else { 0 };
    let start = SimTime::ZERO + WARMUP + slices_dur(unclocked);
    let window = Window {
        start,
        end: start + slices_dur(n_slices),
    };

    set_clocked(false);
    let (mut city, setup) = set_up(opts, spans, &mut out, |spans| {
        let (mut city, _) = spans.scope("setup.deploy", || {
            City::build(&scale, opts.seed, 1, window, opts.traced)
        });
        spans.scope("setup.warmup", || city.sim.run_for(WARMUP));
        city
    });

    let (base_times, _) = run_slices(&mut city, unclocked, "unclocked", spans, |_, _, _| {});
    set_clocked(opts.traced);
    let before = SimCounters::take(&city.sim);
    let costs0 = city.class_costs();
    let mut checksums = Vec::with_capacity(n_slices);
    let mut prev = costs0;
    let (times, work) = run_slices(&mut city, n_slices, "slice", spans, |i, city, spans| {
        checksums.push(city.checksum());
        if city.wrapped {
            let now = city.class_costs();
            push_cost_rows(spans, i, &now, &prev);
            prev = now;
        }
    });
    set_clocked(false);
    let after = SimCounters::take(&city.sim);
    let costs1 = city.class_costs();

    // Counted, not timed: exact allocations per delivered message.
    let received_before = city.received();
    let ((), allocs) = alloc::counted(|| {
        spans.scope("counted", || city.sim.run_for(slices_dur(COUNTED_SLICES)));
    });
    let counted_msgs = city.received() - received_before;

    let open = spans.begin("harvest");
    let mut seen = Deliveries::default();
    for &s in &city.subs {
        seen.absorb(&city.sub(s).seen);
    }
    seen.latencies_ns.sort_unstable();
    let delivered = seen.latencies_ns.len() as u64;
    let due = city.sent_in_window(&city.pubs) + city.sent_in_window(&city.monitored_pubs);
    let slices = Slices::of(&times);
    let msgs: f64 = work.iter().sum();
    let scraped = after.scrape.since(&before.scrape);
    spans.end(open);

    out.attempted = due;
    out.failed = due.saturating_sub(delivered) + seen.malformed;
    out.sim_digest = fold_digest(&[
        city.sim.flight_digest(),
        seen.checksum,
        city.sim.metrics().events_processed,
    ]);
    let p50 = f64::from(percentile_sorted(&seen.latencies_ns, 0.50)) / 1e6;
    let p99 = f64::from(percentile_sorted(&seen.latencies_ns, 0.99)) / 1e6;
    out.push_rate("msgs_per_wall_s", &work, &times);
    out.push("deliver_p50_ms", p50, delivered);
    out.push("deliver_p99_ms", p99, delivered);
    out.push(
        "wire_bytes_per_op",
        scraped.get("net.wire_bytes_sum") / msgs,
        msgs as u64,
    );
    push_allocs(&mut out, allocs, counted_msgs);
    out.push("failed_frac", out.failed as f64 / due.max(1) as f64, due);

    out.check(
        "delivered_equals_published",
        checks::delivered_equals_published(due, delivered, seen.malformed),
        format!(
            "due {due}, delivered {delivered}, malformed {}",
            seen.malformed
        ),
    );
    out.check(
        "deliver_p99_within_limit",
        checks::within_limit(p99, DELIVER_LIMIT_MS),
        format!("p99 {p99:.3} ms, limit {DELIVER_LIMIT_MS} ms"),
    );
    let lost = [scraped.get("pubsub.drop"), scraped.get("net.packets_lost")];
    out.check(
        "nothing_dropped",
        checks::all_zero(&lost),
        format!("pubsub.drop {}, net.packets_lost {}", lost[0], lost[1]),
    );

    if opts.traced {
        let wall_ns = slices.total_s * 1e9;
        let class: Vec<CallbackCost> = costs1.iter().zip(costs0).map(|(a, b)| *a - b).collect();
        let callbacks_ns: u64 = class.iter().map(CallbackCost::total_ns).sum();
        let events = after.events - before.events;
        let kernel_ns = (wall_ns - callbacks_ns as f64).max(0.0);
        out.push_run_slices(&slices);
        push_sim_layers(&mut out, &before, &after, msgs, &times);
        out.push(
            "simnet.kernel_ns_per_event",
            kernel_ns / events as f64,
            events,
        );
        push_pubsub_counts(&mut out, &scraped);
        let publishes = scraped.get("pubsub.publish").max(1.0);
        out.push(
            "pubsub.broker_ns_per_publish",
            class[0].total_ns() as f64 / publishes,
            publishes as u64,
        );
        // The generator's own stamping and stamp reading sits inside
        // the publisher and subscriber spans. It is a few nanoseconds
        // per call, less than a clock read, so its unit cost comes
        // from a replay; the rest of each span is the client's.
        let (stamp_ns, record_ns) = replay::loadgen_units(spans, window);
        out.push(
            "pubsub.client_publish_ns",
            class[1].ns_per_call(timed::TIMER) - stamp_ns,
            class[1].calls[timed::TIMER],
        );
        out.push(
            "pubsub.client_deliver_ns",
            class[2].ns_per_call(timed::PACKET) - record_ns,
            class[2].calls[timed::PACKET],
        );
        setup.push_layers(&mut out);
        out.push(
            "rss.bytes_per_building",
            peak_rss_mib() * 1_048_576.0 / scale.buildings as f64,
            1,
        );
        let own_ns = stamp_ns * class[1].calls[timed::TIMER] as f64
            + record_ns * class[2].calls[timed::PACKET] as f64;
        let busy = own_ns / wall_ns;
        out.push("loadgen.busy_frac", busy, 1);
        out.check(
            "loadgen_is_lean",
            checks::within_limit(busy, checks::LOADGEN_BUSY_LIMIT),
            format!("busy_frac {busy:.4}, limit {}", checks::LOADGEN_BUSY_LIMIT),
        );
        out.push(
            "trace.overhead_frac",
            slices.fast_quartile_s / quartiles(&base_times)[0] - 1.0,
            base_times.len() as u64,
        );
        // Every nanosecond of the run is inside a wrapped callback or,
        // by definition, the kernel's: attributed in full by construction.
        out.push(
            "ledger.attributed_frac",
            (callbacks_ns as f64 + kernel_ns) / wall_ns,
            1,
        );
        out.push("ledger.unattributed_ns_per_op", 0.0, 1);

        let topics: Vec<String> = (0..scale.buildings)
            .step_by(scale.buildings / 1000)
            .map(topic_of)
            .collect();
        let filters: Vec<String> = (0..scale.districts())
            .step_by(scale.shards)
            .map(|d| format!("district/d{d}/#"))
            .collect();
        replay::pubsub_wire(&mut out, spans, &topics, &filters, PAYLOAD_LEN);

        // The 2-thread leg: same seed, same schedule, two OS threads.
        let leg = n_slices.min(LEG_SLICES);
        let open = spans.begin("differential.two_threads");
        let mut twin = City::build(&scale, opts.seed, 2, window, true);
        twin.sim.run_for(WARMUP + slices_dur(unclocked));
        let stall0 = twin.sim.stats().barrier_stall_ns;
        let (leg_times, _) = run_slices(&mut twin, leg, "two_threads.slice", spans, |_, _, _| {});
        let stall_s = (twin.sim.stats().barrier_stall_ns - stall0) as f64 / 1e9;
        spans.end(open);
        let wall_2t: f64 = leg_times.iter().sum();
        let wall_1t: f64 = times[..leg].iter().sum();
        out.push("simnet.parallel.wall_2t_s", wall_2t, leg as u64);
        out.push("simnet.parallel.speedup_2t", wall_1t / wall_2t, leg as u64);
        out.push(
            "simnet.parallel.stall_frac_2t",
            stall_s / wall_2t,
            leg as u64,
        );
        let (one, two) = (checksums[leg - 1], twin.checksum());
        out.check(
            "checksum_equal_at_1_and_2_threads",
            checks::checksums_equal(one, two),
            format!("after {leg} slices: 1 thread {one:#018x}, 2 threads {two:#018x}"),
        );
    }
    out.slice_times_s = times;
    out.push("peak_rss_mb", peak_rss_mib(), 1);
    out
}
