//! `district_ingest`: the paper's Fig. 1(a) write path, every layer
//! working.
//!
//! `Deployment::build_parallel` places 40 districts x 50 buildings x 3
//! devices (6 000 devices of all five protocol families) on 4 broker
//! shards with a 10 s aggregation tier and QoS 1 publication. A sample
//! crosses frame decode, adapter, tskv append + WAL, JSON encode,
//! publish/ack, broker, aggregator windows, rollup publish and a trace
//! span per hop. The benchmark adds one QoS 1 subscriber per district
//! and nothing else. Open loop: every device samples each 2 s.
//!
//! Set-up carries the registration storm: it runs until all proxies
//! have registered with the master, then 10 more simulated seconds.

use dimmer::core::codec::{self, DataFormat};
use dimmer::district::deploy::Deployment;
use dimmer::district::scenario::{
    AggregationSpec, FederationSpec, ProtocolMix, Scenario, ScenarioConfig,
};
use dimmer::protocols::ProtocolKind;
use dimmer::pubsub::{MeasurementTopic, PubSubClient, PubSubEvent, QoS};
use dimmer::simnet::{
    Context, Node, NodeId, Packet, ParallelConfig, ParallelSimulator, SimDuration, TimerTag,
};
use dimmer::streams::AggregatorNode;

use crate::alloc;
use crate::checks;
use crate::expo::scrape_all;
use crate::replay;
use crate::report::{fold_digest, peak_rss_mib, Outcome, RunOpts};
use crate::spans::Spans;
use crate::stats::{percentile_sorted, quartiles, Slices};
use crate::workloads::{
    push_allocs, push_deployment_counts, push_pubsub_counts, push_sim_layers, run_slices, set_up,
    SimCounters, Sliced, COUNTED_SLICES, SETUP_REPEATS,
};

const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(2);
const WINDOW_MILLIS: i64 = 10_000;
const WARMUP: SimDuration = SimDuration::from_secs(10);
/// About 33 000 samples: a second of host time on the reference box.
const SLICE: SimDuration = SimDuration::from_secs(10);
/// Registration must finish within this much simulated time.
const REGISTER_LIMIT_S: u64 = 120;
/// One delivery in `STRIDE` is decoded for its measurement timestamp.
const STRIDE: u64 = 16;
pub const DELIVER_LIMIT_MS: f64 = 250.0;
/// Slices of the differential re-run without the aggregation tier.
const LEG_SLICES: usize = 4;

fn scenario(opts: &RunOpts, aggregation: bool) -> Scenario {
    let (districts, buildings, shards) = if opts.quick { (4, 10, 2) } else { (40, 50, 4) };
    let mut config = ScenarioConfig::small()
        .with_seed(opts.seed)
        .with_districts(districts)
        .with_buildings(buildings)
        .with_devices_per_building(3)
        .with_federation(FederationSpec::sharded(shards));
    config.protocol_mix = ProtocolMix::typical();
    config.sample_interval = SAMPLE_INTERVAL;
    config.publish_qos = QoS::AtLeastOnce;
    if aggregation {
        config = config.with_aggregation(AggregationSpec::tumbling(WINDOW_MILLIS));
    }
    config.build()
}

/// Proxies that register with the master: every device, and per
/// district the GIS and archive proxies, one BIM proxy per building,
/// one SIM proxy per network and the aggregator.
fn expected_registrations(s: &Scenario) -> u64 {
    let per_district = |d: &dimmer::district::scenario::DistrictSpec| {
        2 + d.buildings.len()
            + d.networks.len()
            + d.device_count()
            + usize::from(s.config.aggregation.is_some())
    };
    s.districts.iter().map(per_district).sum::<usize>() as u64
}

/// The benchmark's subscriber: counts every measurement of its
/// district and decodes one in [`STRIDE`] for publish-to-deliver time.
pub struct IngestSub {
    client: PubSubClient,
    district: String,
    epoch_millis: i64,
    pub received: u64,
    /// Arrival minus measurement timestamp, nanoseconds.
    pub latencies_ns: Vec<u64>,
    pub undecodable: u64,
}

impl IngestSub {
    pub fn new(broker: NodeId, district: String, epoch_millis: i64) -> Self {
        IngestSub {
            client: PubSubClient::new(broker, 100),
            district,
            epoch_millis,
            received: 0,
            latencies_ns: Vec::new(),
            undecodable: 0,
        }
    }

    fn record(&mut self, payload: &[u8], now_ns: u64) {
        self.received += 1;
        if !self.received.is_multiple_of(STRIDE) {
            return;
        }
        let measured = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| codec::decode_measurement(text, DataFormat::Json).ok());
        let Some(m) = measured else {
            self.undecodable += 1;
            return;
        };
        let sent_ns =
            (m.timestamp().as_unix_millis() - self.epoch_millis).max(0) as u64 * 1_000_000;
        self.latencies_ns.push(now_ns.saturating_sub(sent_ns));
    }
}

impl Node for IngestSub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let filter = MeasurementTopic::district_filter(&self.district).expect("district id");
        self.client.subscribe(ctx, filter, QoS::AtLeastOnce);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(PubSubEvent::Message { payload, .. }) = self.client.accept(ctx, &pkt) {
            self.record(&payload, ctx.now().as_nanos());
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

struct District {
    sim: ParallelSimulator,
    deployment: Deployment,
    subs: Vec<NodeId>,
    registered: u64,
}

impl District {
    /// Deploys, registers and warms up, each inside its `setup.*` span.
    fn set_up(scenario: &Scenario, spans: &mut Spans) -> District {
        let shards = scenario.config.federation.map_or(1, |f| f.shards);
        let (mut district, _) = spans.scope("setup.deploy", || {
            let mut sim = ParallelSimulator::new(ParallelConfig {
                seed: scenario.config.seed,
                shards,
                threads: 1,
                ..ParallelConfig::default()
            });
            let deployment = Deployment::build_parallel(&mut sim, scenario);
            let subs = deployment
                .districts
                .iter()
                .map(|d| {
                    let name = format!("bench-sub-{}", d.district);
                    let sub = IngestSub::new(
                        d.broker,
                        d.district.as_str().to_owned(),
                        scenario.config.epoch_offset_millis,
                    );
                    sim.add_node_on(d.broker.shard(), name, sub)
                })
                .collect();
            District {
                sim,
                deployment,
                subs,
                registered: 0,
            }
        });
        let expected = expected_registrations(scenario);
        spans.scope("setup.register", || {
            for _ in 0..REGISTER_LIMIT_S {
                district.sim.run_for(SimDuration::from_secs(1));
                district.registered = scrape_all(&district.sim).scrape.get("master.proxies") as u64;
                if district.registered >= expected {
                    break;
                }
            }
        });
        spans.scope("setup.warmup", || district.sim.run_for(WARMUP));
        district
    }

    fn sub(&self, id: NodeId) -> &IngestSub {
        self.sim
            .node_ref::<IngestSub>(id)
            .expect("placed in set_up")
    }

    fn received(&self) -> u64 {
        self.subs.iter().map(|&s| self.sub(s).received).sum()
    }
}

impl Sliced for District {
    fn ops(&self) -> u64 {
        self.received()
    }

    fn advance(&mut self) {
        self.sim.run_for(SLICE);
    }
}

pub fn run(opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::new(opts);
    let n_slices = opts.slices();

    let ((scenario, mut district), setup) = set_up(opts, spans, &mut out, |spans| {
        let (scenario, _) = spans.scope("setup.scenario", || scenario(opts, true));
        let district = District::set_up(&scenario, spans);
        (scenario, district)
    });
    let expected = expected_registrations(&scenario);
    let devices = scenario.device_count() as u64;

    let before = SimCounters::take(&district.sim);
    let (times, work) = run_slices(&mut district, n_slices, "slice", spans, |_, _, _| {});
    let after = SimCounters::take(&district.sim);

    let received_before = district.received();
    let ((), allocs) = alloc::counted(|| {
        spans.scope("counted", || {
            district.sim.run_for(SimDuration::from_nanos(
                SLICE.as_nanos() * COUNTED_SLICES as u64,
            ))
        });
    });
    let counted_msgs = district.received() - received_before;

    let open = spans.begin("harvest");
    let end = SimCounters::take(&district.sim);
    let scraped = after.scrape.since(&before.scrape);
    let msgs: f64 = work.iter().sum();
    let slices = Slices::of(&times);
    let mut latencies: Vec<u64> = Vec::new();
    let mut undecodable = 0;
    for &s in &district.subs {
        latencies.extend_from_slice(&district.sub(s).latencies_ns);
        undecodable += district.sub(s).undecodable;
    }
    let latency_sum = latencies.iter().fold(0u64, |a, &l| a.wrapping_add(l));
    latencies.sort_unstable();
    let mut windows = dimmer::streams::window::WindowStats::default();
    for id in district.deployment.aggregators() {
        let w = district
            .sim
            .node_ref::<AggregatorNode>(id)
            .expect("deployed aggregator")
            .window_stats();
        windows.samples_in += w.samples_in;
        windows.accepted += w.accepted;
        windows.late_dropped += w.late_dropped;
        windows.shed += w.shed;
    }
    spans.end(open);

    let shed = scraped.get("proxy.shed_capacity") + scraped.get("proxy.shed_decode");
    let dropped = scraped.get("pubsub.drop") + scraped.get("pubsub.queue_shed");
    out.attempted = scraped.get("proxy.published") as u64;
    out.failed = (shed + dropped) as u64 + undecodable;
    out.sim_digest = fold_digest(&[
        district.sim.flight_digest(),
        district.sim.metrics().events_processed,
        district.received(),
        latency_sum,
    ]);
    let p50 = percentile_sorted(&latencies, 0.50) as f64 / 1e6;
    let p99 = percentile_sorted(&latencies, 0.99) as f64 / 1e6;
    out.push_rate("msgs_per_wall_s", &work, &times);
    out.push("deliver_p50_ms", p50, latencies.len() as u64);
    out.push("deliver_p99_ms", p99, latencies.len() as u64);
    out.push(
        "wire_bytes_per_op",
        scraped.get("net.wire_bytes_sum") / msgs,
        msgs as u64,
    );
    push_allocs(&mut out, allocs, counted_msgs);
    out.push(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
    );

    let published = end.scrape.get("proxy.published") as u64;
    let delivered = district.received();
    out.check(
        "all_registered",
        checks::all_arrived(expected, district.registered),
        format!(
            "expected {expected}, master.proxies {}",
            district.registered
        ),
    );
    out.check(
        "qos1_conserved",
        checks::qos1_conserved(published, delivered, devices),
        format!("published {published}, delivered {delivered}, devices {devices}"),
    );
    out.check(
        "nothing_dropped",
        checks::all_zero(&[end.scrape.get("pubsub.drop"), shed, undecodable as f64]),
        format!(
            "pubsub.drop {}, proxy shed {shed}, undecodable {undecodable}",
            end.scrape.get("pubsub.drop")
        ),
    );
    out.check(
        "windows_conserved",
        checks::windows_conserved(
            windows.samples_in,
            windows.accepted,
            windows.late_dropped,
            windows.shed,
        ),
        format!("{windows:?}"),
    );
    out.check(
        "deliver_p99_within_limit",
        checks::within_limit(p99, DELIVER_LIMIT_MS),
        format!("p99 {p99:.3} ms, limit {DELIVER_LIMIT_MS} ms"),
    );

    if opts.traced {
        out.push_run_slices(&slices);
        push_sim_layers(&mut out, &before, &after, msgs, &times);
        push_pubsub_counts(&mut out, &scraped);
        push_deployment_counts(&mut out, &scraped, &end.scrape, msgs);
        setup.push_layers(&mut out);
        out.push(
            "master.registrations_per_wall_s",
            expected as f64 / setup.median_s("setup.register"),
            SETUP_REPEATS as u64,
        );
        out.push(
            "rss.bytes_per_building",
            peak_rss_mib() * 1_048_576.0 / scenario.building_count() as f64,
            1,
        );
        // Nothing of the benchmark's is clocked inside a slice here.
        out.push("loadgen.busy_frac", 0.0, 0);
        out.push("trace.overhead_frac", 0.0, 0);

        // Unit costs by replay, then the tier's by leaving it out.
        replay::protocol_decode(&mut out, spans, &scenario);
        replay::ingest_units(&mut out, spans, &scenario, WINDOW_MILLIS);
        let topics: Vec<String> = measurement_topics(&scenario);
        let filters: Vec<String> = scenario
            .districts
            .iter()
            .step_by(scenario.config.federation.map_or(1, |f| f.shards))
            .flat_map(|d| {
                let f = MeasurementTopic::district_filter(d.district.as_str()).expect("id");
                [f.as_str().to_owned(), f.as_str().to_owned()]
            })
            .collect();
        let payload_len =
            (scraped.get("net.wire_bytes_sum") / scraped.get("net.packets_sent")) as usize;
        replay::pubsub_wire(&mut out, spans, &topics, &filters, payload_len.min(512));
        let kernel_ns = replay::kernel_ns_per_event(spans);
        out.push("simnet.kernel_ns_per_event", kernel_ns, 1);
        let append_ns = replay::tskv_head_append_ns(spans);

        let open = spans.begin("differential.no_aggregation");
        let bare_scenario = self::scenario(opts, false);
        let mut bare = District::set_up(&bare_scenario, spans);
        let leg = n_slices.min(LEG_SLICES);
        let (bare_times, bare_work) =
            run_slices(&mut bare, leg, "no_aggregation.slice", spans, |_, _, _| {});
        spans.end(open);
        let ns_per_op = slices.fast_quartile_s * 1e9 / (msgs / n_slices as f64);
        let bare_ns_per_op =
            quartiles(&bare_times)[0] * 1e9 / (bare_work.iter().sum::<f64>() / leg as f64);
        let tier_ns = ns_per_op - bare_ns_per_op;
        out.push("streams.tier_ns_per_sample", tier_ns, leg as u64);

        // The ledger: unit cost x crossings per op, from outside.
        let decode_ns = mean_decode_ns(&out, &scenario);
        let get = |name: &str| out.get(name).unwrap_or(0.0);
        let frames = get("protocols.frames");
        let appends_per_op = get("storage.tskv_appends_per_op");
        let packets_per_op = get("simnet.packets_per_op");
        let attributed = decode_ns * frames / msgs
            + append_ns * appends_per_op
            + get("core.measurement_json_encode_ns")
            + (get("pubsub.wire_encode_ns") + get("pubsub.wire_decode_ns")) * packets_per_op
            + get("pubsub.match_ns") * scraped.get("pubsub.publish") / msgs
            + tier_ns.max(0.0)
            + kernel_ns * get("simnet.events_per_op");
        out.push("ledger.attributed_frac", attributed / ns_per_op, 1);
        out.push("ledger.unattributed_ns_per_op", ns_per_op - attributed, 1);
    }
    out.slice_times_s = times;
    out.push("peak_rss_mb", peak_rss_mib(), 1);
    out
}

/// A sample of the measurement topics the scenario's proxies publish on.
fn measurement_topics(scenario: &Scenario) -> Vec<String> {
    scenario
        .districts
        .iter()
        .flat_map(|d| {
            d.buildings.iter().flat_map(move |b| {
                b.devices.iter().map(move |dev| {
                    MeasurementTopic::new(
                        d.district.as_str(),
                        b.building.as_str(),
                        dev.device.as_str(),
                        dev.quantity.as_str(),
                    )
                    .to_string()
                })
            })
        })
        .step_by(7)
        .take(1000)
        .collect()
}

/// Frame decode cost averaged over the scenario's protocol mix.
fn mean_decode_ns(out: &Outcome, scenario: &Scenario) -> f64 {
    let devices: Vec<ProtocolKind> = scenario
        .districts
        .iter()
        .flat_map(|d| d.buildings.iter().flat_map(|b| b.devices.iter()))
        .map(|dev| dev.protocol)
        .collect();
    replay::FAMILIES
        .iter()
        .map(|(family, metric)| {
            let share =
                devices.iter().filter(|p| *p == family).count() as f64 / devices.len() as f64;
            share * out.get(metric).unwrap_or(0.0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscriber_decodes_one_delivery_in_sixteen() {
        use dimmer::core::{DeviceId, Measurement, QuantityKind, Timestamp};
        let epoch = 1_000_000;
        let mut sub = IngestSub::new(NodeId::from_index(0), "d0".to_owned(), epoch);
        let m = Measurement::new(
            DeviceId::new("d0-b0-dev0").unwrap(),
            QuantityKind::Temperature,
            21.5,
            QuantityKind::Temperature.canonical_unit(),
            Timestamp::from_unix_millis(epoch + 2_000),
        );
        let payload = codec::encode_measurement(&m, DataFormat::Json).into_bytes();
        for _ in 0..32 {
            sub.record(&payload, 2_001_500_000);
        }
        sub.record(b"not json", 0);
        assert_eq!(sub.received, 33);
        assert_eq!(sub.latencies_ns, vec![1_500_000, 1_500_000]);
        assert_eq!(sub.undecodable, 0, "the bad payload was not on the stride");
        for _ in 0..15 {
            sub.record(b"not json", 0);
        }
        assert_eq!(sub.undecodable, 1);
    }

    #[test]
    fn expected_registrations_counts_every_proxy() {
        let opts = RunOpts {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            traced: false,
            quick: true,
        };
        // 4 districts x (2 + 10 BIM + 1 SIM + 30 devices + 1 aggregator)
        assert_eq!(expected_registrations(&scenario(&opts, true)), 4 * 44);
        assert_eq!(expected_registrations(&scenario(&opts, false)), 4 * 43);
    }
}
