//! Answer-level oracles: the paper's alternative paths to one area's
//! data must agree on the answer.
//!
//! * redirect JSON == relay, and redirect JSON == redirect XML: entity
//!   maps, and measurements as multisets sorted by (device, quantity,
//!   timestamp), since answers arrive in different orders from different
//!   network positions or body sizes;
//! * redirect == centralized: entity ids, and models byte for byte;
//! * one stored series read from the head == from L0 segments == from
//!   compacted partitions == after a crash and WAL recovery, bit for
//!   bit, through every `storage::tskv` read call.
//!
//! Every scenario is queried at one instant after the same warm-up. The
//! simulations and the stored series seed from `DIMMER_SEED` (default
//! 0), so `scripts/ci.sh` can sweep the oracles across seeds.

use std::collections::BTreeMap;

use dimmer::core::codec::DataFormat;
use dimmer::core::{json, Measurement, MeasurementBatch, Value};
use dimmer::district::baseline::CentralDeployment;
use dimmer::district::client::{AreaSnapshot, ClientConfig, ClientNode};
use dimmer::district::deploy::Deployment;
use dimmer::district::live::LiveMonitorNode;
use dimmer::district::relay::RelayNode;
use dimmer::district::scenario::{Scenario, ScenarioConfig};
use dimmer::proxy::webservice::{WsClient, WsClientEvent, WsRequest};
use dimmer::pubsub::QoS;
use dimmer::simnet::rng::DeterministicRng;
use dimmer::simnet::{
    Context, Node, NodeId, Packet, SimConfig, SimDuration, SimTime, Simulator, TimerTag,
};
use dimmer::storage::tskv::{
    Aggregate, SeriesId, TimeSeriesStore, TskvConfig, PARTITION_MILLIS, ROLLUP_LEVELS,
};

const WARM_UP: SimDuration = SimDuration::from_secs(600);
const ANSWER_WITHIN: SimDuration = SimDuration::from_secs(60);

/// `DIMMER_SEED` (default 0).
fn seed() -> u64 {
    std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A simulator seeded from `DIMMER_SEED`.
fn seeded_sim() -> Simulator {
    Simulator::new(SimConfig { seed: seed() })
}

/// Sends one request to a server at start and keeps the body of its
/// successful response.
struct OneShot(WsClient, NodeId, WsRequest, Option<Value>);

impl Node for OneShot {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.0.request(ctx, self.1, &self.2);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(WsClientEvent::Response { response, .. }) = self.0.accept(&pkt) {
            assert!(response.is_ok(), "{response:?}");
            self.3 = Some(response.body);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.0.on_timer(ctx, tag);
    }
}

/// District 0's whole area, answered four ways.
struct Answers {
    json: AreaSnapshot,
    xml: AreaSnapshot,
    relay: Value,
    central: Value,
}

/// The answers on `small()` and on 10 buildings × 2 devices.
fn answers() -> [Answers; 2] {
    let ten_by_two = ScenarioConfig::small().with_buildings(10);
    [
        ScenarioConfig::small(),
        ten_by_two.with_devices_per_building(2),
    ]
    .map(answer)
}

/// Deploys `config` twice, distributed and centralized, and after the
/// same warm-up queries both at one instant: a JSON client, an XML
/// client and a relay probe, and a probe of the central server.
fn answer(config: ScenarioConfig) -> Answers {
    let scenario = config.build();
    let district = &scenario.districts[0];
    let area = WsRequest::get("/area").with_query("bbox", district.bbox().to_query());

    let mut sim = seeded_sim();
    let master = Deployment::build(&mut sim, &scenario).master;
    let relay = sim.add_node("relay", RelayNode::new(master));
    sim.run_for(WARM_UP);
    let client = |format| {
        ClientNode::new(ClientConfig {
            master,
            district: district.district.clone(),
            bbox: district.bbox(),
            data_window_millis: None,
            period: None,
            format,
        })
    };
    let json = sim.add_node("json-client", client(DataFormat::Json));
    let xml = sim.add_node("xml-client", client(DataFormat::Xml));
    let via_relay = area
        .clone()
        .with_query("district", district.district.as_str());
    let relay = OneShot(WsClient::new(1000), relay, via_relay, None);
    let relay = sim.add_node("relay-probe", relay);
    sim.run_for(ANSWER_WITHIN);

    let mut central_sim = seeded_sim();
    let server = CentralDeployment::build(&mut central_sim, &scenario).server;
    central_sim.run_for(WARM_UP);
    let central = OneShot(WsClient::new(1000), server, area, None);
    let central = central_sim.add_node("central-probe", central);
    central_sim.run_for(ANSWER_WITHIN);

    let snapshot = |node| {
        let s = sim
            .node_ref::<ClientNode>(node)
            .and_then(ClientNode::latest_snapshot);
        let s = s.cloned().expect("client finished its query");
        assert!(
            s.errors == 0 && !s.entities.is_empty() && !s.measurements.is_empty(),
            "{s:?}"
        );
        s
    };
    let body = |sim: &Simulator, node| sim.node_ref::<OneShot>(node).and_then(|p| p.3.clone());
    Answers {
        json: snapshot(json),
        xml: snapshot(xml),
        relay: body(&sim, relay).expect("relay answered"),
        central: body(&central_sim, central).expect("central server answered"),
    }
}

/// The measurements as a multiset: sorted by (device, quantity,
/// timestamp).
fn multiset<'a>(measurements: impl IntoIterator<Item = &'a Measurement>) -> Vec<&'a Measurement> {
    let mut sorted: Vec<&Measurement> = measurements.into_iter().collect();
    sorted.sort_by_key(|&m| (m.device().as_str(), m.quantity().as_str(), m.timestamp()));
    sorted
}

#[test]
fn relay_answers_what_the_redirect_json_client_integrates() {
    for Answers { json, relay, .. } in answers() {
        assert_eq!(relay.get("errors").and_then(Value::as_i64), Some(0));
        let entities: BTreeMap<String, Value> = relay
            .get("entities")
            .and_then(Value::as_object)
            .expect("entities object")
            .iter()
            .map(|(id, model)| (id.as_str().to_owned(), model.clone()))
            .collect();
        assert_eq!(entities, json.entities);
        let measurements = MeasurementBatch::from_value(&relay).expect("measurements");
        assert_eq!(multiset(&measurements), multiset(&json.measurements));
    }
}

#[test]
fn xml_client_integrates_what_the_json_client_does() {
    for Answers { json, xml, .. } in answers() {
        assert_eq!(xml.entities, json.entities);
        assert_eq!(multiset(&xml.measurements), multiset(&json.measurements));
    }
}

#[test]
fn centralized_server_holds_the_models_the_redirect_fetches() {
    for Answers { json, central, .. } in answers() {
        let mut central: Vec<(String, String)> = central
            .require_array("central answer", "entities")
            .expect("entities array")
            .iter()
            .map(|entity| {
                let id = entity.get("id").and_then(Value::as_str).expect("entity id");
                (
                    id.to_owned(),
                    json::to_string(entity.get("model").expect("model")),
                )
            })
            .collect();
        central.sort();
        let redirect: Vec<(String, String)> = json
            .entities
            .iter()
            .map(|(id, model)| (id.clone(), json::to_string(model)))
            .collect();
        assert_eq!(central, redirect);
    }
}

// ---- push == pull: the live monitor's cache against a fetch ----

/// When the live monitor joins, after the deployment starts.
const MONITOR_JOINS: SimDuration = SimDuration::from_secs(60);
/// A sample stamped this long before an instant has reached every
/// subscriber by then: it is settled.
const SETTLE_MILLIS: i64 = 1_000;

/// A `(device, quantity)` series.
type SeriesKey = (String, String);

fn series_key(m: &Measurement) -> SeriesKey {
    (
        m.device().as_str().to_owned(),
        m.quantity().as_str().to_owned(),
    )
}

/// Same stamp, and the same value bit for bit.
fn same_sample(a: &Measurement, b: &Measurement) -> bool {
    a.timestamp() == b.timestamp() && a.value().to_bits() == b.value().to_bits()
}

/// A deployment with a live monitor over district 0 that joined after
/// [`MONITOR_JOINS`].
struct Monitored {
    sim: Simulator,
    scenario: Scenario,
    master: NodeId,
    broker: NodeId,
    monitor: NodeId,
}

impl Monitored {
    fn new(config: ScenarioConfig) -> Self {
        let scenario = config.build();
        let mut sim = seeded_sim();
        let deployment = Deployment::build(&mut sim, &scenario);
        sim.run_for(MONITOR_JOINS);
        let district = &scenario.districts[0];
        let monitor = LiveMonitorNode::new(
            deployment.master,
            deployment.broker,
            district.district.clone(),
            district.bbox(),
        );
        let monitor = sim.add_node("live-monitor", monitor);
        Monitored {
            sim,
            master: deployment.master,
            broker: deployment.broker,
            monitor,
            scenario,
        }
    }

    /// The monitor's latest sample per series, now.
    fn pushed(&self) -> BTreeMap<SeriesKey, Measurement> {
        let monitor = self.sim.node_ref::<LiveMonitorNode>(self.monitor);
        let series = monitor.expect("monitor").series();
        let pushed = series
            .into_iter()
            .map(|(key, v)| (key.clone(), v.measurement.clone()));
        pushed.collect()
    }

    /// Unix millis of the newest settled stamp now.
    fn settled(&self) -> i64 {
        let now_millis = (self.sim.now().as_nanos() / 1_000_000) as i64;
        self.scenario.config.epoch_offset_millis + now_millis - SETTLE_MILLIS
    }

    /// Queries district 0 with a one-shot JSON client from now, runs
    /// `answer_within` and returns the client's snapshot.
    fn pull(&mut self, answer_within: SimDuration) -> AreaSnapshot {
        let district = &self.scenario.districts[0];
        let client = ClientNode::new(ClientConfig {
            master: self.master,
            district: district.district.clone(),
            bbox: district.bbox(),
            data_window_millis: None,
            period: None,
            format: DataFormat::Json,
        });
        let name = format!("pull-{}", self.sim.node_count());
        let client = self.sim.add_node(name, client);
        self.sim.run_for(answer_within);
        let snapshot = self.sim.node_ref::<ClientNode>(client);
        let snapshot = snapshot.and_then(ClientNode::latest_snapshot).cloned();
        let snapshot = snapshot.expect("client finished its query");
        assert!(
            snapshot.errors == 0 && !snapshot.measurements.is_empty(),
            "{snapshot:?}"
        );
        snapshot
    }
}

/// The pulled samples stamped at or before `settled`, newest per series.
fn newest_settled(pulled: &AreaSnapshot, settled: i64) -> BTreeMap<SeriesKey, &Measurement> {
    let mut newest: BTreeMap<SeriesKey, &Measurement> = BTreeMap::new();
    for m in pulled.measurements.iter() {
        if m.timestamp().as_unix_millis() > settled {
            continue;
        }
        let slot = newest.entry(series_key(m)).or_insert(m);
        if m.timestamp() > slot.timestamp() {
            *slot = m;
        }
    }
    newest
}

/// Every pushed series the client fetched holds a sample the client
/// fetched too: the monitor is never ahead of the proxies and never
/// differs from them. A pushed series the client did not fetch must be
/// of a quantity its device does not advertise (the resolution names
/// one quantity per device). Returns the series both sides hold.
fn assert_push_within_pull(
    pushed: &BTreeMap<SeriesKey, Measurement>,
    pulled: &AreaSnapshot,
) -> usize {
    let mut fetched: BTreeMap<SeriesKey, Vec<&Measurement>> = BTreeMap::new();
    for m in pulled.measurements.iter() {
        fetched.entry(series_key(m)).or_default().push(m);
    }
    let mut shared = 0;
    for (key, p) in pushed {
        match fetched.get(key) {
            Some(samples) => {
                assert!(
                    samples.iter().any(|m| same_sample(m, p)),
                    "{key:?}: pushed {p:?} was never pulled"
                );
                shared += 1;
            }
            None => {
                let leaf = pulled
                    .resolution
                    .devices
                    .iter()
                    .find(|d| d.device().as_str() == key.0);
                let leaf = leaf.unwrap_or_else(|| panic!("{key:?}: monitored device not resolved"));
                assert_ne!(
                    leaf.quantity().as_str(),
                    key.1,
                    "{key:?}: an advertised series the client did not fetch"
                );
            }
        }
    }
    shared
}

/// The push == pull rule at an instant whose settled stamp is
/// `settled`: for every series the client fetched, the monitor's
/// latest is the client's newest settled sample, stamp and value bits.
/// It may instead be a newer one the client pulled too, stamped within
/// the settle margin and already arrived. Returns the series compared.
fn assert_push_equals_pull(
    pushed: &BTreeMap<SeriesKey, Measurement>,
    pulled: &AreaSnapshot,
    settled: i64,
) -> usize {
    assert_push_within_pull(pushed, pulled);
    let newest = newest_settled(pulled, settled);
    for (key, m) in &newest {
        let p = pushed
            .get(key)
            .unwrap_or_else(|| panic!("{key:?}: the monitor holds nothing"));
        assert!(
            same_sample(p, m) || p.timestamp() > m.timestamp(),
            "{key:?}: pushed {p:?}, pulled {m:?}"
        );
    }
    newest.len()
}

#[test]
fn live_monitor_holds_the_newest_sample_a_client_pulls() {
    let mut ten_by_two = ScenarioConfig::small()
        .with_buildings(10)
        .with_devices_per_building(2);
    ten_by_two.publish_qos = QoS::AtLeastOnce;
    for config in [ScenarioConfig::small(), ten_by_two] {
        let mut run = Monitored::new(config);
        run.sim.run_for(WARM_UP - MONITOR_JOINS);
        let (pushed, settled) = (run.pushed(), run.settled());
        let pulled = run.pull(ANSWER_WITHIN);
        let compared = assert_push_equals_pull(&pushed, &pulled, settled);
        assert_eq!(
            compared,
            pulled.resolution.devices.len(),
            "one series per advertised leaf"
        );
    }
}

/// The monitor's keepalive interval.
const KEEPALIVE: SimDuration = SimDuration::from_secs(10);
/// How often the crash run compares push with pull.
const CHECK_EVERY: SimDuration = SimDuration::from_secs(15);

#[test]
fn live_monitor_catches_up_with_pulls_after_a_broker_restart() {
    let mut config = ScenarioConfig::small();
    config.publish_qos = QoS::AtLeastOnce;
    let mut run = Monitored::new(config);
    run.sim.run_for(SimDuration::from_secs(240));
    let crashed_at = run.sim.now();
    let down = SimDuration::from_secs(30);
    run.sim.crash(run.broker);
    run.sim.restart(run.broker, down);
    let sample = run.scenario.config.sample_interval;
    let caught_up = crashed_at.as_nanos() + (down + KEEPALIVE + sample).as_nanos();
    let mut compared = 0;
    while run.sim.now() < SimTime::from_secs(540) {
        let (pushed, settled, now) = (run.pushed(), run.settled(), run.sim.now());
        let pulled = run.pull(CHECK_EVERY);
        assert_push_within_pull(&pushed, &pulled);
        if now.as_nanos() >= caught_up {
            compared += assert_push_equals_pull(&pushed, &pulled, settled);
        }
    }
    assert!(
        compared >= 12,
        "{compared} series compared after catching up"
    );
}

// ---- storage: head == sealed == compacted == WAL-recovered ----

/// 2015-03-09T00:00:00Z, a partition boundary.
const EPOCH: i64 = 1_425_859_200_000;
const MINUTE: i64 = 60_000;
/// A sealed block's decoder may resume before every 128th point; reads
/// that start on either side of those positions are checked on purpose.
const BLOCK_STRIDE: usize = 128;

/// How a stored series' values are drawn, one per segment encoding.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Centi-units on a random walk: the decimal-int encoding.
    Decimal,
    /// Full-precision doubles with repeats and near-repeats: XOR floats.
    Xor,
    /// Decimal values with NaN payloads, signed zeros and infinities.
    Special,
}

impl Values {
    fn draw(self, rng: &mut DeterministicRng, prev: f64, level: &mut i64) -> f64 {
        match self {
            Values::Decimal => {
                *level += rng.next_bounded(7) as i64 - 3;
                *level as f64 / 100.0
            }
            Values::Xor => match rng.next_bounded(4) {
                0 => prev,
                1 => f64::from_bits(prev.to_bits() ^ (rng.next_u64() & 0xffff)),
                _ => 15.0 + rng.next_f64() * 10.0,
            },
            Values::Special => match rng.next_bounded(12) {
                0 => {
                    f64::from_bits(0x7ff8_0000_0000_0000 | (rng.next_u64() & 0x0007_ffff_ffff_ffff))
                }
                1 => -0.0,
                2 => 0.0,
                3 => [f64::INFINITY, f64::NEG_INFINITY][rng.next_bounded(2) as usize],
                _ => Values::Decimal.draw(rng, prev, level),
            },
        }
    }
}

/// One series stored four ways, and the points it must hold.
struct StoredCase {
    kind: Values,
    reference: BTreeMap<i64, f64>,
    /// `(label, store, id)`: the head-only store comes first.
    stores: Vec<(&'static str, TimeSeriesStore, SeriesId)>,
    /// Timestamps at positions `128k − 1` and `128k` of every block the
    /// sealing stores wrote.
    block_edges: Vec<i64>,
}

const SERIES: &str = "b0:temperature";

/// At a 60 s cadence from a random minute of the first day, over four
/// days and more: jittered timestamps, short and long gaps.
fn stored_points(rng: &mut DeterministicRng, kind: Values) -> Vec<(i64, f64)> {
    let mut points = Vec::new();
    let mut minute = rng.next_bounded(720) as i64;
    let end = minute + 4 * 1_440 + 90;
    let (mut prev, mut level) = (20.0, 2_000);
    while minute < end {
        let jitter = match rng.next_bounded(2) {
            0 => 0,
            _ => rng.next_bounded(30_000) as i64,
        };
        prev = kind.draw(rng, prev, &mut level);
        points.push((EPOCH + minute * MINUTE + jitter, prev));
        minute += 1;
        match rng.next_bounded(64) {
            0 => minute += 1 + rng.next_bounded(5) as i64,
            1 if rng.next_bounded(64) == 0 => minute += 30 + rng.next_bounded(90) as i64,
            _ => {}
        }
    }
    points
}

/// Positions `128k − 1` and `128k` of `run` split into partitions.
fn push_block_edges(run: &BTreeMap<i64, f64>, out: &mut Vec<i64>) {
    let mut by_partition: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for &t in run.keys() {
        by_partition
            .entry(t.div_euclid(PARTITION_MILLIS))
            .or_default()
            .push(t);
    }
    for ts in by_partition.values() {
        for k in (BLOCK_STRIDE..ts.len()).step_by(BLOCK_STRIDE) {
            out.extend([ts[k - 1], ts[k]]);
        }
    }
}

/// Builds one series of `kind` four ways. The first 60 % of the points
/// go in, then the rest with overwrites mixed in: 3 % of all
/// timestamps at random, plus every point within 50 of the cut, so
/// overwrites straddle the first seal.
fn stored_case(rng: &mut DeterministicRng, kind: Values) -> StoredCase {
    let points = stored_points(rng, kind);
    let cut = points.len() * 3 / 5;
    let (first, rest) = points.split_at(cut);
    let mut later: Vec<(i64, f64)> = rest.to_vec();
    let mut overwrites: Vec<usize> = (cut - 50..cut + 50).collect();
    overwrites
        .extend((0..points.len() / 33).map(|_| rng.next_bounded(points.len() as u64) as usize));
    let mut level = 1_000;
    for i in overwrites {
        let v = kind.draw(rng, points[i].1, &mut level);
        let at = rng.next_bounded(later.len() as u64 + 1) as usize;
        later.insert(at, (points[i].0, v));
    }

    let unsealed = TskvConfig {
        seal_threshold: usize::MAX,
        wal_checkpoint_records: usize::MAX,
    };
    let mut stores: Vec<(&'static str, TimeSeriesStore, SeriesId)> = [
        ("head", TimeSeriesStore::with_config(unsealed.clone())),
        ("sealed", TimeSeriesStore::with_config(unsealed.clone())),
        ("compacted", TimeSeriesStore::with_config(unsealed)),
        ("recovered", TimeSeriesStore::new()),
    ]
    .into_iter()
    .map(|(label, mut store)| {
        let id = store.series_id(SERIES);
        (label, store, id)
    })
    .collect();
    let mut reference = BTreeMap::new();
    let mut block_edges = Vec::new();
    let insert = |stores: &mut Vec<(&str, TimeSeriesStore, SeriesId)>, t: i64, v: f64| {
        for (_, store, id) in stores.iter_mut() {
            store.insert_at(*id, t, v);
        }
    };

    for &(t, v) in first {
        insert(&mut stores, t, v);
        reference.insert(t, v);
    }
    push_block_edges(&reference, &mut block_edges);
    stores[1].1.seal_all();
    stores[2].1.seal_all();
    stores[2].1.maintain();
    stores[3].1.checkpoint();

    let mut second = BTreeMap::new();
    for (i, &(t, v)) in later.iter().enumerate() {
        insert(&mut stores, t, v);
        reference.insert(t, v);
        second.insert(t, v);
        if i == later.len() / 2 {
            stores[3].1.checkpoint();
        }
    }
    push_block_edges(&second, &mut block_edges);
    push_block_edges(&reference, &mut block_edges);
    stores[1].1.seal_all();
    stores[2].1.seal_all();
    stores[2].1.maintain();
    assert!(stores[3].1.crash_recover() > 0, "the WAL tail replays");

    let partitions = |store: &TimeSeriesStore| store.stats().segments;
    let days: std::collections::BTreeSet<i64> = reference
        .keys()
        .map(|t| t.div_euclid(PARTITION_MILLIS))
        .collect();
    assert_eq!(partitions(&stores[0].1), 0, "the head store never seals");
    assert!(
        partitions(&stores[1].1) > days.len(),
        "L0 segments per seal"
    );
    assert_eq!(partitions(&stores[2].1), days.len(), "one owner per day");
    let largest = days
        .iter()
        .map(|d| {
            let lo = d * PARTITION_MILLIS;
            reference.range(lo..lo + PARTITION_MILLIS).count()
        })
        .max()
        .expect("points");
    assert!(largest > 10 * BLOCK_STRIDE, "{largest} points in a day");
    block_edges.sort_unstable();
    block_edges.dedup();
    StoredCase {
        kind,
        reference,
        stores,
        block_edges,
    }
}

/// The three stored series of this seed.
fn stored_cases() -> Vec<StoredCase> {
    let mut rng = DeterministicRng::seed_from(seed() ^ 0x0e7a_c1e5);
    [Values::Decimal, Values::Xor, Values::Special]
        .into_iter()
        .map(|kind| stored_case(&mut rng, kind))
        .collect()
}

fn bits(points: &[(i64, f64)]) -> Vec<(i64, u64)> {
    points.iter().map(|&(t, v)| (t, v.to_bits())).collect()
}

impl StoredCase {
    fn first(&self) -> i64 {
        *self.reference.keys().next().expect("points")
    }

    fn last(&self) -> i64 {
        *self.reference.keys().next_back().expect("points")
    }

    /// Query ranges: from every block edge (and one either side of it)
    /// over 1 min to 3 h, 1 h reads from random instants, and random
    /// spans up to two days that may reach past either end.
    fn ranges(&self, rng: &mut DeterministicRng) -> Vec<(i64, i64)> {
        let mut ranges = Vec::new();
        for &edge in &self.block_edges {
            let len = MINUTE + rng.next_bounded(180) as i64 * MINUTE;
            for from in [edge - 1, edge, edge + 1] {
                ranges.push((from, from + len));
            }
        }
        let (lo, hi) = (self.first() - 3_600_000, self.last() + 3_600_000);
        for _ in 0..200 {
            let from = lo + rng.next_bounded((hi - lo) as u64) as i64;
            ranges.push((from, from + 3_600_000));
            let len = 1 + rng.next_bounded(2 * PARTITION_MILLIS as u64) as i64;
            ranges.push((from, from + len));
        }
        ranges.push((i64::MIN, i64::MAX));
        ranges
    }
}

#[test]
fn stored_series_read_the_same_from_head_sealed_compacted_and_recovered() {
    let mut rng = DeterministicRng::seed_from(seed() ^ 0x0e7a_c1e6);
    for case in stored_cases() {
        let kind = case.kind;
        let (lt, lv) = case
            .reference
            .iter()
            .next_back()
            .map(|(&t, &v)| (t, v))
            .expect("points");
        for (label, store, id) in &case.stores {
            assert_eq!(
                store.series_len(SERIES),
                case.reference.len(),
                "{kind:?} {label}"
            );
            let latest = store.latest(SERIES).expect("latest");
            assert_eq!(
                (latest.0, latest.1.to_bits()),
                (lt, lv.to_bits()),
                "{kind:?} {label}"
            );
            for &t in &case.block_edges {
                for t in [t - 1, t, t + 1] {
                    assert_eq!(
                        store.contains_at(*id, t),
                        case.reference.contains_key(&t),
                        "{kind:?} {label} contains_at({t})"
                    );
                }
            }
        }
        for (from, to) in case.ranges(&mut rng) {
            let want: Vec<(i64, u64)> = case
                .reference
                .range(from..to)
                .map(|(&t, &v)| (t, v.to_bits()))
                .collect();
            for (label, store, id) in &case.stores {
                let got = store.range(SERIES, from, to);
                assert_eq!(bits(&got), want, "{kind:?} {label} range [{from}, {to})");
                let mut streamed = Vec::new();
                store.for_each_in(SERIES, from, to, |t, v| streamed.push((t, v)));
                assert_eq!(
                    bits(&streamed),
                    want,
                    "{kind:?} {label} for_each_in [{from}, {to})"
                );
                assert_eq!(
                    store.contains_at(*id, from),
                    case.reference.contains_key(&from),
                    "{kind:?} {label} contains_at({from})"
                );
            }
        }
    }
}

#[test]
fn stored_series_downsample_the_same_from_head_sealed_compacted_and_recovered() {
    const AGGREGATES: [Aggregate; 6] = [
        Aggregate::Mean,
        Aggregate::Min,
        Aggregate::Max,
        Aggregate::Sum,
        Aggregate::Count,
        Aggregate::Last,
    ];
    let mut rng = DeterministicRng::seed_from(seed() ^ 0x0e7a_c1e7);
    let buckets = [ROLLUP_LEVELS[0], ROLLUP_LEVELS[1], 7 * MINUTE];
    for case in stored_cases() {
        let kind = case.kind;
        let day0 = case.first().div_euclid(PARTITION_MILLIS) * PARTITION_MILLIS;
        // Whole days, which compacted partitions answer from their
        // rollups, then a sample of the read ranges.
        let mut ranges: Vec<(i64, i64)> = (1..=5)
            .map(|d| (day0, day0 + d * PARTITION_MILLIS))
            .chain([(day0 + PARTITION_MILLIS, day0 + 3 * PARTITION_MILLIS)])
            .collect();
        let sampled = case.ranges(&mut rng);
        ranges.extend(
            sampled
                .iter()
                .step_by(8)
                .copied()
                .filter(|&(_, to)| to < i64::MAX),
        );
        for (from, to) in ranges {
            for bucket in buckets {
                let aligned = from.div_euclid(bucket) * bucket;
                for from in [aligned, from] {
                    let aggregate = AGGREGATES[rng.next_bounded(6) as usize];
                    let answer = |store: &TimeSeriesStore| -> Vec<(i64, u64, u64)> {
                        store
                            .downsample_counted(SERIES, from, to, bucket, aggregate)
                            .into_iter()
                            .map(|b| (b.start, b.value.to_bits(), b.count))
                            .collect()
                    };
                    let want = answer(&case.stores[0].1);
                    let count: u64 = want.iter().map(|b| b.2).sum();
                    assert_eq!(count as usize, case.reference.range(from..to).count());
                    for (label, store, _) in &case.stores[1..] {
                        assert_eq!(
                            answer(store),
                            want,
                            "{kind:?} {label} downsample_counted({from}, {to}, {bucket}, {aggregate:?})"
                        );
                    }
                }
            }
        }
    }
}
