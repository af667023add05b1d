//! `area_query`: the paper's read path.
//!
//! 4 districts x 50 buildings x 2 devices on a 1-shard simulation, 60 s
//! sample interval, aggregation on; set-up ingests 600 simulated
//! seconds. Then 8 `ClientNode`s per district query every 5 s — JSON
//! and XML clients in pairs over a quarter, a half or the whole of the
//! district, each pair starting 312.5 ms after the last, so the load is
//! an open loop of 6.4 queries per simulated second. A query is one
//! master resolve plus a model fetch per entity and a data fetch per
//! device, up to 152 requests. One `ProfileClientNode` per district
//! joins at the start of every slice.

use std::collections::BTreeSet;

use dimmer::core::codec::DataFormat;
use dimmer::core::{MeasurementBatch, QuantityKind, Value};
use dimmer::district::client::{AreaSnapshot, ClientConfig, ClientNode};
use dimmer::district::deploy::Deployment;
use dimmer::district::profile::{ProfileClientNode, ProfileConfig};
use dimmer::district::scenario::{AggregationSpec, DistrictSpec, Scenario, ScenarioConfig};
use dimmer::gis::geo::{BoundingBox, GeoPoint};
use dimmer::simnet::{NodeId, ParallelConfig, ParallelSimulator, SimDuration, SimTime};

use crate::alloc;
use crate::checks::{self, SnapshotFacts};
use crate::replay;
use crate::report::{fold_digest, peak_rss_mib, Outcome, RunOpts};
use crate::spans::Spans;
use crate::stats::{percentile_sorted, Slices};
use crate::workloads::{
    push_allocs, push_deployment_counts, push_pubsub_counts, push_sim_layers, run_slices, set_up,
    SimCounters, Sliced, COUNTED_SLICES,
};

const SAMPLE_INTERVAL: SimDuration = SimDuration::from_secs(60);
const INGEST: SimDuration = SimDuration::from_secs(600);
const CLIENTS_PER_DISTRICT: usize = 8;
const PERIOD: SimDuration = SimDuration::from_secs(5);
/// 96 area queries and 4 profile queries: about 0.7 s of host time on
/// the reference box.
const SLICE: SimDuration = SimDuration::from_secs(15);
/// A query slower than this (simulated) counts as failed: the
/// repository's 250 ms objective, applied to the whole fan-out.
pub const QUERY_LIMIT_MS: f64 = 250.0;
const BOXES: [&str; 3] = ["quarter", "half", "full"];

fn scenario(opts: &RunOpts) -> Scenario {
    let (districts, buildings) = if opts.quick { (2, 16) } else { (4, 50) };
    let mut config = ScenarioConfig::small()
        .with_seed(opts.seed)
        .with_districts(districts)
        .with_buildings(buildings)
        .with_devices_per_building(2)
        .with_aggregation(AggregationSpec::tumbling(60_000));
    config.sample_interval = SAMPLE_INTERVAL;
    config.build()
}

/// The quarter, half and whole of a district. Buildings sit on a
/// jittered grid (0.001 deg rows, 0.0012 deg columns, jitter 0.0002),
/// so edges half-way between grid lines are 0.0003 deg clear of any
/// building and box membership cannot hinge on rounding.
fn boxes(d: &DistrictSpec) -> [BoundingBox; 3] {
    let grid = (d.buildings.len() as f64).sqrt().ceil();
    let half = (grid / 2.0).floor();
    let min = GeoPoint::new(d.center.lat - 0.0005, d.center.lon - 0.0006);
    let lat_mid = d.center.lat + 0.001 * (half - 0.5);
    let lon_mid = d.center.lon + 0.0012 * (half - 0.5);
    let lon_max = d.center.lon + 0.0012 * (grid - 0.5);
    [
        BoundingBox::new(min, GeoPoint::new(lat_mid, lon_mid)),
        BoundingBox::new(
            min,
            GeoPoint::new(d.center.lat + 0.001 * (grid - 0.5), lon_mid),
        ),
        BoundingBox::new(
            min,
            GeoPoint::new(d.center.lat + 0.001 * (grid - 0.5), lon_max),
        ),
    ]
}

/// Ids of the entities (buildings and networks) the scenario places
/// inside `bbox`.
fn entities_in(d: &DistrictSpec, bbox: &BoundingBox) -> BTreeSet<String> {
    let buildings = d
        .buildings
        .iter()
        .filter(|b| bbox.contains(&b.location))
        .map(|b| b.building.as_str().to_owned());
    let networks = d
        .networks
        .iter()
        .filter(|n| bbox.contains(&n.location))
        .map(|n| n.network.as_str().to_owned());
    buildings.chain(networks).collect()
}

struct Client {
    id: NodeId,
    district: usize,
    bbox: usize,
    xml: bool,
}

struct Area {
    sim: ParallelSimulator,
    clients: Vec<Client>,
    /// What each slice's profile queries ask, one per district.
    profiles: Vec<ProfileConfig>,
    profilers: Vec<NodeId>,
}

impl Area {
    fn set_up(scenario: &Scenario, spans: &mut Spans) -> Area {
        let ((mut sim, deployment), _) = spans.scope("setup.deploy", || {
            let mut sim = ParallelSimulator::new(ParallelConfig {
                seed: scenario.config.seed,
                ..ParallelConfig::default()
            });
            let deployment = Deployment::build_parallel(&mut sim, scenario);
            (sim, deployment)
        });
        spans.scope("setup.ingest", || sim.run_for(INGEST));
        let epoch = scenario.config.epoch_offset_millis;
        let ingested = (epoch, epoch + INGEST.as_nanos() as i64 / 1_000_000);
        let pairs = scenario.districts.len() * CLIENTS_PER_DISTRICT / 2;
        let stagger = SimDuration::from_nanos(PERIOD.as_nanos() / pairs as u64);
        let mut clients = Vec::new();
        spans.scope("setup.warmup", || {
            for pair in 0..pairs {
                let district = pair % scenario.districts.len();
                let bbox = (pair / scenario.districts.len()) % BOXES.len();
                let spec = &scenario.districts[district];
                for (xml, format) in [(false, DataFormat::Json), (true, DataFormat::Xml)] {
                    let config = ClientConfig {
                        master: deployment.master,
                        district: spec.district.clone(),
                        bbox: boxes(spec)[bbox],
                        // A fixed window keeps the work per query the
                        // same in every slice while ingest goes on.
                        data_window_millis: Some(ingested),
                        period: Some(PERIOD),
                        format,
                    };
                    let name = format!("client-{pair}-{format}");
                    let id = sim.add_node_on(0, name, ClientNode::new(config));
                    clients.push(Client {
                        id,
                        district,
                        bbox,
                        xml,
                    });
                }
                sim.run_for(stagger);
            }
            // Every client has completed at least one query.
            sim.run_for(PERIOD);
        });
        let profiles = scenario
            .districts
            .iter()
            .map(|d| ProfileConfig {
                master: deployment.master,
                district: d.district.clone(),
                quantity: QuantityKind::Temperature,
                window_millis: None,
                range: ingested,
            })
            .collect();
        Area {
            sim,
            clients,
            profiles,
            profilers: Vec::new(),
        }
    }

    fn snapshots(&self, c: &Client) -> &[AreaSnapshot] {
        self.sim
            .node_ref::<ClientNode>(c.id)
            .expect("placed in set_up")
            .snapshots()
    }

    fn completed(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| self.snapshots(c).len() as u64)
            .sum()
    }
}

impl Sliced for Area {
    fn ops(&self) -> u64 {
        self.completed()
    }

    /// One profile query per district joins, then the slice runs.
    /// Placing four nodes is microseconds against a slice's ~0.7 s.
    fn advance(&mut self) {
        for config in &self.profiles {
            let name = format!("profiler-{}-{}", config.district, self.profilers.len());
            let node = ProfileClientNode::new(config.clone());
            self.profilers.push(self.sim.add_node_on(0, name, node));
        }
        self.sim.run_for(SLICE);
    }
}

pub fn run(opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::new(opts);
    let n_slices = opts.slices();

    let ((scenario, mut area), setup) = set_up(opts, spans, &mut out, |spans| {
        let (scenario, _) = spans.scope("setup.scenario", || scenario(opts));
        let area = Area::set_up(&scenario, spans);
        (scenario, area)
    });

    let window = (
        area.sim.now(),
        area.sim.now() + SimDuration::from_nanos(SLICE.as_nanos() * n_slices as u64),
    );
    let before = SimCounters::take(&area.sim);
    let bytes_before: Vec<u64> = area
        .clients
        .iter()
        .map(|c| area.sim.node_metrics(c.id).bytes_received)
        .collect();
    let (times, work) = run_slices(&mut area, n_slices, "slice", spans, |_, _, _| {});
    let after = SimCounters::take(&area.sim);
    let bytes_after: Vec<u64> = area
        .clients
        .iter()
        .map(|c| area.sim.node_metrics(c.id).bytes_received)
        .collect();

    let completed_before = area.completed();
    let ((), allocs) = alloc::counted(|| {
        run_slices(&mut area, COUNTED_SLICES, "counted", spans, |_, _, _| {});
    });
    let counted_queries = area.completed() - completed_before;

    // Harvest: every snapshot issued inside the timed region.
    let open = spans.begin("harvest");
    let in_window = |t: SimTime| t >= window.0 && t < window.1;
    let mut facts = Vec::new();
    let (mut entities, mut devices, mut requests) = (0u64, 0u64, 0u64);
    let mut format_queries = [0u64; 2];
    let mut format_bytes = [0u64; 2];
    for (i, c) in area.clients.iter().enumerate() {
        format_bytes[usize::from(c.xml)] += bytes_after[i] - bytes_before[i];
        for s in area.snapshots(c).iter().filter(|s| in_window(s.started_at)) {
            format_queries[usize::from(c.xml)] += 1;
            entities += s.resolution.entities.len() as u64;
            devices += s.resolution.devices.len() as u64;
            requests += s.requests;
            facts.push(SnapshotFacts {
                bbox: c.district * BOXES.len() + c.bbox,
                xml: c.xml,
                errors: s.errors,
                entity_ids: s.entities.keys().cloned().collect(),
                measurements: s.measurements.len(),
                started_ns: s.started_at.as_nanos(),
                latency_ns: s.latency().as_nanos(),
            });
        }
    }
    let expected: Vec<BTreeSet<String>> = scenario
        .districts
        .iter()
        .flat_map(|d| boxes(d).map(|b| entities_in(d, &b)))
        .collect();
    let mut profile_ns: Vec<u64> = Vec::new();
    let mut profile_errors = 0;
    let mut profile_windows = 0;
    for &p in &area.profilers {
        let node = area.sim.node_ref::<ProfileClientNode>(p).expect("profiler");
        for s in node.snapshots() {
            profile_ns.push(s.latency().as_nanos());
            profile_errors += s.errors;
            profile_windows += s.windows.len();
        }
    }
    profile_ns.sort_unstable();
    let mut latencies_ns: Vec<u64> = facts.iter().map(|f| f.latency_ns).collect();
    let latency_sum = latencies_ns.iter().fold(0u64, |a, &l| a.wrapping_add(l));
    latencies_ns.sort_unstable();
    spans.end(open);

    let queries: f64 = work.iter().sum();
    let slices = Slices::of(&times);
    let scraped = after.scrape.since(&before.scrape);
    let due = (area.clients.len() as u64 * SLICE.as_nanos() / PERIOD.as_nanos()) * n_slices as u64;
    let limit_ns = (QUERY_LIMIT_MS * 1e6) as u64;
    let good = facts
        .iter()
        .filter(|f| f.errors == 0 && f.latency_ns <= limit_ns)
        .count() as u64;
    out.attempted = due;
    out.failed = due.saturating_sub(good);
    out.sim_digest = fold_digest(&[
        area.sim.flight_digest(),
        area.sim.metrics().events_processed,
        area.completed(),
        latency_sum,
    ]);
    let p50 = percentile_sorted(&latencies_ns, 0.50) as f64 / 1e6;
    let p99 = percentile_sorted(&latencies_ns, 0.99) as f64 / 1e6;
    out.push_rate("queries_per_wall_s", &work, &times);
    out.push("query_p50_ms", p50, latencies_ns.len() as u64);
    out.push("query_p99_ms", p99, latencies_ns.len() as u64);
    out.push(
        "wire_bytes_per_op",
        scraped.get("net.wire_bytes_sum") / queries,
        queries as u64,
    );
    push_allocs(&mut out, allocs, counted_queries);
    out.push("failed_frac", out.failed as f64 / due.max(1) as f64, due);

    out.check(
        "snapshots_clean",
        checks::snapshots_clean(&facts),
        format!(
            "{} snapshots, {} with errors",
            facts.len(),
            facts.iter().filter(|f| f.errors > 0).count()
        ),
    );
    out.check(
        "entities_match_scenario",
        checks::entities_match_scenario(&facts, &expected),
        format!(
            "box sizes {:?}",
            expected.iter().map(BTreeSet::len).collect::<Vec<_>>()
        ),
    );
    out.check(
        "formats_agree",
        checks::formats_agree(&facts),
        "JSON and XML over one box: same entities, same measurement count".to_owned(),
    );
    out.check(
        "every_query_completed",
        checks::all_arrived(due, facts.len() as u64),
        format!("due {due}, completed {}", facts.len()),
    );
    out.check(
        "profiles_clean",
        profile_errors == 0 && profile_windows > 0 && !profile_ns.is_empty(),
        format!(
            "{} profile queries, {profile_errors} errors, {profile_windows} windows",
            profile_ns.len()
        ),
    );
    out.check(
        "query_p99_within_limit",
        checks::within_limit(p99, QUERY_LIMIT_MS),
        format!("p99 {p99:.3} ms, limit {QUERY_LIMIT_MS} ms"),
    );

    if opts.traced {
        let n = facts.len().max(1) as f64;
        out.push_run_slices(&slices);
        push_sim_layers(&mut out, &before, &after, queries, &times);
        push_pubsub_counts(&mut out, &scraped);
        push_deployment_counts(&mut out, &scraped, &after.scrape, queries);
        out.push(
            "ontology.entities_per_query",
            entities as f64 / n,
            facts.len() as u64,
        );
        out.push(
            "ontology.devices_per_query",
            devices as f64 / n,
            facts.len() as u64,
        );
        out.push(
            "district.requests_per_query",
            requests as f64 / n,
            facts.len() as u64,
        );
        out.push(
            "district.profile_p50_ms",
            percentile_sorted(&profile_ns, 0.5) as f64 / 1e6,
            profile_ns.len() as u64,
        );
        setup.push_layers(&mut out);
        out.push(
            "core.bytes_per_query_json",
            format_bytes[0] as f64 / format_queries[0].max(1) as f64,
            format_queries[0],
        );
        out.push(
            "core.bytes_per_query_xml",
            format_bytes[1] as f64 / format_queries[1].max(1) as f64,
            format_queries[1],
        );
        out.push(
            "rss.bytes_per_building",
            peak_rss_mib() * 1_048_576.0 / scenario.building_count() as f64,
            1,
        );
        // Nothing of the benchmark's runs inside a slice here.
        out.push("loadgen.busy_frac", 0.0, 0);
        out.push("trace.overhead_frac", 0.0, 0);

        // The codecs alone, on what a whole-district query fetched.
        let full = area
            .clients
            .iter()
            .find(|c| c.bbox == BOXES.len() - 1 && !c.xml)
            .and_then(|c| area.snapshots(c).last());
        let models: Vec<Value> =
            full.map_or(Vec::new(), |s| s.entities.values().cloned().collect());
        let batches: Vec<MeasurementBatch> =
            full.map_or(Vec::new(), |s| vec![s.measurements.clone()]);
        replay::core_codecs(&mut out, spans, &models, &batches);
    }
    out.slice_times_s = times;
    out.push("peak_rss_mb", peak_rss_mib(), 1);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxes_nest_and_split_the_district_on_grid_gaps() {
        let opts = RunOpts {
            workload: String::new(),
            seed: 3,
            seconds: 10,
            traced: false,
            quick: false,
        };
        let s = scenario(&opts);
        for d in &s.districts {
            let [quarter, half, full] = boxes(d).map(|b| entities_in(d, &b));
            assert_eq!(full.len(), 51, "50 buildings and the network");
            assert!(quarter.is_subset(&half) && half.is_subset(&full));
            // 8-column grid of 50: columns 0..3 hold 4 of each row's 8.
            assert_eq!(half.len(), 4 * 6 + 2 + 1, "rows of 8, last row of 2");
            assert_eq!(quarter.len(), 4 * 4 + 1);
            // No building sits within 0.0002 deg of a box edge.
            for b in &d.buildings {
                for bx in boxes(d) {
                    for edge in [bx.max().lat, bx.max().lon, bx.min().lat, bx.min().lon] {
                        let near = (b.location.lat - edge)
                            .abs()
                            .min((b.location.lon - edge).abs());
                        assert!(near > 1e-4, "{} too close to an edge", b.building);
                    }
                }
            }
        }
    }
}
