//! # dimmer-master — the master node
//!
//! "The master node is the unique entry point of the system … It
//! receives data queries from the users, refers to the ontology to get
//! the interested data sources URIs, and redirects the users to the
//! interested data sources."
//!
//! [`MasterNode`] is that node: it accepts proxy registrations and
//! heartbeats, maintains the [`ontology::Ontology`], evicts silent
//! proxies, and answers queries with **URIs, not data** — the redirect
//! design experiment E5 compares against a relaying master.
//!
//! ## Endpoints
//!
//! | Method + path | Answer |
//! |---|---|
//! | `POST /register` | apply a [`proxy::registration::Registration`] |
//! | `POST /deregister` | remove the proxy's ontology contribution |
//! | `POST /heartbeat` | refresh liveness |
//! | `GET /districts` | district ids and names |
//! | `GET /district/{id}` | the whole district tree |
//! | `GET /district/{id}/area?bbox=a,b,c,d` | the redirect response ([`ontology::AreaResolution`]) |
//! | `GET /district/{id}/entities?kind=` | entity nodes of one kind |
//! | `GET /district/{id}/devices?quantity=` or `?protocol=` | device leaves by quantity or protocol family |
//! | `GET /district/{id}/profile` | aggregator URIs serving windowed rollups |
//! | `GET /ontology` | full forest snapshot |
//! | `GET /stats` | registry counters |
//!
//! ## Ops plane
//!
//! | Method + path | Answer |
//! |---|---|
//! | `GET /metrics` | Prometheus-style text exposition |
//! | `GET /health` | the master's own liveness view |
//! | `GET /fleet/metrics` | exposition after an SLO + fleet-gauge refresh |
//! | `GET /fleet/health` | per-node up/down, scrape staleness and health bodies |
//!
//! The fleet view is fed by the **fleet scraper**
//! ([`MasterNode::enable_fleet_scrape`]): a periodic sweep that polls
//! every registered proxy's `GET /health` over the Web-Service layer
//! and every tracked broker shard's `/health` over the middleware ops
//! tags, recording who answered and when (`ops.up.<name>`,
//! `ops.scrape_age_ns.<name>` gauges).

use std::cell::OnceCell;
use std::collections::BTreeMap;

use dimmer_core::{DistrictId, EntityKind, ProxyId, QuantityKind, Uri, Value};
use gis::geo::BoundingBox;
use ontology::{Ontology, OntologyError};
use proxy::registration::{ProxyRef, ProxyRole, Registration};
use proxy::webservice::{
    encode_response, status, PathPattern, WsCall, WsClient, WsClientEvent, WsRequest, WsResponse,
    WsServer,
};
use proxy::{uri_node, WS_PORT};
use pubsub::{WirePacketRef, PUBSUB_PORT};
use simnet::overload::{Admission, AdmissionGate, BreakerConfig, BreakerState, CircuitBreaker};
use simnet::telemetry::{CounterHandle, GaugeHandle, Registry};
use simnet::{Context, Node, NodeId, Packet, SimDuration, SimTime, TimerTag};

const TAG_LIVENESS: TimerTag = TimerTag(1);
const TAG_SCRAPE: TimerTag = TimerTag(2);
/// Timer tags above this belong to the scraper's Web-Service client.
const WS_CLIENT_TAGS: u64 = 3_000_000_000;
/// How often the master sweeps for dead proxies.
const LIVENESS_PERIOD: SimDuration = SimDuration::from_secs(30);
/// A proxy silent for longer than this is evicted.
const LIVENESS_HORIZON: SimDuration = SimDuration::from_secs(100);
/// Default fleet-scrape period.
pub(crate) const DEFAULT_SCRAPE_INTERVAL: SimDuration = SimDuration::from_secs(15);
/// Default admission capacity for query endpoints (bursts above this
/// are shed with a 503 and a `Retry-After`).
pub(crate) const DEFAULT_ADMISSION_CAPACITY: u64 = 1024;
/// Default admission drain rate: sustained queries per second the
/// master is willing to serve.
pub(crate) const DEFAULT_ADMISSION_RATE: f64 = 4096.0;
/// A scraped aggregator whose probe latency exceeds this floor *and*
/// three times the fleet median is ejected from redirect rotation.
const OUTLIER_LATENCY_FLOOR: SimDuration = SimDuration::from_millis(100);

/// Breaker settings for the per-district aggregator circuits: sized to
/// the 15 s scrape cadence so a gray-failed aggregator trips within a
/// few rounds and is re-probed (half-open) after the cool-down.
fn district_breaker_config() -> BreakerConfig {
    BreakerConfig {
        window: 8,
        min_samples: 3,
        trip_threshold: 0.5,
        latency_threshold: SimDuration::from_millis(750),
        open_for: SimDuration::from_secs(45),
    }
}

/// Registry counters exposed at `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Successful registrations applied.
    pub(crate) registrations: u64,
    /// Heartbeats received.
    pub(crate) heartbeats: u64,
    /// Queries answered (area/entities/devices/districts/tree).
    pub(crate) queries: u64,
    /// Proxies evicted by the liveness sweep.
    pub evictions: u64,
    /// Device registrations parked while their entity is unknown.
    pub(crate) parked_devices: u64,
}

#[derive(Debug, Clone)]
struct ProxyRecord {
    district: DistrictId,
    uri: Uri,
    kind: &'static str,
    /// Ontology bookkeeping to undo on deregistration/eviction.
    contribution: Contribution,
    last_seen: SimTime,
}

/// One scraped node's last known state.
#[derive(Debug, Clone)]
struct ScrapeRecord {
    kind: &'static str,
    /// When the last successful scrape of this target landed.
    last_ok: Option<SimTime>,
    up: bool,
    /// Round-trip latency of the last successful scrape, the
    /// gray-failure signal behind outlier ejection.
    latency: Option<SimDuration>,
    /// The `/health` body from the last successful scrape.
    health: Value,
}

/// State of the periodic fleet scraper (absent until
/// [`MasterNode::enable_fleet_scrape`]).
#[derive(Debug)]
struct FleetScrape {
    interval: SimDuration,
    /// The round under way; its Web-Service probes carry it.
    round: u64,
    /// Broker shards polled over the middleware ops tags.
    brokers: Vec<(String, NodeId)>,
    /// Scrape records keyed by target name (proxy id or broker label),
    /// sorted so `/fleet/health` is deterministic.
    records: BTreeMap<String, ScrapeRecord>,
    /// In-flight broker ops probes: `OpsGet` id → target name. They
    /// ride no retransmission ledger, so they keep their own table.
    inflight_ops: BTreeMap<u64, String>,
    next_ops_id: u64,
}

/// What a fleet-scrape probe asks for.
#[derive(Debug)]
enum Probe {
    /// A proxy's or a broker's `/health`, by target name.
    Health(String),
    /// A district aggregator's `/rollups`, for its district breaker.
    Rollups(DistrictId),
}

/// A probe that failed, or was still awaited when the next round began:
/// its target is down until proven otherwise, and a rollup snapshot is a
/// failure for its district breaker.
fn probe_failed(
    scrape: &mut FleetScrape,
    breakers: &mut BTreeMap<DistrictId, CircuitBreaker>,
    probe: &Probe,
    ctx: &Context<'_>,
) {
    match probe {
        Probe::Health(name) => {
            if let Some(rec) = scrape.records.get_mut(name) {
                rec.up = false;
            }
        }
        Probe::Rollups(district) => breakers
            .entry(district.clone())
            .or_insert_with(|| CircuitBreaker::new(district_breaker_config()))
            .record_failure(ctx.now(), &ctx.telemetry().metrics),
    }
}

#[derive(Debug, Clone)]
enum Contribution {
    Device {
        device_id: String,
        entity_id: String,
    },
    Entity {
        entity_id: String,
    },
    DistrictRoot,
}

/// The series written per request, resolved on the first callback that
/// writes one. Restart, eviction and the fleet scraper's per-round
/// `ops.*` writes (dynamic names, one round every few seconds) stay
/// by-name.
struct MasterSeries {
    requests: CounterHandle,
    registrations: CounterHandle,
    heartbeats: CounterHandle,
    stale_rollups: CounterHandle,
    outlier_ejections: CounterHandle,
    proxies: GaugeHandle,
}

impl MasterSeries {
    fn resolve(m: &Registry) -> Self {
        MasterSeries {
            requests: m.counter_handle("master.requests"),
            registrations: m.counter_handle("master.registrations"),
            heartbeats: m.counter_handle("master.heartbeats"),
            stale_rollups: m.counter_handle("master.stale_rollups"),
            outlier_ejections: m.counter_handle("master.outlier_ejections"),
            proxies: m.gauge_handle("master.proxies"),
        }
    }
}

/// The GET endpoints under `/district/{id}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Tree,
    Area,
    Entities,
    Devices,
    Profile,
}

/// The district routes, built once with the node: matching a path
/// against them allocates nothing.
#[derive(Debug)]
struct DistrictRoutes([(PathPattern, Route); 5]);

impl DistrictRoutes {
    fn new() -> Self {
        DistrictRoutes([
            (PathPattern::new("/district/{id}/profile"), Route::Profile),
            (PathPattern::new("/district/{id}/area"), Route::Area),
            (PathPattern::new("/district/{id}/entities"), Route::Entities),
            (PathPattern::new("/district/{id}/devices"), Route::Devices),
            (PathPattern::new("/district/{id}"), Route::Tree),
        ])
    }

    /// The route `path` takes and the district id it names.
    fn find<'a>(&self, path: &'a str) -> Option<(Route, &'a str)> {
        self.0
            .iter()
            .find_map(|(pattern, route)| Some((*route, pattern.matches(path)?["id"])))
    }
}

/// A handler's answer: a tree, or a body a typed writer encoded already.
enum Answer {
    Tree(WsResponse),
    Encoded(Vec<u8>),
}

impl From<WsResponse> for Answer {
    fn from(response: WsResponse) -> Self {
        Answer::Tree(response)
    }
}

/// The master node.
///
/// Construct with the districts it should pre-seed (a district created
/// on demand by a stray registration gets its id as its name).
pub struct MasterNode {
    ontology: Ontology,
    ws: WsServer,
    routes: DistrictRoutes,
    registry: BTreeMap<ProxyId, ProxyRecord>,
    /// Device registrations whose entity has not registered yet, keyed
    /// by (district, entity id), each list in arrival order.
    parked: BTreeMap<(DistrictId, String), Vec<Registration>>,
    /// District seeds, kept so a restart can rebuild the empty ontology.
    seeds: Vec<(DistrictId, String)>,
    /// District → owning broker-shard label, reapplied after restarts
    /// (empty on single-broker deployments).
    shard_owners: Vec<(DistrictId, String)>,
    /// Client half used by the fleet scraper's probes; each keeps its
    /// target, stamped with the round that sent it, until it settles.
    ws_client: WsClient<(u64, Probe)>,
    /// Fleet scraper state; `None` until enabled.
    scrape: Option<FleetScrape>,
    /// Admission gate over the query endpoints; registrations,
    /// heartbeats and the ops plane are never shed.
    gate: AdmissionGate,
    /// Per-district circuit breakers over aggregator rollup probes.
    breakers: BTreeMap<DistrictId, CircuitBreaker>,
    /// Last good rollup snapshot per district, served stale while that
    /// district's breaker is open.
    rollup_cache: BTreeMap<DistrictId, (SimTime, Value)>,
    stats: MasterStats,
    series: OnceCell<MasterSeries>,
}

impl std::fmt::Debug for MasterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterNode")
            .field("districts", &self.ontology.district_count())
            .field("proxies", &self.registry.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MasterNode {
    /// Creates a master pre-seeded with `districts`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate district ids in `districts`.
    pub fn new(districts: impl IntoIterator<Item = (DistrictId, String)>) -> Self {
        let seeds: Vec<(DistrictId, String)> = districts.into_iter().collect();
        let mut ontology = Ontology::new();
        for (id, name) in &seeds {
            ontology
                .add_district(id.clone(), name.clone())
                .expect("district seeds must be unique");
        }
        MasterNode {
            ontology,
            ws: WsServer::new(),
            routes: DistrictRoutes::new(),
            registry: BTreeMap::new(),
            parked: BTreeMap::new(),
            seeds,
            shard_owners: Vec::new(),
            ws_client: WsClient::new(WS_CLIENT_TAGS),
            scrape: None,
            gate: AdmissionGate::new(DEFAULT_ADMISSION_CAPACITY, DEFAULT_ADMISSION_RATE),
            breakers: BTreeMap::new(),
            rollup_cache: BTreeMap::new(),
            stats: MasterStats::default(),
            series: OnceCell::new(),
        }
    }

    fn series(&self, ctx: &Context<'_>) -> &MasterSeries {
        self.series
            .get_or_init(|| MasterSeries::resolve(&ctx.telemetry().metrics))
    }

    /// Replaces the query admission limits: at most `capacity` queued
    /// queries, drained at `drain_per_sec`. Queries past the bound are
    /// answered with a cheap 503 carrying a `Retry-After`.
    pub fn set_admission_limits(&mut self, capacity: u64, drain_per_sec: f64) {
        self.gate = AdmissionGate::new(capacity, drain_per_sec);
    }

    /// Turns on the periodic fleet scraper: every `interval` the master
    /// probes each registered proxy's `GET /health` (plus every broker
    /// tracked with [`MasterNode::track_broker`]) and records who
    /// answered, feeding the `ops.up.<name>` / `ops.scrape_age_ns.<name>`
    /// gauges and the `/fleet/*` endpoints.
    pub fn enable_fleet_scrape(&mut self, interval: SimDuration) {
        self.scrape = Some(FleetScrape {
            interval,
            round: 0,
            brokers: Vec::new(),
            records: BTreeMap::new(),
            inflight_ops: BTreeMap::new(),
            next_ops_id: 1,
        });
    }

    /// Adds a broker shard to the fleet scrape (brokers speak the
    /// middleware wire, not the Web Service, so they cannot register
    /// like proxies). Enables the scraper at
    /// `DEFAULT_SCRAPE_INTERVAL` if it was off.
    pub fn track_broker(&mut self, label: impl Into<String>, node: NodeId) {
        if self.scrape.is_none() {
            self.enable_fleet_scrape(DEFAULT_SCRAPE_INTERVAL);
        }
        let scrape = self.scrape.as_mut().expect("just enabled");
        let label = label.into();
        scrape.brokers.retain(|(l, _)| *l != label);
        scrape.brokers.push((label, node));
    }

    /// Records the broker shard owning each listed district. The
    /// assignment is part of the deployment plan, not learned state, so
    /// it survives restarts the way seeds do: reapplied when the
    /// ontology is rebuilt.
    pub fn set_shard_owners(&mut self, owners: impl IntoIterator<Item = (DistrictId, String)>) {
        self.shard_owners = owners.into_iter().collect();
        self.apply_shard_owners();
    }

    fn apply_shard_owners(&mut self) {
        for (district, broker) in &self.shard_owners.clone() {
            self.ensure_district(district);
            self.ontology
                .district_mut(district)
                .expect("just ensured")
                .set_broker(broker.clone());
        }
    }

    /// The live ontology (read access for tests and experiments).
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The registry counters.
    pub fn stats(&self) -> MasterStats {
        self.stats
    }

    /// Number of registered proxies.
    pub fn proxy_count(&self) -> usize {
        self.registry.len()
    }

    fn ensure_district(&mut self, district: &DistrictId) {
        if self.ontology.district(district).is_none() {
            self.ontology
                .add_district(district.clone(), district.as_str())
                .expect("checked absent");
        }
    }

    fn apply_registration(
        &mut self,
        registration: Registration,
        now: SimTime,
    ) -> Result<(), OntologyError> {
        self.ensure_district(&registration.district);
        let contribution = match &registration.role {
            ProxyRole::Device { entity_id, leaf } => {
                if self
                    .ontology
                    .district(&registration.district)
                    .and_then(|t| t.entity(entity_id))
                    .is_none()
                {
                    // Entity not known yet: park the registration until
                    // its Database-proxy shows up. A parked device has no
                    // registry record, so its heartbeats are answered 404
                    // and it registers again: that copy replaces the one
                    // it parked before.
                    self.stats.parked_devices += 1;
                    let waiting = self
                        .parked
                        .entry((registration.district.clone(), entity_id.clone()))
                        .or_default();
                    waiting.retain(|r| {
                        r.proxy != registration.proxy
                            || !matches!(&r.role, ProxyRole::Device { leaf: l, .. }
                                if l.device() == leaf.device())
                    });
                    waiting.push(registration);
                    return Ok(());
                }
                let device_id = leaf.device().as_str().to_owned();
                // Re-registration of the same device replaces the leaf.
                self.ontology
                    .remove_device(&registration.district, &device_id)?;
                self.ontology
                    .add_device(&registration.district, entity_id, leaf.clone())?;
                Contribution::Device {
                    device_id,
                    entity_id: entity_id.clone(),
                }
            }
            ProxyRole::EntityDatabase { entity } => {
                let entity_id = entity.id().to_owned();
                // A re-registration (e.g. after a lost response) replaces
                // the entity node but must not orphan device leaves that
                // registered under it in the meantime.
                let leaves: Vec<_> = self
                    .ontology
                    .district(&registration.district)
                    .and_then(|t| t.entity(&entity_id))
                    .map(|e| e.devices().to_vec())
                    .unwrap_or_default();
                self.ontology
                    .remove_entity(&registration.district, &entity_id)?;
                self.ontology
                    .add_entity(&registration.district, entity.clone())?;
                for leaf in leaves {
                    let _ = self
                        .ontology
                        .add_device(&registration.district, &entity_id, leaf);
                }
                Contribution::Entity { entity_id }
            }
            ProxyRole::Gis => {
                self.ontology
                    .district_mut(&registration.district)?
                    .add_gis_proxy(registration.uri.clone());
                Contribution::DistrictRoot
            }
            ProxyRole::MeasurementArchive => {
                self.ontology
                    .district_mut(&registration.district)?
                    .add_measurement_proxy(registration.uri.clone());
                Contribution::DistrictRoot
            }
            ProxyRole::Aggregator => {
                self.ontology
                    .district_mut(&registration.district)?
                    .add_aggregator_proxy(registration.uri.clone());
                Contribution::DistrictRoot
            }
        };
        self.registry.insert(
            registration.proxy.clone(),
            ProxyRecord {
                district: registration.district.clone(),
                uri: registration.uri.clone(),
                kind: match &registration.role {
                    ProxyRole::Device { .. } => "device",
                    ProxyRole::EntityDatabase { .. } => "entity_database",
                    ProxyRole::Aggregator => "aggregator",
                    ProxyRole::Gis | ProxyRole::MeasurementArchive => "district_root",
                },
                contribution,
                last_seen: now,
            },
        );
        self.stats.registrations += 1;
        // A device parks only while its entity is unknown, and an entity
        // becomes known only here: apply the devices waiting for this
        // one, in arrival order. Each finds its entity and parks no more.
        if let ProxyRole::EntityDatabase { entity } = &registration.role {
            let key = (registration.district, entity.id().to_owned());
            for device in self.parked.remove(&key).unwrap_or_default() {
                let _ = self.apply_registration(device, now);
            }
        }
        Ok(())
    }

    /// Device registrations parked, over all entities.
    fn parked_count(&self) -> i64 {
        self.parked
            .values()
            .map(|waiting| waiting.len() as i64)
            .sum()
    }

    fn remove_contribution(&mut self, record: &ProxyRecord) {
        match &record.contribution {
            Contribution::Device { device_id, .. } => {
                let _ = self.ontology.remove_device(&record.district, device_id);
            }
            Contribution::Entity { entity_id } => {
                let _ = self.ontology.remove_entity(&record.district, entity_id);
                // The entity's device leaves died with it. Forget their
                // proxies' registrations too, so their next heartbeat is
                // answered 404 and they re-register (parking until the
                // entity returns).
                self.registry.retain(|_, r| {
                    r.district != record.district
                        || !matches!(
                            &r.contribution,
                            Contribution::Device { entity_id: e, .. } if e == entity_id
                        )
                });
            }
            Contribution::DistrictRoot => {
                // GIS/measurement proxies stay listed on the root; a
                // production system would prune the URI list here.
            }
        }
    }

    /// Whether a request rides the query plane (sheddable) rather than
    /// the control or ops plane (never shed: losing registrations or
    /// health probes under load would turn overload into gray failure).
    fn is_query(request: &WsRequest) -> bool {
        request.method == proxy::webservice::Method::Get
            && !matches!(
                request.path.as_str(),
                "/health" | "/metrics" | "/fleet/health" | "/fleet/metrics"
            )
    }

    fn handle(&mut self, ctx: &mut Context<'_>, call: WsCall) {
        self.series(ctx).requests.incr();
        if Self::is_query(&call.request) {
            if let Admission::Shed { retry_after } =
                self.gate.try_admit(ctx.now(), &ctx.telemetry().metrics)
            {
                let response = WsResponse::unavailable(retry_after);
                self.ws.respond(ctx, &call, response);
                return;
            }
        }
        let request = &call.request;
        let response = match (request.method, request.path.as_str()) {
            (proxy::webservice::Method::Post, "/register") => self.post_register(ctx, request),
            (proxy::webservice::Method::Post, "/deregister") => self.post_deregister(request),
            (proxy::webservice::Method::Post, "/heartbeat") => self.post_heartbeat(ctx, request),
            (proxy::webservice::Method::Get, "/districts") => self.get_districts(),
            (proxy::webservice::Method::Get, "/proxies") => {
                self.stats.queries += 1;
                WsResponse::ok(Value::object([(
                    "proxies",
                    Value::Array(
                        self.registry
                            .iter()
                            .map(|(id, record)| {
                                Value::object([
                                    ("proxy", Value::from(id.as_str())),
                                    ("district", Value::from(record.district.as_str())),
                                    ("kind", Value::from(record.kind)),
                                    ("uri", Value::from(record.uri.to_string())),
                                ])
                            })
                            .collect(),
                    ),
                )]))
            }
            (proxy::webservice::Method::Get, "/ontology") => {
                self.stats.queries += 1;
                WsResponse::ok(self.ontology.to_value())
            }
            (proxy::webservice::Method::Get, "/metrics") => {
                WsResponse::ok(Value::from(ctx.telemetry().exposition()))
            }
            (proxy::webservice::Method::Get, "/health") => self.get_health(),
            (proxy::webservice::Method::Get, "/fleet/metrics") => {
                // A fleet scrape is the natural refresh point: recompute
                // SLO attainment from the histograms and fold the
                // scraper's up/staleness view in before rendering.
                ctx.telemetry().slo_refresh();
                self.refresh_fleet_gauges(ctx);
                WsResponse::ok(Value::from(ctx.telemetry().exposition()))
            }
            (proxy::webservice::Method::Get, "/fleet/health") => self.get_fleet_health(ctx),
            (proxy::webservice::Method::Get, "/stats") => WsResponse::ok(Value::object([
                (
                    "registrations",
                    Value::from(self.stats.registrations as i64),
                ),
                ("heartbeats", Value::from(self.stats.heartbeats as i64)),
                ("queries", Value::from(self.stats.queries as i64)),
                ("evictions", Value::from(self.stats.evictions as i64)),
                ("proxies", Value::from(self.registry.len() as i64)),
                ("parked_devices", Value::from(self.parked_count())),
            ])),
            (proxy::webservice::Method::Get, path) => match self.get_routed(ctx, path, request) {
                Answer::Tree(response) => response,
                Answer::Encoded(response) => {
                    self.ws.respond_encoded(ctx, &call, &response);
                    return;
                }
            },
            _ => WsResponse::error(status::NOT_FOUND, "unknown endpoint"),
        };
        self.ws.respond(ctx, &call, response);
    }

    fn post_register(&mut self, ctx: &mut Context<'_>, request: &WsRequest) -> WsResponse {
        match Registration::from_value(&request.body) {
            Ok(registration) => {
                let proxy = registration.proxy.clone();
                match self.apply_registration(registration, ctx.now()) {
                    Ok(()) => {
                        let series = self.series(ctx);
                        series.registrations.incr();
                        series.proxies.set(self.registry.len() as f64);
                        WsResponse::ok(Value::object([("registered", Value::from(proxy.as_str()))]))
                    }
                    Err(e) => WsResponse::error(status::INTERNAL_ERROR, e.to_string()),
                }
            }
            Err(e) => WsResponse::error(status::BAD_REQUEST, e.to_string()),
        }
    }

    fn post_deregister(&mut self, request: &WsRequest) -> WsResponse {
        match ProxyRef::from_value(&request.body) {
            Ok(r) => match self.registry.remove(&r.proxy) {
                Some(record) => {
                    self.remove_contribution(&record);
                    WsResponse::ok(Value::object([(
                        "deregistered",
                        Value::from(r.proxy.as_str()),
                    )]))
                }
                None => WsResponse::error(status::NOT_FOUND, "unknown proxy"),
            },
            Err(e) => WsResponse::error(status::BAD_REQUEST, e.to_string()),
        }
    }

    fn post_heartbeat(&mut self, ctx: &mut Context<'_>, request: &WsRequest) -> WsResponse {
        match ProxyRef::from_value(&request.body) {
            Ok(r) => match self.registry.get_mut(&r.proxy) {
                Some(record) => {
                    record.last_seen = ctx.now();
                    self.stats.heartbeats += 1;
                    self.series(ctx).heartbeats.incr();
                    WsResponse::ok(Value::Null)
                }
                None => WsResponse::error(status::NOT_FOUND, "unknown proxy"),
            },
            Err(e) => WsResponse::error(status::BAD_REQUEST, e.to_string()),
        }
    }

    fn get_districts(&mut self) -> WsResponse {
        self.stats.queries += 1;
        let list: Vec<Value> = self
            .ontology
            .districts()
            .filter_map(|id| self.ontology.district(id))
            .map(|tree| {
                Value::object([
                    ("district", Value::from(tree.district().as_str())),
                    ("name", Value::from(tree.name())),
                    ("entities", Value::from(tree.entities().len() as i64)),
                    ("devices", Value::from(tree.device_count() as i64)),
                ])
            })
            .collect();
        WsResponse::ok(Value::object([("districts", Value::Array(list))]))
    }

    fn get_routed(&mut self, ctx: &Context<'_>, path: &str, request: &WsRequest) -> Answer {
        let Some((route, id)) = self.routes.find(path) else {
            return WsResponse::error(status::NOT_FOUND, "unknown endpoint").into();
        };
        self.stats.queries += 1;
        let Ok(district) = DistrictId::new(id) else {
            return WsResponse::error(status::BAD_REQUEST, "invalid district id").into();
        };
        match route {
            Route::Profile => self.get_profile(ctx, &district).into(),
            Route::Area => self.get_area(&district, request),
            Route::Entities => self.get_entities(&district, request).into(),
            Route::Devices => self.get_devices(&district, request).into(),
            Route::Tree => match self.ontology.district(&district) {
                Some(tree) => WsResponse::ok(tree.to_value()).into(),
                None => WsResponse::error(status::NOT_FOUND, "unknown district").into(),
            },
        }
    }

    /// Redirect principle: hand back the aggregator URIs serving this
    /// district's rollups, never the rollups themselves — except in
    /// degraded mode, where a stale snapshot beats a redirect into an
    /// open circuit.
    fn get_profile(&self, ctx: &Context<'_>, district: &DistrictId) -> WsResponse {
        let Some(tree) = self.ontology.district(district) else {
            return WsResponse::error(status::NOT_FOUND, "unknown district");
        };
        let uris: Vec<String> = tree
            .aggregator_proxies()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let (kept, ejected) = self.eject_outliers(uris);
        if ejected > 0 {
            self.series(ctx).outlier_ejections.add(ejected);
        }
        let open = matches!(
            self.breakers.get(district).map(CircuitBreaker::state),
            Some(BreakerState::Open)
        );
        let aggregators = Value::Array(kept.iter().map(|u| Value::from(u.as_str())).collect());
        if open || kept.is_empty() {
            // The district's aggregator is open-circuit (or every
            // replica was ejected): serve the last retained rollups
            // with a staleness marker instead of a dead redirect.
            if let Some((at, rollups)) = self.rollup_cache.get(district) {
                self.series(ctx).stale_rollups.incr();
                return WsResponse::ok(Value::object([
                    ("district", Value::from(district.as_str())),
                    ("aggregators", aggregators),
                    ("stale", Value::from(true)),
                    (
                        "staleness_ms",
                        Value::from(ctx.now().saturating_since(*at).as_millis_f64() as i64),
                    ),
                    ("rollups", rollups.clone()),
                ]));
            }
        }
        WsResponse::ok(Value::object([
            ("district", Value::from(district.as_str())),
            ("aggregators", aggregators),
            ("stale", Value::from(false)),
        ]))
    }

    /// The redirect response, written by the ontology's typed writer
    /// straight from the entities the box matches.
    fn get_area(&self, district: &DistrictId, request: &WsRequest) -> Answer {
        let Some(raw) = request.query("bbox") else {
            return WsResponse::error(status::BAD_REQUEST, "bbox parameter required").into();
        };
        let bbox = match BoundingBox::parse_query(raw) {
            Ok(b) => b,
            Err(e) => return WsResponse::error(status::BAD_REQUEST, e.to_string()).into(),
        };
        match self.ontology.match_area(district, &bbox) {
            Ok(hit) => Answer::Encoded(encode_response(status::OK, request.format, |w| {
                hit.write(w);
            })),
            Err(e) => WsResponse::error(status::NOT_FOUND, e.to_string()).into(),
        }
    }

    fn get_entities(&self, district: &DistrictId, request: &WsRequest) -> WsResponse {
        let kind = match request.query("kind").map(EntityKind::parse) {
            Some(Ok(k)) => k,
            Some(Err(e)) => return WsResponse::error(status::BAD_REQUEST, e.to_string()),
            None => EntityKind::Building,
        };
        match self.ontology.entities_of_kind(district, kind) {
            Ok(entities) => WsResponse::ok(Value::object([(
                "entities",
                Value::Array(entities.iter().map(|e| e.to_value()).collect()),
            )])),
            Err(e) => WsResponse::error(status::NOT_FOUND, e.to_string()),
        }
    }

    fn get_devices(&self, district: &DistrictId, request: &WsRequest) -> WsResponse {
        let devices = match (request.query("quantity"), request.query("protocol")) {
            (Some(q), _) => match QuantityKind::parse(q) {
                Ok(quantity) => self.ontology.devices_by_quantity(district, quantity),
                Err(e) => return WsResponse::error(status::BAD_REQUEST, e.to_string()),
            },
            (None, Some(protocol)) => self.ontology.devices_by_protocol(district, protocol),
            (None, None) => {
                return WsResponse::error(
                    status::BAD_REQUEST,
                    "quantity or protocol parameter required",
                )
            }
        };
        match devices {
            Ok(devices) => WsResponse::ok(Value::object([(
                "devices",
                Value::Array(
                    devices
                        .iter()
                        .map(|(entity, leaf)| {
                            let mut v = leaf.to_value();
                            v.insert("entity", Value::from(*entity));
                            v
                        })
                        .collect(),
                ),
            )])),
            Err(e) => WsResponse::error(status::NOT_FOUND, e.to_string()),
        }
    }

    /// Filters known-bad aggregators out of a redirect list: replicas
    /// the scraper saw go down, plus latency outliers — probes slower
    /// than [`OUTLIER_LATENCY_FLOOR`] *and* three times the fleet
    /// median. Returns the surviving URIs and the eject count.
    fn eject_outliers(&self, uris: Vec<String>) -> (Vec<String>, u64) {
        let Some(scrape) = self.scrape.as_ref() else {
            return (uris, 0);
        };
        let mut lats: Vec<u64> = scrape
            .records
            .values()
            .filter(|r| r.kind == "aggregator")
            .filter_map(|r| r.latency.map(|l| l.as_nanos()))
            .collect();
        lats.sort_unstable();
        // Lower-middle median: with two replicas the healthy one sets
        // the norm, so the slow one still reads as an outlier.
        let median = lats.get(lats.len().saturating_sub(1) / 2).copied();
        let by_uri: BTreeMap<String, &ScrapeRecord> = self
            .registry
            .iter()
            .filter(|(_, rec)| rec.kind == "aggregator")
            .filter_map(|(id, rec)| {
                scrape
                    .records
                    .get(id.as_str())
                    .map(|s| (rec.uri.to_string(), s))
            })
            .collect();
        let mut ejected = 0;
        let kept = uris
            .into_iter()
            .filter(|uri| {
                // Never scraped (or scraper off for it): innocent until
                // proven slow.
                let Some(rec) = by_uri.get(uri) else {
                    return true;
                };
                let down = rec.last_ok.is_some() && !rec.up;
                let slow = match (rec.latency, median) {
                    (Some(l), Some(m)) => {
                        l > OUTLIER_LATENCY_FLOOR && l.as_nanos() > m.saturating_mul(3)
                    }
                    _ => false,
                };
                if down || slow {
                    ejected += 1;
                    false
                } else {
                    true
                }
            })
            .collect();
        (kept, ejected)
    }

    /// One scrape round: expire the previous round's unanswered probes,
    /// refresh the fleet gauges, then fan a fresh `/health` probe out to
    /// every registered proxy and tracked broker.
    fn run_scrape(&mut self, ctx: &mut Context<'_>) {
        let Some(scrape) = self.scrape.as_mut() else {
            return;
        };
        // A probe still in flight from the previous round never
        // answered; its answer, if any, is ignored.
        for settled in self.ws_client.awaited() {
            let (round, probe) = &settled.meta;
            if *round == scrape.round {
                probe_failed(scrape, &mut self.breakers, probe, ctx);
            }
        }
        for name in std::mem::take(&mut scrape.inflight_ops).into_values() {
            probe_failed(scrape, &mut self.breakers, &Probe::Health(name), ctx);
        }
        scrape.round += 1;
        let round = scrape.round;
        ctx.telemetry().metrics.counter_handle("ops.scrapes").incr();
        // Proxies: whatever the registry holds right now, probed over
        // the Web Service at the node its registration URI names.
        let proxies: Vec<(String, NodeId, &'static str)> = self
            .registry
            .iter()
            .filter_map(|(id, record)| {
                uri_node(&record.uri).map(|node| (id.as_str().to_owned(), node, record.kind))
            })
            .collect();
        for (name, node, kind) in proxies {
            let probe = (round, Probe::Health(name.clone()));
            self.ws_client
                .request(ctx, node, &WsRequest::get("/health"), probe);
            scrape.records.entry(name).or_insert(ScrapeRecord {
                kind,
                last_ok: None,
                up: false,
                latency: None,
                health: Value::Null,
            });
        }
        // Brokers: probed over the middleware ops tags.
        for (label, node) in scrape.brokers.clone() {
            let id = scrape.next_ops_id;
            scrape.next_ops_id += 1;
            ctx.send(
                node,
                PUBSUB_PORT,
                WirePacketRef::OpsGet {
                    id,
                    path: "/health",
                }
                .encode(),
            );
            scrape.inflight_ops.insert(id, label.clone());
            scrape.records.entry(label).or_insert(ScrapeRecord {
                kind: "broker",
                last_ok: None,
                up: false,
                latency: None,
                health: Value::Null,
            });
        }
        // Rollup snapshot probes: one aggregator per district (smallest
        // proxy id, for determinism), gated by that district's breaker —
        // an open circuit stops probing until the half-open window.
        let mut targets: BTreeMap<DistrictId, NodeId> = BTreeMap::new();
        let aggregators = self.registry.values().filter(|r| r.kind == "aggregator");
        for rec in aggregators {
            // The registry is in id order: a district's first is its smallest.
            if let Some(node) = uri_node(&rec.uri) {
                targets.entry(rec.district.clone()).or_insert(node);
            }
        }
        for (district, node) in targets {
            let breaker = self
                .breakers
                .entry(district.clone())
                .or_insert_with(|| CircuitBreaker::new(district_breaker_config()));
            if !breaker.allow(ctx.now(), &ctx.telemetry().metrics) {
                continue;
            }
            let probe = (round, Probe::Rollups(district));
            self.ws_client
                .request(ctx, node, &WsRequest::get("/rollups"), probe);
        }
        self.refresh_fleet_gauges(ctx);
    }

    /// Publishes the scraper's view as gauges: `ops.up.<name>` (1 up,
    /// 0 down) and `ops.scrape_age_ns.<name>` (time since the last
    /// successful scrape; sim age when never scraped).
    fn refresh_fleet_gauges(&self, ctx: &Context<'_>) {
        let Some(scrape) = self.scrape.as_ref() else {
            return;
        };
        let metrics = &ctx.telemetry().metrics;
        for (name, rec) in &scrape.records {
            metrics
                .gauge_handle(&format!("ops.up.{name}"))
                .set(if rec.up { 1.0 } else { 0.0 });
            let age = match rec.last_ok {
                Some(t) => ctx.now().saturating_since(t).as_nanos(),
                None => ctx.now().as_nanos(),
            };
            metrics
                .gauge_handle(&format!("ops.scrape_age_ns.{name}"))
                .set(age as f64);
        }
    }

    /// Settles a Web-Service probe by its answer or its expiry; one
    /// settled after its round ended is ignored.
    fn on_scrape_ws_event(&mut self, ctx: &Context<'_>, event: WsClientEvent<(u64, Probe)>) {
        let (settled, response) = match event {
            WsClientEvent::Response { settled, response } => (settled, Some(response)),
            WsClientEvent::TimedOut(settled) => (settled, None),
        };
        let (round, probe) = settled.meta;
        let Some(scrape) = self.scrape.as_mut().filter(|s| s.round == round) else {
            return;
        };
        let latency = ctx.now().saturating_since(settled.issued_at);
        match (probe, response.filter(WsResponse::is_ok)) {
            (Probe::Rollups(district), Some(response)) => {
                self.breakers
                    .entry(district.clone())
                    .or_insert_with(|| CircuitBreaker::new(district_breaker_config()))
                    .record_success(ctx.now(), latency, &ctx.telemetry().metrics);
                self.rollup_cache
                    .insert(district, (ctx.now(), response.body));
            }
            (Probe::Health(name), Some(response)) => {
                if let Some(rec) = scrape.records.get_mut(&name) {
                    rec.up = true;
                    rec.last_ok = Some(ctx.now());
                    rec.latency = Some(latency);
                    rec.health = response.body;
                }
            }
            (probe, None) => probe_failed(scrape, &mut self.breakers, &probe, ctx),
        }
    }

    fn on_scrape_ops_reply(&mut self, ctx: &Context<'_>, id: u64, reply_status: u16, body: &[u8]) {
        let Some(scrape) = self.scrape.as_mut() else {
            return;
        };
        let Some(name) = scrape.inflight_ops.remove(&id) else {
            return;
        };
        if let Some(rec) = scrape.records.get_mut(&name) {
            rec.up = reply_status == status::OK;
            if rec.up {
                rec.last_ok = Some(ctx.now());
                rec.health = std::str::from_utf8(body)
                    .ok()
                    .and_then(|text| dimmer_core::json::from_str(text).ok())
                    .unwrap_or(Value::Null);
            }
        }
    }

    /// The master's own liveness view.
    fn get_health(&self) -> WsResponse {
        WsResponse::ok(Value::object([
            ("status", Value::from("ok")),
            ("kind", Value::from("master")),
            ("proxies", Value::from(self.registry.len() as i64)),
            ("parked_devices", Value::from(self.parked_count())),
            (
                "districts",
                Value::from(self.ontology.district_count() as i64),
            ),
            ("fleet_scrape", Value::from(self.scrape.is_some())),
        ]))
    }

    /// The merged fleet liveness view: one entry per scraped node with
    /// its up/down verdict, scrape staleness and last health body.
    fn get_fleet_health(&self, ctx: &Context<'_>) -> WsResponse {
        let Some(scrape) = self.scrape.as_ref() else {
            return WsResponse::error(status::NOT_FOUND, "fleet scrape not enabled");
        };
        self.refresh_fleet_gauges(ctx);
        let (mut up, mut down) = (0i64, 0i64);
        let nodes: Vec<Value> = scrape
            .records
            .iter()
            .map(|(name, rec)| {
                if rec.up {
                    up += 1;
                } else {
                    down += 1;
                }
                let age = match rec.last_ok {
                    Some(t) => ctx.now().saturating_since(t).as_nanos(),
                    None => ctx.now().as_nanos(),
                };
                Value::object([
                    ("name", Value::from(name.as_str())),
                    ("kind", Value::from(rec.kind)),
                    ("up", Value::from(rec.up)),
                    ("scrape_age_ns", Value::from(age as i64)),
                    ("health", rec.health.clone()),
                ])
            })
            .collect();
        WsResponse::ok(Value::object([
            (
                "status",
                Value::from(if down == 0 { "ok" } else { "degraded" }),
            ),
            ("up", Value::from(up)),
            ("down", Value::from(down)),
            ("nodes", Value::Array(nodes)),
        ]))
    }

    fn sweep_liveness(&mut self, now: SimTime) -> u64 {
        let mut dead: Vec<ProxyId> = self
            .registry
            .iter()
            .filter(|(_, record)| now.saturating_since(record.last_seen) > LIVENESS_HORIZON)
            .map(|(id, _)| id.clone())
            .collect();
        // Evict device proxies before entity proxies (an entity eviction
        // cascades over its devices' records, which would otherwise hide
        // their own evictions), and sort for a deterministic sweep.
        dead.sort_by_cached_key(|id| {
            let entity = matches!(
                self.registry.get(id).map(|r| &r.contribution),
                Some(Contribution::Entity { .. })
            );
            (entity, id.as_str().to_owned())
        });
        let mut evicted = 0;
        for id in dead {
            if let Some(record) = self.registry.remove(&id) {
                self.remove_contribution(&record);
                self.stats.evictions += 1;
                evicted += 1;
            }
        }
        evicted
    }
}

impl Node for MasterNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(LIVENESS_PERIOD, TAG_LIVENESS);
        if let Some(scrape) = &self.scrape {
            ctx.set_timer(scrape.interval, TAG_SCRAPE);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // The registry, parked registrations and ontology are in-memory
        // state: they die with the process, and only the district seeds
        // come back. Proxies discover the loss when their next heartbeat
        // is answered 404 and re-register, repopulating the ontology.
        // Lifetime counters in `stats` survive, like a persisted log.
        self.ontology = Ontology::new();
        for (id, name) in &self.seeds {
            self.ontology
                .add_district(id.clone(), name.clone())
                .expect("seeds were unique at construction");
        }
        self.apply_shard_owners();
        self.registry.clear();
        self.parked.clear();
        self.ws_client.reset();
        if let Some(scrape) = &mut self.scrape {
            // In-flight probes died with the process; the records (and
            // their gauges) survive like any other lifetime counter.
            scrape.inflight_ops.clear();
        }
        // Breaker windows and the stale-rollup cache are in-memory
        // state: they die with the process like the registry.
        self.breakers.clear();
        self.rollup_cache.clear();
        ctx.telemetry()
            .metrics
            .counter_handle("master.restart")
            .incr();
        self.series(ctx).proxies.set(0.0);
        self.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match pkt.port {
            WS_PORT => {
                if let Some(event) = self.ws_client.accept(&pkt) {
                    self.on_scrape_ws_event(ctx, event);
                    return;
                }
                if let Some(call) = self.ws.accept(ctx, &pkt) {
                    self.handle(ctx, call);
                }
            }
            PUBSUB_PORT => {
                if let Ok(WirePacketRef::OpsReply { id, status, body }) =
                    WirePacketRef::decode(&pkt.payload)
                {
                    self.on_scrape_ops_reply(ctx, id, status, body);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_LIVENESS {
            let evicted = self.sweep_liveness(ctx.now());
            if evicted > 0 {
                ctx.telemetry()
                    .metrics
                    .counter_handle("master.evictions")
                    .add(evicted);
                self.series(ctx).proxies.set(self.registry.len() as f64);
            }
            ctx.set_timer(LIVENESS_PERIOD, TAG_LIVENESS);
        } else if tag == TAG_SCRAPE {
            self.run_scrape(ctx);
            if let Some(scrape) = &self.scrape {
                ctx.set_timer(scrape.interval, TAG_SCRAPE);
            }
        } else if tag.0 >= WS_CLIENT_TAGS {
            if let Some(event) = self.ws_client.on_timer(ctx, tag) {
                self.on_scrape_ws_event(ctx, event);
            }
        }
    }
}

#[cfg(test)]
mod tests;
