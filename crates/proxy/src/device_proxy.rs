//! The Device-proxy — the paper's Fig. 1(b), as a network node.
//!
//! Three layers:
//!
//! 1. **Dedicated layer** — a [`DeviceAdapter`] decoding the device's
//!    native frames (pushed on [`crate::DEVICE_UPLINK_PORT`] or polled
//!    over its family's port, see [`crate::registry`]);
//! 2. **Local database** — a [`TimeSeriesStore`] holding every sample,
//!    with periodic retention;
//! 3. **Web Service layer** — data retrieval and remote actuation
//!    endpoints, plus publication of every new sample into the
//!    publish/subscribe middleware.
//!
//! On startup the proxy registers itself on the master node; it then
//! heartbeats periodically.

use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};

use dimmer_core::codec::{DataFormat, Writer};
use dimmer_core::{
    DeviceId, DistrictId, Measurement, MeasurementBatch, ProxyId, QuantityKind, Timestamp, Value,
};
use gis::geo::GeoPoint;
use ontology::DeviceLeaf;
use pubsub::{MeasurementTopic, PubSubClient, PubSubEvent, QoS, Topic, PUBSUB_PORT};
use simnet::overload::{Admission, AdmissionGate};
use simnet::rpc::{RequestTracker, RpcEvent};
use simnet::telemetry::{CounterHandle, GaugeHandle, Registry};
use simnet::{Context, Node, Packet, Port, SimDuration, TimerTag};
use storage::tskv::{Aggregate, SeriesId, TimeSeriesStore};

use crate::adapters::DeviceAdapter;
use crate::devices::unix_millis_at;
use crate::registration::{MasterReply, MasterSession, ProxyRole, Registration};
use crate::webservice::{encode_response, status, WsRequest, WsResponse, WsServer};
use crate::{node_uri, registry, DEVICE_DOWNLINK_PORT, WS_PORT};

const TAG_POLL: TimerTag = TimerTag(1);
const TAG_RETENTION: TimerTag = TimerTag(2);
const TAG_HEARTBEAT: TimerTag = TimerTag(3);
const TAG_REPLAY: TimerTag = TimerTag(5);
const TAG_TSKV_MAINTAIN: TimerTag = TimerTag(6);

const WS_CLIENT_TAGS: u64 = 1_000_000_000;
const PUBSUB_TAGS: u64 = 2_000_000_000;
const POLL_TAGS: u64 = 3_000_000_000;

const RETENTION_PERIOD: SimDuration = SimDuration::from_hours(1);
/// Storage maintenance cadence: seal cold partitions, compact,
/// checkpoint the WAL (see `TimeSeriesStore::maintain`).
const TSKV_MAINTAIN_PERIOD: SimDuration = SimDuration::from_secs(300);
const POLL_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Bounded store-and-forward capacity (QoS 1 samples held while the
/// broker is unreachable).
pub const STORE_FORWARD_CAPACITY: usize = 256;
/// First replay probe delay after the broker is detected down; doubles
/// (with jitter) up to [`REPLAY_BACKOFF_MAX`] on each failed probe.
const REPLAY_BACKOFF_BASE: SimDuration = SimDuration::from_secs(2);
const REPLAY_BACKOFF_MAX: SimDuration = SimDuration::from_secs(60);
/// Default admission bound on queued data queries (`/latest`, `/data`).
pub(crate) const DEFAULT_ADMISSION_CAPACITY: u64 = 32;
/// Default sustained data-query service rate (queries per second).
pub(crate) const DEFAULT_ADMISSION_RATE: f64 = 200.0;

/// Static configuration of a Device-proxy.
#[derive(Debug, Clone)]
pub struct DeviceProxyConfig {
    /// The proxy's own id.
    pub proxy: ProxyId,
    /// The district it registers under.
    pub district: DistrictId,
    /// The entity (building/network) its device belongs to.
    pub entity_id: String,
    /// The fronted device.
    pub device: DeviceId,
    /// The quantity the device primarily reports (advertised in the
    /// ontology leaf; multi-quantity devices list all series at /info).
    pub primary_quantity: QuantityKind,
    /// The master node.
    pub master: simnet::NodeId,
    /// The middleware broker, if publication is enabled.
    pub broker: Option<simnet::NodeId>,
    /// The device node (downlink/poll target), if any.
    pub device_node: Option<simnet::NodeId>,
    /// Poll period for polled protocols; `None` for push.
    pub poll_interval: Option<SimDuration>,
    /// Drop samples older than this, if set.
    pub retention: Option<SimDuration>,
    /// Device location, forwarded into the ontology.
    pub location: Option<GeoPoint>,
    /// Unix time at simulation start.
    pub epoch_offset_millis: i64,
    /// QoS for middleware publication.
    pub publish_qos: QoS,
}

/// Ingestion/serving counters for experiments.
#[derive(Debug, Clone, Default)]
pub struct DeviceProxyStats {
    /// Samples written to the local database.
    pub samples_ingested: u64,
    /// Frames that failed the dedicated layer.
    pub decode_errors: u64,
    /// Web-Service requests served.
    pub ws_requests: u64,
    /// Samples published into the middleware.
    pub published: u64,
    /// Actuation commands forwarded to the device.
    pub actuations: u64,
    /// QoS 1 samples parked in the store-and-forward buffer while the
    /// broker was unreachable.
    pub buffered: u64,
    /// Buffered samples successfully re-published after recovery.
    pub replayed: u64,
    /// Buffered samples dropped because the buffer was at capacity.
    /// Conservation: `buffered == replayed + shed_capacity + backlog`.
    pub shed_capacity: u64,
    /// Samples dropped at the door because their frame failed the
    /// dedicated layer — distinct from capacity shedding so overload
    /// and corruption cannot masquerade as each other.
    pub shed_decode: u64,
    /// Data queries (`/latest`, `/data`) shed by the admission gate.
    pub(crate) ws_shed: u64,
}

/// A sample on its way into the middleware — awaiting its QoS 1 ack,
/// or parked while the broker is unreachable — carrying its original
/// flight-recorder trace so end-to-end reconstruction survives the
/// outage. The topic and the JSON payload are functions of these
/// fields and the proxy's fixed identity, so they are rendered at each
/// publish (a replay re-encodes the same bytes) and never stored.
#[derive(Debug, Clone, Copy)]
struct BufferedSample {
    quantity: QuantityKind,
    unix: i64,
    value: f64,
    trace: u64,
    /// Causal parent for the next hop this sample takes (the span of
    /// the last hop recorded for it: ingest, buffer or replay).
    span: u64,
}

/// What a quantity resolves to for the life of the proxy, resolved by
/// its first sample.
struct QuantityRoute {
    quantity: QuantityKind,
    /// The local-database series, named after the quantity.
    series: SeriesId,
    /// The topic its samples publish under; `None` without a broker.
    topic: Option<Topic>,
}

/// The series written per sample, request or scrape, resolved on the
/// first callback that writes one. Outage, restart and re-register
/// events are rare and stay by-name.
struct ProxySeries {
    samples_ingested: CounterHandle,
    published: CounterHandle,
    buffered: CounterHandle,
    replayed: CounterHandle,
    shed_capacity: CounterHandle,
    shed_decode: CounterHandle,
    decode_errors: CounterHandle,
    ws_requests: CounterHandle,
    actuations: CounterHandle,
    backlog: GaugeHandle,
    inflight_publishes: GaugeHandle,
}

impl ProxySeries {
    fn resolve(m: &Registry) -> Self {
        ProxySeries {
            samples_ingested: m.counter_handle("proxy.samples_ingested"),
            published: m.counter_handle("proxy.published"),
            buffered: m.counter_handle("proxy.buffered"),
            replayed: m.counter_handle("proxy.replayed"),
            shed_capacity: m.counter_handle("proxy.shed_capacity"),
            shed_decode: m.counter_handle("proxy.shed_decode"),
            decode_errors: m.counter_handle("proxy.decode_errors"),
            ws_requests: m.counter_handle("proxy.ws_requests"),
            actuations: m.counter_handle("proxy.actuations"),
            backlog: m.gauge_handle("proxy.backlog"),
            inflight_publishes: m.gauge_handle("proxy.inflight_publishes"),
        }
    }
}

/// The Device-proxy node.
pub struct DeviceProxyNode {
    config: DeviceProxyConfig,
    adapter: Box<dyn DeviceAdapter>,
    /// The port the device answers polls on, from the adapter's row.
    poll_port: Option<Port>,
    store: TimeSeriesStore,
    /// One entry per quantity the device has reported: bounded by the
    /// variants of [`QuantityKind`], so a linear scan.
    routes: Vec<QuantityRoute>,
    /// The JSON payload of the publish in hand; kept for its buffer.
    payload: String,
    ws: WsServer,
    master: MasterSession,
    pubsub: Option<PubSubClient>,
    poll_tracker: RequestTracker,
    /// QoS 1 publish id → sample, until the broker acks it.
    inflight: HashMap<u64, BufferedSample>,
    /// Bounded store-and-forward buffer (oldest at the front).
    backlog: VecDeque<BufferedSample>,
    /// Whether the broker is currently considered unreachable.
    broker_down: bool,
    /// Current replay probe delay (exponential, jittered).
    replay_backoff: SimDuration,
    /// Admission gate over the data-query paths (`/latest`, `/data`);
    /// actuation and the ops plane are never shed.
    gate: AdmissionGate,
    stats: DeviceProxyStats,
    series: OnceCell<ProxySeries>,
}

impl std::fmt::Debug for DeviceProxyNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceProxyNode")
            .field("proxy", &self.config.proxy)
            .field("device", &self.config.device)
            .field("registered", &self.master.is_registered())
            .field("samples", &self.stats.samples_ingested)
            .finish()
    }
}

impl DeviceProxyNode {
    /// Creates a Device-proxy over `adapter`.
    pub fn new(config: DeviceProxyConfig, adapter: Box<dyn DeviceAdapter>) -> Self {
        let pubsub = config
            .broker
            .map(|broker| PubSubClient::new(broker, PUBSUB_TAGS));
        DeviceProxyNode {
            master: MasterSession::new(config.master, TAG_HEARTBEAT, WS_CLIENT_TAGS),
            config,
            poll_port: registry::family(adapter.protocol()).poll_port(),
            adapter,
            store: TimeSeriesStore::new(),
            routes: Vec::new(),
            payload: String::new(),
            ws: WsServer::new(),
            pubsub,
            poll_tracker: RequestTracker::new(POLL_TAGS),
            inflight: HashMap::new(),
            backlog: VecDeque::new(),
            broker_down: false,
            replay_backoff: REPLAY_BACKOFF_BASE,
            gate: AdmissionGate::new(DEFAULT_ADMISSION_CAPACITY, DEFAULT_ADMISSION_RATE),
            stats: DeviceProxyStats::default(),
            series: OnceCell::new(),
        }
    }

    fn series(&self, ctx: &Context<'_>) -> &ProxySeries {
        self.series
            .get_or_init(|| ProxySeries::resolve(&ctx.telemetry().metrics))
    }

    /// Whether the master has acknowledged registration.
    pub fn is_registered(&self) -> bool {
        self.master.is_registered()
    }

    /// QoS 1 samples currently parked waiting for the broker.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Attaches the device node after construction (deployment builders
    /// create the proxy before the device, so the id arrives late).
    pub fn set_device_node(&mut self, device_node: simnet::NodeId) {
        self.config.device_node = Some(device_node);
    }

    /// The counters.
    pub fn stats(&self) -> &DeviceProxyStats {
        &self.stats
    }

    /// The local database (layer 2), for inspection.
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// Test hook: mutable access to the local store, so chaos tests can
    /// force seals/checkpoints at precise crash points.
    #[doc(hidden)]
    pub fn store_mut(&mut self) -> &mut TimeSeriesStore {
        &mut self.store
    }

    /// The topic this proxy publishes `quantity` under.
    pub(crate) fn topic_for(&self, quantity: QuantityKind) -> Topic {
        MeasurementTopic::new(
            self.config.district.as_str(),
            self.config.entity_id.as_str(),
            self.config.device.as_str(),
            quantity.as_str(),
        )
        .topic()
        .expect("ids satisfy the topic grammar")
    }

    /// Index into `routes` of `quantity`'s entry, resolving it on the
    /// quantity's first sample.
    fn route(&mut self, quantity: QuantityKind) -> usize {
        if let Some(at) = self.routes.iter().position(|r| r.quantity == quantity) {
            return at;
        }
        self.routes.push(QuantityRoute {
            quantity,
            series: self.store.series_id(quantity.as_str()),
            topic: self.pubsub.is_some().then(|| self.topic_for(quantity)),
        });
        self.routes.len() - 1
    }

    fn registration(&self, ctx: &Context<'_>) -> Registration {
        let mut leaf = DeviceLeaf::new(
            self.config.device.clone(),
            self.adapter.protocol().as_str(),
            self.config.primary_quantity,
            node_uri(ctx.node_id(), "/data"),
        );
        if let Some(loc) = self.config.location {
            leaf = leaf.with_location(loc);
        }
        Registration {
            proxy: self.config.proxy.clone(),
            district: self.config.district.clone(),
            uri: node_uri(ctx.node_id(), "/"),
            role: ProxyRole::Device {
                entity_id: self.config.entity_id.clone(),
                leaf,
            },
        }
    }

    fn ingest(
        &mut self,
        ctx: &mut Context<'_>,
        samples: Vec<(QuantityKind, f64)>,
        trace: u64,
        parent_span: u64,
    ) {
        let unix = unix_millis_at(self.config.epoch_offset_millis, ctx.now());
        for (quantity, value) in samples {
            let route = self.route(quantity);
            self.store.insert_at(self.routes[route].series, unix, value);
            self.stats.samples_ingested += 1;
            self.series(ctx).samples_ingested.incr();
            let ingest_span = ctx.span_hop(
                "proxy.ingest",
                trace,
                parent_span,
                format_args!("device={} quantity={quantity}", self.config.device),
            );
            if self.pubsub.is_some() {
                let sample = BufferedSample {
                    quantity,
                    unix,
                    value,
                    trace,
                    span: ingest_span,
                };
                if self.config.publish_qos == QoS::AtLeastOnce && self.broker_down {
                    self.buffer_sample(ctx, sample);
                } else {
                    self.publish_sample(ctx, sample);
                }
            }
        }
    }

    /// Publishes one sample into the middleware, remembering QoS 1
    /// publishes until the broker acknowledges them.
    fn publish_sample(&mut self, ctx: &mut Context<'_>, sample: BufferedSample) {
        let route = self.route(sample.quantity);
        let (Some(pubsub), Some(topic)) = (&mut self.pubsub, &self.routes[route].topic) else {
            return;
        };
        self.payload.clear();
        Measurement::write_fields(
            &mut Writer::new(DataFormat::Json, &mut self.payload),
            &self.config.device,
            sample.quantity,
            sample.value,
            sample.quantity.canonical_unit(),
            Timestamp::from_unix_millis(sample.unix),
        );
        let id = pubsub.publish_ref(
            ctx,
            topic,
            self.payload.as_bytes(),
            true,
            self.config.publish_qos,
            sample.trace,
            sample.span,
        );
        self.stats.published += 1;
        self.series(ctx).published.incr();
        if self.config.publish_qos == QoS::AtLeastOnce {
            self.inflight.insert(id, sample);
        }
    }

    /// Parks a QoS 1 sample in the bounded store-and-forward buffer,
    /// shedding the oldest entry on overflow.
    fn buffer_sample(&mut self, ctx: &mut Context<'_>, mut sample: BufferedSample) {
        if self.backlog.len() >= STORE_FORWARD_CAPACITY {
            self.backlog.pop_front();
            self.stats.shed_capacity += 1;
            self.series(ctx).shed_capacity.incr();
        }
        sample.span = ctx.span_hop(
            "proxy.buffer",
            sample.trace,
            sample.span,
            format_args!("backlog={}", self.backlog.len() + 1),
        );
        self.backlog.push_back(sample);
        self.stats.buffered += 1;
        self.series(ctx).buffered.incr();
        self.series(ctx).backlog.set(self.backlog.len() as f64);
    }

    /// A QoS 1 publish ran out of retries: the broker is unreachable.
    fn on_publish_timeout(&mut self, ctx: &mut Context<'_>, id: u64) {
        if let Some(mut sample) = self.inflight.remove(&id) {
            // Requeue at the front — it is older than everything parked.
            if self.backlog.len() >= STORE_FORWARD_CAPACITY {
                // It enters the buffer's books and is immediately shed
                // (being the oldest), so `buffered == replayed +
                // shed_capacity + backlog` stays an exact identity.
                self.stats.buffered += 1;
                self.series(ctx).buffered.incr();
                self.stats.shed_capacity += 1;
                self.series(ctx).shed_capacity.incr();
            } else {
                sample.span = ctx.span_hop(
                    "proxy.buffer",
                    sample.trace,
                    sample.span,
                    format_args!("backlog={}", self.backlog.len() + 1),
                );
                self.backlog.push_front(sample);
                self.stats.buffered += 1;
                self.series(ctx).buffered.incr();
                self.series(ctx).backlog.set(self.backlog.len() as f64);
            }
        }
        if !self.broker_down {
            self.broker_down = true;
            self.replay_backoff = REPLAY_BACKOFF_BASE;
            ctx.telemetry().metrics.incr("proxy.broker_down");
        }
        self.arm_replay(ctx);
    }

    /// Arms the next replay probe with jittered exponential backoff.
    fn arm_replay(&mut self, ctx: &mut Context<'_>) {
        let jitter = ctx.rng().next_f64_range(0.75, 1.25);
        let delay = SimDuration::from_secs_f64(self.replay_backoff.as_secs_f64() * jitter);
        ctx.set_timer(delay, TAG_REPLAY);
        self.replay_backoff = SimDuration::from_secs_f64(
            (self.replay_backoff.as_secs_f64() * 2.0).min(REPLAY_BACKOFF_MAX.as_secs_f64()),
        );
    }

    /// The broker acknowledged a publish after an outage: replay the
    /// whole backlog in order.
    fn mark_broker_up(&mut self, ctx: &mut Context<'_>) {
        self.broker_down = false;
        self.replay_backoff = REPLAY_BACKOFF_BASE;
        ctx.telemetry().metrics.incr("proxy.broker_up");
        let parked: Vec<BufferedSample> = self.backlog.drain(..).collect();
        self.series(ctx).backlog.set(0.0);
        for mut sample in parked {
            sample.span = ctx.span_hop(
                "proxy.replay",
                sample.trace,
                sample.span,
                format_args!("device={}", self.config.device),
            );
            self.stats.replayed += 1;
            self.series(ctx).replayed.incr();
            self.publish_sample(ctx, sample);
        }
    }

    fn serve(&mut self, ctx: &mut Context<'_>, call: crate::webservice::WsCall) {
        self.stats.ws_requests += 1;
        self.series(ctx).ws_requests.incr();
        let request = &call.request;
        let response = match request.path.as_str() {
            "/info" => self.info(ctx),
            "/latest" | "/data" => match self.gate.try_admit(ctx.now(), &ctx.telemetry().metrics) {
                Admission::Admitted => {
                    let encoded = if request.path == "/latest" {
                        self.latest(request)
                    } else {
                        self.data(request)
                    };
                    match encoded {
                        Ok(bytes) => return self.ws.respond_encoded(ctx, &call, &bytes),
                        Err(refusal) => refusal,
                    }
                }
                Admission::Shed { retry_after } => {
                    self.stats.ws_shed += 1;
                    WsResponse::unavailable(retry_after)
                }
            },
            "/actuate" => self.actuate(ctx, request),
            "/metrics" => WsResponse::ok(Value::from(ctx.telemetry().exposition())),
            "/health" => self.health(ctx),
            _ => WsResponse::error(status::NOT_FOUND, "unknown path"),
        };
        self.ws.respond(ctx, &call, response);
    }

    fn info(&self, ctx: &Context<'_>) -> WsResponse {
        WsResponse::ok(Value::object([
            ("proxy", Value::from(self.config.proxy.as_str())),
            ("device", Value::from(self.config.device.as_str())),
            ("district", Value::from(self.config.district.as_str())),
            ("entity", Value::from(self.config.entity_id.as_str())),
            ("protocol", Value::from(self.adapter.protocol().as_str())),
            (
                "series",
                Value::Array(self.store.series_names().map(Value::from).collect()),
            ),
            (
                "uri",
                Value::from(node_uri(ctx.node_id(), "/data").to_string()),
            ),
        ]))
    }

    /// The ops-plane liveness view: identity plus the queue depths that
    /// show backpressure (store-and-forward backlog, unacked publishes).
    fn health(&self, ctx: &Context<'_>) -> WsResponse {
        let series = self.series(ctx);
        series.backlog.set(self.backlog.len() as f64);
        series.inflight_publishes.set(self.inflight.len() as f64);
        WsResponse::ok(Value::object([
            ("status", Value::from("ok")),
            ("proxy", Value::from(self.config.proxy.as_str())),
            ("device", Value::from(self.config.device.as_str())),
            ("kind", Value::from("device")),
            ("registered", Value::from(self.master.is_registered())),
            ("broker_down", Value::from(self.broker_down)),
            ("backlog", Value::from(self.backlog.len() as i64)),
            (
                "inflight_publishes",
                Value::from(self.inflight.len() as i64),
            ),
            (
                "samples_ingested",
                Value::from(self.stats.samples_ingested as i64),
            ),
        ]))
    }

    fn quantity_param(&self, request: &WsRequest) -> Result<QuantityKind, WsResponse> {
        match request.query("quantity") {
            Some(q) => QuantityKind::parse(q)
                .map_err(|e| WsResponse::error(status::BAD_REQUEST, e.to_string())),
            None => {
                // Default: the proxy's single series when unambiguous.
                let mut names = self.store.series_names();
                match (names.next(), names.next()) {
                    (Some(only), None) => QuantityKind::parse(only)
                        .map_err(|e| WsResponse::error(status::INTERNAL_ERROR, e.to_string())),
                    _ => Err(WsResponse::error(
                        status::BAD_REQUEST,
                        "quantity parameter required",
                    )),
                }
            }
        }
    }

    /// `GET /latest`: the newest sample, serialized in the request's
    /// format straight from the stored point; `Err` is the refusal.
    fn latest(&self, request: &WsRequest) -> Result<Vec<u8>, WsResponse> {
        let quantity = self.quantity_param(request)?;
        let (t, v) = self
            .store
            .latest(quantity.as_str())
            .ok_or_else(|| WsResponse::error(status::NOT_FOUND, "no samples yet"))?;
        Ok(encode_response(status::OK, request.format, |w| {
            Measurement::write_fields(
                w,
                &self.config.device,
                quantity,
                v,
                quantity.canonical_unit(),
                Timestamp::from_unix_millis(t),
            );
        }))
    }

    /// `GET /data`: a range (optionally downsampled) as a measurement
    /// batch, serialized in the request's format straight from the
    /// stored points; `Err` is the refusal.
    fn data(&self, request: &WsRequest) -> Result<Vec<u8>, WsResponse> {
        let quantity = self.quantity_param(request)?;
        let parse_millis = |key: &str, default: i64| -> Result<i64, WsResponse> {
            match request.query(key) {
                None => Ok(default),
                Some(raw) => raw
                    .parse()
                    .map_err(|_| WsResponse::error(status::BAD_REQUEST, format!("invalid {key}"))),
            }
        };
        let from = parse_millis("from", i64::MIN)?;
        let to = parse_millis("to", i64::MAX)?;
        let points = match (request.query("bucket"), request.query("agg")) {
            (Some(bucket), agg) => {
                let bucket = bucket
                    .parse::<i64>()
                    .ok()
                    .filter(|b| *b > 0)
                    .ok_or_else(|| WsResponse::error(status::BAD_REQUEST, "invalid bucket"))?;
                let agg = Aggregate::parse(agg.unwrap_or("mean"))
                    .ok_or_else(|| WsResponse::error(status::BAD_REQUEST, "unknown aggregate"))?;
                self.store
                    .downsample(quantity.as_str(), from, to, bucket, agg)
            }
            (None, _) => self.store.range(quantity.as_str(), from, to),
        };
        Ok(encode_response(status::OK, request.format, |w| {
            MeasurementBatch::write_series(
                w,
                &self.config.device,
                quantity,
                quantity.canonical_unit(),
                &points,
            );
        }))
    }

    fn actuate(&mut self, ctx: &mut Context<'_>, request: &WsRequest) -> WsResponse {
        if request.method != crate::webservice::Method::Post {
            return WsResponse::error(status::BAD_REQUEST, "actuation requires POST");
        }
        let Some(value) = request.body.get("value").and_then(Value::as_f64) else {
            return WsResponse::error(status::BAD_REQUEST, "body must carry a numeric value");
        };
        let Some(device_node) = self.config.device_node else {
            return WsResponse::error(status::NOT_FOUND, "no device attached");
        };
        match self.adapter.encode_actuation(value) {
            Some(bytes) => {
                ctx.send(device_node, DEVICE_DOWNLINK_PORT, bytes);
                self.stats.actuations += 1;
                self.series(ctx).actuations.incr();
                WsResponse::ok(Value::object([("actuated", Value::from(value))]))
            }
            None => WsResponse::error(status::BAD_REQUEST, "device is not actuatable"),
        }
    }

    fn poll(&mut self, ctx: &mut Context<'_>) {
        let (Some(device_node), Some(port), Some(request)) = (
            self.config.device_node,
            self.poll_port,
            self.adapter.poll_request(),
        ) else {
            return;
        };
        self.poll_tracker
            .send_request(ctx, device_node, port, request, POLL_TIMEOUT, 1);
    }
}

impl Node for DeviceProxyNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.store.attach_metrics(&ctx.telemetry().metrics);
        let registration = self.registration(ctx);
        self.master.start(ctx, registration);
        if let Some(interval) = self.config.poll_interval {
            ctx.set_timer(interval, TAG_POLL);
        }
        if self.config.retention.is_some() {
            ctx.set_timer(RETENTION_PERIOD, TAG_RETENTION);
        }
        ctx.set_timer(TSKV_MAINTAIN_PERIOD, TAG_TSKV_MAINTAIN);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // Volatile across a reboot: protocol trackers, registration, the
        // middleware session, and the store's mutable head. Durable: the
        // local database's sealed segments, snapshot, and WAL (layer 2),
        // the store-and-forward backlog and the lifetime counters. Replay
        // the WAL tail first so every acknowledged point is back before
        // any query or ingest runs.
        self.store.crash_recover();
        self.master.reset();
        self.poll_tracker.reset();
        // Unacked publishes were lost with the crash; park them (oldest
        // first) so they replay once the broker answers again.
        let mut unacked: Vec<(u64, BufferedSample)> = self.inflight.drain().collect();
        unacked.sort_by_key(|(id, _)| *id);
        if let Some(pubsub) = &mut self.pubsub {
            pubsub.reset();
        }
        for (_, sample) in unacked {
            self.buffer_sample(ctx, sample);
        }
        ctx.telemetry().metrics.incr("proxy.restart");
        self.on_start(ctx);
        self.broker_down = !self.backlog.is_empty();
        if self.broker_down {
            self.replay_backoff = REPLAY_BACKOFF_BASE;
            self.arm_replay(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match pkt.port {
            crate::DEVICE_UPLINK_PORT => match self.adapter.decode_uplink(&pkt.payload) {
                Ok(samples) => self.ingest(ctx, samples, pkt.trace, pkt.span),
                Err(_) => {
                    self.stats.decode_errors += 1;
                    self.stats.shed_decode += 1;
                    self.series(ctx).decode_errors.incr();
                    self.series(ctx).shed_decode.incr();
                }
            },
            port if Some(port) == self.poll_port => {
                if let Some(RpcEvent::ResponseReceived { body, .. }) =
                    self.poll_tracker.accept(&pkt)
                {
                    match self.adapter.decode_poll(body) {
                        Ok(samples) => self.ingest(ctx, samples, pkt.trace, pkt.span),
                        Err(_) => {
                            self.stats.decode_errors += 1;
                            self.stats.shed_decode += 1;
                            self.series(ctx).decode_errors.incr();
                            self.series(ctx).shed_decode.incr();
                        }
                    }
                }
            }
            PUBSUB_PORT => {
                let event = match &mut self.pubsub {
                    Some(pubsub) => pubsub.accept(ctx, &pkt),
                    None => None,
                };
                if let Some(PubSubEvent::Published { id }) = event {
                    self.inflight.remove(&id);
                    if self.broker_down {
                        self.mark_broker_up(ctx);
                    }
                }
            }
            WS_PORT => {
                // A packet on the WS port is either the master's response
                // to our registration/heartbeat, or a client request.
                match self.master.on_packet(ctx, &pkt) {
                    Some(MasterReply::Reregistered) => {
                        ctx.telemetry().metrics.incr("proxy.reregister");
                    }
                    Some(MasterReply::Handled) => {}
                    None => {
                        if let Some(call) = self.ws.accept(ctx, &pkt) {
                            self.serve(ctx, call);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        match tag {
            TAG_POLL => {
                self.poll(ctx);
                if let Some(interval) = self.config.poll_interval {
                    ctx.set_timer(interval, TAG_POLL);
                }
            }
            TAG_RETENTION => {
                if let Some(retention) = self.config.retention {
                    let unix = unix_millis_at(self.config.epoch_offset_millis, ctx.now());
                    let horizon = unix - retention.as_nanos() as i64 / 1_000_000;
                    self.store.apply_retention(horizon);
                }
                ctx.set_timer(RETENTION_PERIOD, TAG_RETENTION);
            }
            TAG_TSKV_MAINTAIN => {
                self.store.maintain();
                ctx.set_timer(TSKV_MAINTAIN_PERIOD, TAG_TSKV_MAINTAIN);
            }
            // Probe the broker with the oldest parked sample; its ack
            // (or timeout) decides whether the backlog drains or the
            // backoff grows.
            TAG_REPLAY if self.broker_down => {
                if let Some(sample) = self.backlog.pop_front() {
                    if sample.trace != 0 {
                        ctx.trace_hop(
                            "proxy.replay",
                            sample.trace,
                            format_args!("device={} probe", self.config.device),
                        );
                    }
                    self.stats.replayed += 1;
                    self.series(ctx).replayed.incr();
                    self.publish_sample(ctx, sample);
                }
            }
            TAG_REPLAY => {}
            tag if tag.0 >= POLL_TAGS => {
                self.poll_tracker.on_timer(ctx, tag);
            }
            tag if tag.0 >= PUBSUB_TAGS => {
                let event = match &mut self.pubsub {
                    Some(pubsub) => pubsub.on_timer(ctx, tag),
                    None => None,
                };
                if let Some(PubSubEvent::PublishTimedOut { id }) = event {
                    self.on_publish_timeout(ctx, id);
                }
            }
            // The heartbeat and the master-request timeouts.
            tag => self.master.on_timer(ctx, tag),
        }
    }
}
