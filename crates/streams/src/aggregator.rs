//! The aggregator node: the streaming tier between device proxies and
//! profile clients.
//!
//! One aggregator per district subscribes to every measurement topic
//! through a single wildcard, feeds samples into a keyed
//! [`WindowedAggregator`] (one pane per `(entity, quantity)` pair) and,
//! as the watermark closes windows, rolls the building panes up into
//! exact district aggregates. Closed windows go three places at once:
//!
//! 1. **retained middleware publications** on [`pubsub::RollupTopic`] topics,
//!    so late subscribers immediately see the latest window;
//! 2. the aggregator's **local tskv**, serving `/rollups` queries;
//! 3. the **flight recorder**, as `streams.window_close` hops carrying
//!    the trace ids of contributing samples.
//!
//! Recovery mirrors the Device-proxy's durable/volatile split: the
//! local store (raw samples, rollups, watermark) survives a crash, the
//! window state does not — it is rebuilt by replaying the raw tail
//! newer than `watermark - window size`. Samples that were in flight
//! during the outage come back through QoS 1 redelivery and the device
//! proxies' store-and-forward buffers; the raw store deduplicates, so
//! rollup sample counts are conserved exactly.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

use dimmer_core::codec::{self, DataFormat, Writer};
use dimmer_core::{DistrictId, ProxyId, QuantityKind, Value};
use proxy::devices::unix_millis_at;
use proxy::registration::{MasterReply, MasterSession, ProxyRole, Registration};
use proxy::webservice::{status, WsCall, WsRequest, WsResponse, WsServer};
use proxy::{node_uri, WS_PORT};
use pubsub::{MeasurementTopic, PubSubClient, PubSubEvent, QoS, RollupTopic, PUBSUB_PORT};
use simnet::overload::{Admission, AdmissionGate};
use simnet::{Context, Node, NodeId, Packet, SimDuration, TimerTag};
use storage::tskv::{SeriesId, TimeSeriesStore};
use telemetry::{CounterHandle, GaugeHandle, HistogramHandle, Registry, SpanId, NO_SPAN, NO_TRACE};

use crate::rollup::Rollup;
use crate::window::{Accumulator, WindowSpec, WindowedAggregator};

const TAG_HEARTBEAT: TimerTag = TimerTag(1);
const TAG_FLUSH: TimerTag = TimerTag(2);
const TAG_TSKV_MAINTAIN: TimerTag = TimerTag(3);
const WS_CLIENT_TAGS: u64 = 1_000_000_000;
const PUBSUB_TAGS: u64 = 2_000_000_000;

/// Keepalive probing the broker so restarts are noticed and the
/// wildcard subscription re-established.
const KEEPALIVE_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Storage maintenance cadence: seal cold partitions, compact,
/// checkpoint the WAL (see `TimeSeriesStore::maintain`).
const TSKV_MAINTAIN_PERIOD: SimDuration = SimDuration::from_secs(300);
/// Wall-clock flush period (watermark advance + window close).
const FLUSH_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Default tumbling window size.
pub(crate) const DEFAULT_WINDOW_MILLIS: i64 = 300_000;
/// Default lateness horizon.
pub(crate) const DEFAULT_LATENESS_MILLIS: i64 = 30_000;
/// Default admission bound on queued `/rollups` queries.
pub(crate) const DEFAULT_ADMISSION_CAPACITY: u64 = 64;
/// Default sustained `/rollups` service rate (queries per second).
pub(crate) const DEFAULT_ADMISSION_RATE: f64 = 500.0;

/// Series name of the persisted watermark (single point at t=0).
const WATERMARK_SERIES: &str = "meta/watermark";
/// Bound on the route table: the memory an aggregator spends on
/// remembering what a topic resolves to. A district publishes a few
/// thousand measurement topics; past the bound a topic is resolved
/// again for each of its samples.
const ROUTE_TABLE_CAPACITY: usize = 16_384;

fn raw_series(entity: &str, device: &str, quantity: &str) -> String {
    format!("raw/{entity}/{device}/{quantity}")
}

/// Base name of the four per-window series (`<base>/{count,sum,min,max}`).
fn rollup_series_base(entity: Option<&str>, quantity: &str, window_millis: i64) -> String {
    match entity {
        Some(entity) => format!("agg/entity/{entity}/{quantity}/{window_millis}"),
        None => format!("agg/district/{quantity}/{window_millis}"),
    }
}

/// The four per-window series (`<base>/{count,sum,min,max}`) of one
/// rollup target, resolved in the local store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RollupSeries {
    count: SeriesId,
    sum: SeriesId,
    min: SeriesId,
    max: SeriesId,
}

/// The key of a building-tier pane. Panes close — and their rollups
/// publish — in lexicographic `(window start, entity, quantity)` order,
/// so both names stay text; `rollup` is a function of the two and takes
/// no part in the order. `Arc` because a key is cloned per sample and
/// nodes move across shard threads.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PaneKey {
    entity: Arc<str>,
    quantity: Arc<str>,
    rollup: RollupSeries,
}

impl Ord for PaneKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.entity, &self.quantity).cmp(&(&other.entity, &other.quantity))
    }
}

impl PartialOrd for PaneKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What a measurement topic resolves to for the life of its device.
#[derive(Debug, Clone)]
struct Route {
    device: Arc<str>,
    /// `raw/<entity>/<device>/<quantity>`: every sample, and the dedup
    /// authority.
    raw: SeriesId,
    pane: PaneKey,
}

/// Static configuration of an aggregator.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// The aggregator's proxy id (it registers like any proxy).
    pub proxy: ProxyId,
    /// The district whose measurements it rolls up.
    pub district: DistrictId,
    /// The master node.
    pub master: NodeId,
    /// The middleware broker.
    pub broker: NodeId,
    /// Window shape (tumbling by default).
    pub window: WindowSpec,
    /// Lateness horizon: how long the watermark trails the newest
    /// event time, bounding out-of-order acceptance.
    pub lateness_millis: i64,
    /// Unix time at simulation start.
    pub epoch_offset_millis: i64,
    /// Admission bound on queued `/rollups` queries; bursts past it are
    /// shed with a 503 and a `Retry-After`.
    pub(crate) admission_capacity: u64,
    /// Sustained `/rollups` queries per second the aggregator serves.
    pub(crate) admission_rate: f64,
}

impl AggregatorConfig {
    /// A configuration with default window and lateness values.
    pub fn new(
        proxy: ProxyId,
        district: DistrictId,
        master: NodeId,
        broker: NodeId,
        epoch_offset_millis: i64,
    ) -> Self {
        AggregatorConfig {
            proxy,
            district,
            master,
            broker,
            window: WindowSpec::tumbling(DEFAULT_WINDOW_MILLIS),
            lateness_millis: DEFAULT_LATENESS_MILLIS,
            epoch_offset_millis,
            admission_capacity: DEFAULT_ADMISSION_CAPACITY,
            admission_rate: DEFAULT_ADMISSION_RATE,
        }
    }

    /// Overrides the `/rollups` admission limits.
    #[must_use]
    pub fn with_admission(mut self, capacity: u64, rate: f64) -> Self {
        self.admission_capacity = capacity;
        self.admission_rate = rate;
        self
    }
}

/// Lifetime counters of an aggregator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Measurement messages decoded and stored.
    pub samples_in: u64,
    /// Redelivered samples already present in the raw store.
    pub duplicates: u64,
    /// Messages that failed to decode.
    pub decode_errors: u64,
    /// Building-tier windows closed.
    pub(crate) windows_closed: u64,
    /// Rollups published into the middleware (both tiers).
    pub rollups_published: u64,
    /// Raw samples replayed from the store after a restart.
    pub recovered: u64,
    /// Web-Service requests served.
    pub ws_requests: u64,
    /// `/rollups` queries shed by the admission gate.
    pub(crate) ws_shed: u64,
}

/// The series written per sample, window, request or scrape, resolved
/// on the first callback that writes one. Recovery, restart and
/// re-register events are rare and stay by-name.
struct AggregatorSeries {
    samples_in: CounterHandle,
    duplicates: CounterHandle,
    decode_errors: CounterHandle,
    late_dropped: CounterHandle,
    shed: CounterHandle,
    windows_closed: CounterHandle,
    rollups_published: CounterHandle,
    ws_requests: CounterHandle,
    open_windows: GaugeHandle,
    pending_publishes: GaugeHandle,
    window_samples: HistogramHandle,
}

impl AggregatorSeries {
    fn resolve(m: &Registry) -> Self {
        AggregatorSeries {
            samples_in: m.counter_handle("streams.samples_in"),
            duplicates: m.counter_handle("streams.duplicates"),
            decode_errors: m.counter_handle("streams.decode_errors"),
            late_dropped: m.counter_handle("streams.late_dropped"),
            shed: m.counter_handle("streams.shed"),
            windows_closed: m.counter_handle("streams.windows_closed"),
            rollups_published: m.counter_handle("streams.rollups_published"),
            ws_requests: m.counter_handle("streams.ws_requests"),
            open_windows: m.gauge_handle("streams.open_windows"),
            pending_publishes: m.gauge_handle("streams.pending_publishes"),
            window_samples: m.histogram_handle("streams.window_samples"),
        }
    }
}

/// The per-district streaming aggregator node.
pub struct AggregatorNode {
    config: AggregatorConfig,
    /// Building-tier operator keyed by `(entity, quantity)`.
    op: WindowedAggregator<PaneKey>,
    store: TimeSeriesStore,
    /// Topic text → what [`MeasurementTopic::parse`] and the store made
    /// of it; at most [`ROUTE_TABLE_CAPACITY`] entries.
    routes: HashMap<Box<str>, Route>,
    /// District-tier rollup series per quantity: bounded by the
    /// variants of [`QuantityKind`], so a linear scan.
    district_rollups: Vec<(QuantityKind, RollupSeries)>,
    watermark_series: SeriesId,
    /// The JSON payload of the rollup in hand; kept for its buffer.
    payload: String,
    /// The `streams.window_close` detail of the rollup in hand, likewise.
    detail: String,
    ws: WsServer,
    master: MasterSession,
    pubsub: PubSubClient,
    /// Admission gate over `/rollups` (the ops plane is never shed).
    gate: AdmissionGate,
    stats: AggregatorStats,
    series: OnceCell<AggregatorSeries>,
}

impl std::fmt::Debug for AggregatorNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregatorNode")
            .field("proxy", &self.config.proxy)
            .field("district", &self.config.district)
            .field("registered", &self.master.is_registered())
            .field("open_windows", &self.op.open_windows())
            .finish()
    }
}

impl AggregatorNode {
    /// Creates an aggregator.
    pub fn new(config: AggregatorConfig) -> Self {
        let op = WindowedAggregator::new(config.window, config.lateness_millis);
        let pubsub = PubSubClient::new(config.broker, PUBSUB_TAGS);
        let gate = AdmissionGate::new(config.admission_capacity, config.admission_rate);
        let mut store = TimeSeriesStore::new();
        AggregatorNode {
            master: MasterSession::new(config.master, TAG_HEARTBEAT, WS_CLIENT_TAGS),
            config,
            op,
            gate,
            routes: HashMap::new(),
            district_rollups: Vec::new(),
            watermark_series: store.series_id(WATERMARK_SERIES),
            payload: String::new(),
            detail: String::new(),
            store,
            ws: WsServer::new(),
            pubsub,
            stats: AggregatorStats::default(),
            series: OnceCell::new(),
        }
    }

    fn series(&self, ctx: &Context<'_>) -> &AggregatorSeries {
        self.series
            .get_or_init(|| AggregatorSeries::resolve(&ctx.telemetry().metrics))
    }

    /// Whether the master has acknowledged registration.
    pub fn is_registered(&self) -> bool {
        self.master.is_registered()
    }

    /// The counters.
    pub fn stats(&self) -> AggregatorStats {
        self.stats
    }

    /// The window-operator counters (acceptance conservation etc.).
    pub fn window_stats(&self) -> crate::window::WindowStats {
        self.op.stats()
    }

    /// The current event-time watermark.
    pub fn watermark(&self) -> i64 {
        self.op.watermark()
    }

    /// District-tier rollups persisted for `quantity` over
    /// `[from, to)`, assembled from the local store.
    pub fn district_rollups(&self, quantity: QuantityKind, from: i64, to: i64) -> Vec<Rollup> {
        self.assemble_rollups(None, quantity, self.config.window.size_millis(), from, to)
    }

    fn assemble_rollups(
        &self,
        entity: Option<&str>,
        quantity: QuantityKind,
        window_millis: i64,
        from: i64,
        to: i64,
    ) -> Vec<Rollup> {
        let base = rollup_series_base(entity, quantity.as_str(), window_millis);
        let counts = self.store.range(&format!("{base}/count"), from, to);
        let sums: BTreeMap<i64, f64> = self
            .store
            .range(&format!("{base}/sum"), from, to)
            .into_iter()
            .collect();
        let mins: BTreeMap<i64, f64> = self
            .store
            .range(&format!("{base}/min"), from, to)
            .into_iter()
            .collect();
        let maxs: BTreeMap<i64, f64> = self
            .store
            .range(&format!("{base}/max"), from, to)
            .into_iter()
            .collect();
        counts
            .into_iter()
            .map(|(start, count)| Rollup {
                district: self.config.district.as_str().to_owned(),
                entity: entity.map(str::to_owned),
                quantity,
                window_start: start,
                window_millis,
                count: count as u64,
                sum: sums.get(&start).copied().unwrap_or(0.0),
                min: mins.get(&start).copied().unwrap_or(f64::INFINITY),
                max: maxs.get(&start).copied().unwrap_or(f64::NEG_INFINITY),
            })
            .collect()
    }

    fn rollup_series(&mut self, entity: Option<&str>, quantity: &str) -> RollupSeries {
        let base = rollup_series_base(entity, quantity, self.config.window.size_millis());
        let mut resolve = |part: &str| self.store.series_id(&format!("{base}/{part}"));
        RollupSeries {
            count: resolve("count"),
            sum: resolve("sum"),
            min: resolve("min"),
            max: resolve("max"),
        }
    }

    fn pane_key(&mut self, entity: &str, quantity: &str) -> PaneKey {
        PaneKey {
            entity: entity.into(),
            quantity: quantity.into(),
            rollup: self.rollup_series(Some(entity), quantity),
        }
    }

    /// What `topic` resolves to; `None` when it is not a measurement
    /// topic. A miss resolves the topic the way every hit was resolved;
    /// a full table only means the next sample misses again.
    fn route(&mut self, topic: &pubsub::Topic) -> Option<Route> {
        if let Some(route) = self.routes.get(topic.as_str()) {
            return Some(route.clone());
        }
        let parsed = MeasurementTopic::parse(topic)?;
        let raw = raw_series(&parsed.entity, &parsed.device, &parsed.quantity);
        let route = Route {
            raw: self.store.series_id(&raw),
            pane: self.pane_key(&parsed.entity, &parsed.quantity),
            device: parsed.device.into(),
        };
        if self.routes.len() < ROUTE_TABLE_CAPACITY {
            self.routes.insert(topic.as_str().into(), route.clone());
        }
        Some(route)
    }

    fn ingest(
        &mut self,
        ctx: &mut Context<'_>,
        pkt_topic: &pubsub::Topic,
        payload: &[u8],
        trace: u64,
        recv_span: SpanId,
    ) {
        let Some(route) = self.route(pkt_topic) else {
            return; // not a measurement topic
        };
        let decoded = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| codec::decode_measurement(text, DataFormat::Json).ok());
        let Some(measurement) = decoded else {
            self.stats.decode_errors += 1;
            self.series(ctx).decode_errors.incr();
            return;
        };
        let t = measurement.timestamp().as_unix_millis();
        let value = measurement.value();
        // QoS 1 redelivery and post-restart retained replays produce
        // duplicates; the raw store is the dedup authority.
        if self.store.contains_at(route.raw, t) {
            self.stats.duplicates += 1;
            self.series(ctx).duplicates.incr();
            return;
        }
        self.store.insert_at(route.raw, t, value);
        self.stats.samples_in += 1;
        self.series(ctx).samples_in.incr();
        let ingest_span = ctx.span_hop(
            "streams.ingest",
            trace,
            recv_span,
            format_args!("entity={} device={}", route.pane.entity, route.device),
        );
        match self
            .op
            .observe_spanned(route.pane, t, value, trace, ingest_span)
        {
            crate::window::Observed::Late => self.series(ctx).late_dropped.incr(),
            crate::window::Observed::Shed => self.series(ctx).shed.incr(),
            crate::window::Observed::Accepted => {}
        }
        self.drain(ctx);
    }

    /// Closes every ready building pane, rolls the same panes up into
    /// district accumulators, then persists + publishes both tiers.
    fn drain(&mut self, ctx: &mut Context<'_>) {
        let closed = self.op.close_ready();
        if !closed.is_empty() {
            self.stats.windows_closed += closed.len() as u64;
            self.series(ctx).windows_closed.add(closed.len() as u64);
            // Merging the building accumulators that closed for the same
            // (window, quantity) gives the exact district aggregate: the
            // watermark is shared, so all panes of a window close in the
            // same drain.
            // Keyed by the quantity's name, not its kind, so the district
            // tier publishes in the order the building tier closed.
            let mut district: BTreeMap<(i64, &str), (QuantityKind, Accumulator)> = BTreeMap::new();
            for w in &closed {
                let Ok(quantity) = QuantityKind::parse(&w.key.quantity) else {
                    continue; // foreign quantity segment; nothing speaks it downstream
                };
                let entity = Some(&*w.key.entity);
                self.emit_rollup(ctx, entity, quantity, w.key.rollup, w.start, &w.acc);
                district
                    .entry((w.start, quantity.as_str()))
                    .or_insert_with(|| (quantity, Accumulator::new()))
                    .1
                    .merge(&w.acc);
            }
            for ((start, _), (quantity, acc)) in district {
                let series = self.district_rollup_series(quantity);
                self.emit_rollup(ctx, None, quantity, series, start, &acc);
            }
        }
        // Persist progress so recovery never re-closes a closed window.
        let wm = self.op.watermark();
        if wm > i64::MIN {
            self.store.insert_at(self.watermark_series, 0, wm as f64);
        }
        self.series(ctx)
            .open_windows
            .set(self.op.open_windows() as f64);
    }

    fn district_rollup_series(&mut self, quantity: QuantityKind) -> RollupSeries {
        if let Some((_, series)) = self.district_rollups.iter().find(|(q, _)| *q == quantity) {
            return *series;
        }
        let series = self.rollup_series(None, quantity.as_str());
        self.district_rollups.push((quantity, series));
        series
    }

    fn emit_rollup(
        &mut self,
        ctx: &mut Context<'_>,
        entity: Option<&str>,
        quantity: QuantityKind,
        series: RollupSeries,
        start: i64,
        acc: &Accumulator,
    ) {
        let window_millis = self.config.window.size_millis();
        self.store.insert_at(series.count, start, acc.count as f64);
        self.store.insert_at(series.sum, start, acc.sum);
        self.store.insert_at(series.min, start, acc.min);
        self.store.insert_at(series.max, start, acc.max);

        let district = self.config.district.as_str();
        let Ok(topic) = RollupTopic::render(district, entity, quantity.as_str(), window_millis)
        else {
            return;
        };
        // Tie the closed window into the flight recorder: one hop per
        // (bounded) contributing sample, each parented onto the span the
        // sample entered the operator under.
        let mut close = (NO_TRACE, NO_SPAN);
        if !acc.traces().is_empty() {
            self.detail.clear();
            let _ = write!(self.detail, "{topic} start={start} count={}", acc.count);
        }
        for &(trace, parent) in acc.traces() {
            let span = ctx.span_hop(
                "streams.window_close",
                trace,
                parent,
                format_args!("{}", self.detail),
            );
            if close.0 == NO_TRACE {
                close = (trace, span);
            }
        }
        self.payload.clear();
        Rollup::write_fields(
            &mut Writer::new(DataFormat::Json, &mut self.payload),
            district,
            entity,
            quantity,
            start,
            window_millis,
            acc.count,
            acc.sum,
            acc.min,
            acc.max,
        );
        self.pubsub.publish_ref(
            ctx,
            &topic,
            self.payload.as_bytes(),
            true,
            QoS::AtMostOnce,
            close.0,
            close.1,
        );
        self.stats.rollups_published += 1;
        self.series(ctx).rollups_published.incr();
        self.series(ctx).window_samples.observe(acc.count as f64);
    }

    fn serve(&mut self, ctx: &mut Context<'_>, call: WsCall) {
        self.stats.ws_requests += 1;
        self.series(ctx).ws_requests.incr();
        let request = &call.request;
        let response = match request.path.as_str() {
            "/info" => self.info(ctx),
            "/rollups" => match self.gate.try_admit(ctx.now(), &ctx.telemetry().metrics) {
                Admission::Admitted => self.rollups(request),
                Admission::Shed { retry_after } => {
                    self.stats.ws_shed += 1;
                    WsResponse::unavailable(retry_after)
                }
            },
            "/metrics" => WsResponse::ok(Value::from(ctx.telemetry().exposition())),
            "/health" => self.health(ctx),
            _ => WsResponse::error(status::NOT_FOUND, "unknown path"),
        };
        self.ws.respond(ctx, &call, response);
    }

    fn info(&self, ctx: &Context<'_>) -> WsResponse {
        WsResponse::ok(Value::object([
            ("proxy", Value::from(self.config.proxy.as_str())),
            ("district", Value::from(self.config.district.as_str())),
            ("kind", Value::from("aggregator")),
            (
                "window_millis",
                Value::from(self.config.window.size_millis()),
            ),
            ("lateness_millis", Value::from(self.config.lateness_millis)),
            ("watermark", Value::from(self.op.watermark())),
            ("open_windows", Value::from(self.op.open_windows() as i64)),
            ("uri", Value::from(node_uri(ctx.node_id(), "/").to_string())),
        ]))
    }

    /// The ops-plane liveness view: identity plus the queue depths that
    /// show backpressure (open panes, unacked publishes).
    fn health(&self, ctx: &Context<'_>) -> WsResponse {
        self.series(ctx)
            .pending_publishes
            .set(self.pubsub.pending_publishes() as f64);
        WsResponse::ok(Value::object([
            ("status", Value::from("ok")),
            ("proxy", Value::from(self.config.proxy.as_str())),
            ("district", Value::from(self.config.district.as_str())),
            ("kind", Value::from("aggregator")),
            ("registered", Value::from(self.master.is_registered())),
            ("watermark", Value::from(self.op.watermark())),
            ("open_windows", Value::from(self.op.open_windows() as i64)),
            (
                "pending_publishes",
                Value::from(self.pubsub.pending_publishes() as i64),
            ),
        ]))
    }

    fn rollups(&self, request: &WsRequest) -> WsResponse {
        let entity = match (
            request.query("level").unwrap_or("district"),
            request.query("entity"),
        ) {
            ("district", _) => None,
            ("entity", Some(entity)) => Some(entity.to_owned()),
            ("entity", None) => {
                return WsResponse::error(status::BAD_REQUEST, "entity parameter required")
            }
            _ => return WsResponse::error(status::BAD_REQUEST, "level must be district or entity"),
        };
        // No quantity at district level means a snapshot across every
        // quantity rolled up so far — what the master's fleet scraper
        // retains for degraded-mode serving. Entity level stays strict.
        let quantity = match request.query("quantity") {
            Some(raw) => match QuantityKind::parse(raw) {
                Ok(q) => Some(q),
                Err(e) => return WsResponse::error(status::BAD_REQUEST, e.to_string()),
            },
            None if entity.is_some() => {
                return WsResponse::error(status::BAD_REQUEST, "quantity parameter required")
            }
            None => None,
        };
        let parse_millis = |key: &str, default: i64| -> Result<i64, WsResponse> {
            match request.query(key) {
                None => Ok(default),
                Some(raw) => raw
                    .parse()
                    .map_err(|_| WsResponse::error(status::BAD_REQUEST, format!("invalid {key}"))),
            }
        };
        let window = match parse_millis("window", self.config.window.size_millis()) {
            Ok(w) if w > 0 => w,
            Ok(_) => return WsResponse::error(status::BAD_REQUEST, "invalid window"),
            Err(r) => return r,
        };
        let from = match parse_millis("from", i64::MIN) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let to = match parse_millis("to", i64::MAX) {
            Ok(v) => v,
            Err(r) => return r,
        };
        let rollups = match quantity {
            Some(q) => self.assemble_rollups(entity.as_deref(), q, window, from, to),
            None => {
                let suffix = format!("/{window}/count");
                let mut quantities: Vec<QuantityKind> = self
                    .store
                    .series_names()
                    .filter_map(|s| s.strip_prefix("agg/district/")?.strip_suffix(&suffix))
                    .filter_map(|q| QuantityKind::parse(q).ok())
                    .collect();
                quantities.sort_unstable();
                quantities.dedup();
                quantities
                    .into_iter()
                    .flat_map(|q| self.assemble_rollups(None, q, window, from, to))
                    .collect()
            }
        };
        WsResponse::ok(Value::object([
            ("district", Value::from(self.config.district.as_str())),
            (
                "rollups",
                Value::Array(rollups.iter().map(Rollup::to_value).collect()),
            ),
        ]))
    }

    /// Rebuilds the volatile window state from the durable store: seed
    /// the watermark from its persisted value, then replay every raw
    /// sample new enough to still belong to an open window.
    fn recover(&mut self, ctx: &mut Context<'_>) {
        let mut op = WindowedAggregator::new(self.config.window, self.config.lateness_millis);
        if let Some((_, wm)) = self.store.latest(WATERMARK_SERIES) {
            op.advance_watermark_to(wm as i64);
        }
        let replay_from = op
            .watermark()
            .saturating_sub(self.config.window.size_millis());
        let mut recovered = 0u64;
        let raw: Vec<String> = self
            .store
            .series_names()
            .filter(|s| s.starts_with("raw/"))
            .map(str::to_owned)
            .collect();
        for series in raw {
            let mut parts = series.splitn(4, '/');
            let (Some("raw"), Some(entity), Some(_device), Some(quantity)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let key = self.pane_key(entity, quantity);
            for (t, v) in self.store.range(&series, replay_from, i64::MAX) {
                op.restore(key.clone(), t, v);
                recovered += 1;
            }
        }
        self.op = op;
        self.stats.recovered += recovered;
        ctx.telemetry().metrics.add("streams.recovered", recovered);
    }
}

impl Node for AggregatorNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.store.attach_metrics(&ctx.telemetry().metrics);
        let registration = Registration {
            proxy: self.config.proxy.clone(),
            district: self.config.district.clone(),
            uri: node_uri(ctx.node_id(), "/"),
            role: ProxyRole::Aggregator,
        };
        self.master.start(ctx, registration);
        let filter = MeasurementTopic::district_filter(self.config.district.as_str())
            .expect("district ids satisfy the filter grammar");
        self.pubsub.subscribe(ctx, filter, QoS::AtLeastOnce);
        self.pubsub.start_keepalive(ctx, KEEPALIVE_INTERVAL);
        ctx.set_timer(FLUSH_INTERVAL, TAG_FLUSH);
        ctx.set_timer(TSKV_MAINTAIN_PERIOD, TAG_TSKV_MAINTAIN);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // Volatile across a reboot: registration, the middleware
        // session, the open window panes, and the store's mutable head.
        // Durable: the store's sealed segments, snapshot and WAL (raw
        // tail, rollups, watermark) and the lifetime counters. Replay
        // the WAL tail first so `recover` rebuilds windows from a store
        // with every acknowledged point back in place.
        self.store.crash_recover();
        self.master.reset();
        self.pubsub.reset();
        self.recover(ctx);
        ctx.telemetry().metrics.incr("streams.restart");
        self.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        match pkt.port {
            PUBSUB_PORT => {
                if let Some(PubSubEvent::Message {
                    topic,
                    payload,
                    trace,
                    span,
                }) = self.pubsub.accept(ctx, &pkt)
                {
                    self.ingest(ctx, &topic, &payload, trace, span);
                }
            }
            WS_PORT => match self.master.on_packet(ctx, &pkt) {
                Some(MasterReply::Reregistered) => {
                    ctx.telemetry().metrics.incr("streams.reregister");
                }
                Some(MasterReply::Handled) => {}
                None => {
                    if let Some(call) = self.ws.accept(ctx, &pkt) {
                        self.serve(ctx, call);
                    }
                }
            },
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        match tag {
            TAG_FLUSH => {
                // Even with no traffic, wall-clock progress closes
                // windows: the watermark may not regress, so this only
                // ever helps.
                let now_unix = unix_millis_at(self.config.epoch_offset_millis, ctx.now());
                self.op.advance_watermark(now_unix);
                self.drain(ctx);
                ctx.set_timer(FLUSH_INTERVAL, TAG_FLUSH);
            }
            TAG_TSKV_MAINTAIN => {
                self.store.maintain();
                ctx.set_timer(TSKV_MAINTAIN_PERIOD, TAG_TSKV_MAINTAIN);
            }
            tag if tag.0 >= PUBSUB_TAGS => {
                self.pubsub.on_timer(ctx, tag);
            }
            // The heartbeat and the master-request timeouts.
            tag => self.master.on_timer(ctx, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_core::{DeviceId, Measurement, Timestamp};
    use pubsub::BrokerNode;
    use simnet::{SimConfig, Simulator};

    const EPOCH: i64 = 1_425_859_200_000;
    const BATCH: usize = 1_000;

    /// Publishes `(entity, device, t, value)` temperature samples at
    /// QoS 0, a batch per 100 ms.
    struct Publisher {
        client: PubSubClient,
        samples: std::vec::IntoIter<(String, String, i64, f64)>,
    }

    impl Node for Publisher {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), TimerTag(1));
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
            let quantity = QuantityKind::Temperature;
            for (entity, device, t, value) in self.samples.by_ref().take(BATCH) {
                let topic = MeasurementTopic::new("d1", entity, device.as_str(), quantity.as_str())
                    .topic()
                    .unwrap();
                let measurement = Measurement::new(
                    DeviceId::new(device).unwrap(),
                    quantity,
                    value,
                    quantity.canonical_unit(),
                    Timestamp::from_unix_millis(t),
                );
                let payload = codec::encode_measurement(&measurement, DataFormat::Json);
                self.client
                    .publish(ctx, topic, payload.into_bytes(), false, QoS::AtMostOnce);
            }
            if self.samples.len() > 0 {
                ctx.set_timer(SimDuration::from_millis(100), tag);
            }
        }
    }

    /// A master that never answers.
    struct Sink;

    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Packet) {}
    }

    /// Runs `samples` through a broker and one aggregator (10 s windows,
    /// no lateness) until every window has closed.
    fn aggregate(samples: Vec<(String, String, i64, f64)>) -> (Simulator, NodeId) {
        let mut sim = Simulator::new(SimConfig::default());
        let master = sim.add_node("master", Sink);
        let broker = sim.add_node("broker", BrokerNode::new());
        let mut config = AggregatorConfig::new(
            ProxyId::new("agg").unwrap(),
            DistrictId::new("d1").unwrap(),
            master,
            broker,
            EPOCH,
        );
        config.window = WindowSpec::tumbling(10_000);
        config.lateness_millis = 0;
        let aggregator = sim.add_node("agg", AggregatorNode::new(config));
        sim.add_node(
            "publisher",
            Publisher {
                client: PubSubClient::new(broker, 100),
                samples: samples.into_iter(),
            },
        );
        sim.run_for(SimDuration::from_secs(60));
        (sim, aggregator)
    }

    #[test]
    fn a_redelivered_sample_counts_as_a_duplicate_not_a_sample() {
        let sample = |t: i64, v: f64| ("b1".to_owned(), "dev1".to_owned(), EPOCH + t, v);
        // The same device and timestamp twice, as a QoS 1 redelivery
        // repeats it, between two fresh samples.
        let (sim, aggregator) = aggregate(vec![
            sample(1_000, 20.0),
            sample(3_000, 21.0),
            sample(3_000, 21.0),
            sample(5_000, 22.0),
        ]);
        let agg = sim.node_ref::<AggregatorNode>(aggregator).unwrap();
        assert_eq!((agg.stats().samples_in, agg.stats().duplicates), (3, 1));
        assert_eq!(agg.window_stats().samples_in, 3);
        let metrics = &sim.telemetry().metrics;
        assert_eq!(metrics.counter("streams.samples_in"), 3);
        assert_eq!(metrics.counter("streams.duplicates"), 1);
        let rollups = agg.district_rollups(QuantityKind::Temperature, i64::MIN, i64::MAX);
        assert_eq!(rollups.len(), 1);
        assert_eq!((rollups[0].count, rollups[0].sum), (3, 63.0));
    }

    #[test]
    fn a_full_route_table_changes_no_rollup() {
        // The same `(entity, t, value)` samples twice: spread over more
        // device topics than the route table holds, each topic seen
        // twice (a hit or a miss the second time), and over one device
        // per entity. Halves sum exactly, whatever the arrival order.
        let topics = ROUTE_TABLE_CAPACITY + 500;
        let samples = |spread: bool| -> Vec<(String, String, i64, f64)> {
            (0..2 * topics)
                .map(|i| {
                    let device = i % topics;
                    let entity = device % 7;
                    let device = if spread { device } else { entity };
                    (
                        format!("b{entity}"),
                        format!("dev{device}"),
                        EPOCH + i as i64,
                        (i % 40) as f64 / 2.0,
                    )
                })
                .collect()
        };
        let rollups_of = |samples| {
            let (sim, aggregator) = aggregate(samples);
            let agg = sim.node_ref::<AggregatorNode>(aggregator).unwrap();
            assert_eq!(agg.stats().samples_in, 2 * topics as u64);
            let mut rollups = agg.district_rollups(QuantityKind::Temperature, i64::MIN, i64::MAX);
            for entity in 0..7 {
                rollups.extend(agg.assemble_rollups(
                    Some(&format!("b{entity}")),
                    QuantityKind::Temperature,
                    10_000,
                    i64::MIN,
                    i64::MAX,
                ));
            }
            (rollups, agg.routes.len())
        };
        let (spread, full) = rollups_of(samples(true));
        let (narrow, sparse) = rollups_of(samples(false));
        assert_eq!((full, sparse), (ROUTE_TABLE_CAPACITY, 7));
        assert_eq!(spread.len(), 8 * 4, "two tiers over 33.8 s of samples");
        assert_eq!(spread, narrow);
    }
}
