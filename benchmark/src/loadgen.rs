//! The lean load generator of `city_fanout`: open-loop publishers and
//! per-district subscribers that do as little as a client can.
//!
//! A publisher copies a pre-built 64-byte payload and overwrites its
//! first 8 bytes with the send time; a subscriber reads those 8 bytes
//! back. Nothing is formatted or parsed as text, so the generator's
//! own host time (`loadgen.busy_frac`) stays a small share of the run.

use dimmer::pubsub::{PubSubClient, PubSubEvent, QoS, Topic, TopicFilter};
use dimmer::simnet::{Context, Node, Packet, SimDuration, SimTime, TimerTag};

pub const PAYLOAD_LEN: usize = 64;
const TAG_PUBLISH: TimerTag = TimerTag(1);
/// Base of the timer tags handed to the embedded `PubSubClient`.
const CLIENT_TAGS: u64 = 100;

/// Writes the send time into the first 8 bytes of `payload`.
pub fn stamp(payload: &mut [u8], sent: SimTime) {
    payload[..8].copy_from_slice(&sent.as_nanos().to_le_bytes());
}

/// Reads the send time back; `None` for a payload too short to carry it.
pub fn read_stamp(payload: &[u8]) -> Option<SimTime> {
    let bytes: [u8; 8] = payload.get(..8)?.try_into().ok()?;
    Some(SimTime::from_nanos(u64::from_le_bytes(bytes)))
}

/// `[start, end)` in simulated time.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: SimTime,
    pub end: SimTime,
}

impl Window {
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }
}

/// A constant-rate publisher: one QoS 0, untraced publish per period.
pub struct LeanPub {
    client: PubSubClient,
    topic: Topic,
    period: SimDuration,
    /// First publish fires this long after start, smearing the city's
    /// publishers evenly over one period.
    phase: SimDuration,
    /// The timed region: publishes sent inside it are the attempts the
    /// subscribers must account for.
    window: Window,
    template: [u8; PAYLOAD_LEN],
    pub sent_in_window: u64,
}

impl LeanPub {
    pub fn new(
        broker: dimmer::simnet::NodeId,
        topic: Topic,
        period: SimDuration,
        phase: SimDuration,
        window: Window,
    ) -> Self {
        LeanPub {
            client: PubSubClient::new(broker, CLIENT_TAGS),
            topic,
            period,
            phase,
            window,
            template: [0x5A; PAYLOAD_LEN],
            sent_in_window: 0,
        }
    }
}

impl LeanPub {
    /// The generator's own work per publish: copy, stamp, count.
    pub fn stamped(&mut self, now: SimTime) -> Vec<u8> {
        let mut payload = self.template.to_vec();
        stamp(&mut payload, now);
        if self.window.contains(now) {
            self.sent_in_window += 1;
        }
        payload
    }
}

impl Node for LeanPub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.phase, TAG_PUBLISH);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        self.client.accept(ctx, &pkt);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag != TAG_PUBLISH {
            self.client.on_timer(ctx, tag);
            return;
        }
        let now = ctx.now();
        let payload = self.stamped(now);
        self.client
            .publish(ctx, self.topic.clone(), payload, false, QoS::AtMostOnce);
        ctx.set_timer(self.period, TAG_PUBLISH);
    }
}

/// What a subscriber saw, foldable across subscribers.
#[derive(Debug, Clone, Default)]
pub struct Deliveries {
    /// Every delivery, by arrival (the per-slice throughput count).
    pub received: u64,
    /// Arrival − send stamp, in nanoseconds, of every delivery whose
    /// publish was sent inside the timed region.
    pub latencies_ns: Vec<u32>,
    /// Order-independent checksum over (send stamp, arrival) of every
    /// delivery: equal across thread counts iff the merged event order
    /// produced the same deliveries at the same simulated instants.
    pub checksum: u64,
    /// Deliveries whose payload carried no stamp.
    pub malformed: u64,
}

impl Deliveries {
    pub fn absorb(&mut self, other: &Deliveries) {
        self.received += other.received;
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        self.checksum = self.checksum.wrapping_add(other.checksum);
        self.malformed += other.malformed;
    }
}

fn mix(sent: u64, arrived: u64) -> u64 {
    // splitmix64 finaliser over both stamps.
    let mut z = sent
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(arrived);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A subscriber recording latency over 100 % of in-window deliveries.
pub struct LeanSub {
    client: PubSubClient,
    filter: String,
    window: Window,
    pub seen: Deliveries,
}

impl LeanSub {
    pub fn new(broker: dimmer::simnet::NodeId, filter: String, window: Window) -> Self {
        LeanSub {
            client: PubSubClient::new(broker, CLIENT_TAGS),
            filter,
            window,
            seen: Deliveries::default(),
        }
    }

    /// The generator's own work per delivery: read the stamp, fold the
    /// checksum, keep the latency.
    pub fn record(&mut self, payload: &[u8], now: SimTime) {
        self.seen.received += 1;
        let Some(sent) = read_stamp(payload) else {
            self.seen.malformed += 1;
            return;
        };
        self.seen.checksum = self
            .seen
            .checksum
            .wrapping_add(mix(sent.as_nanos(), now.as_nanos()));
        if self.window.contains(sent) {
            let latency = now.saturating_since(sent).as_nanos();
            self.seen
                .latencies_ns
                .push(u32::try_from(latency).unwrap_or(u32::MAX));
        }
    }
}

impl Node for LeanSub {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let filter = TopicFilter::new(self.filter.as_str()).expect("filter built by the workload");
        self.client.subscribe(ctx, filter, QoS::AtMostOnce);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if let Some(PubSubEvent::Message { payload, .. }) = self.client.accept(ctx, &pkt) {
            self.record(&payload, ctx.now());
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        self.client.on_timer(ctx, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trips_and_rejects_short_payloads() {
        let mut payload = [0x5A; PAYLOAD_LEN];
        let sent = SimTime::from_nanos(123_456_789_012_345);
        stamp(&mut payload, sent);
        assert_eq!(read_stamp(&payload), Some(sent));
        assert_eq!(payload[8..], [0x5A; PAYLOAD_LEN - 8], "rest untouched");
        assert_eq!(read_stamp(&payload[..7]), None);
    }

    #[test]
    fn subscriber_counts_every_arrival_but_times_only_the_window() {
        let window = Window {
            start: SimTime::from_nanos(1_000),
            end: SimTime::from_nanos(2_000),
        };
        let mut sub = LeanSub::new(
            dimmer::simnet::NodeId::from_index(0),
            "district/d0/#".to_owned(),
            window,
        );
        let mut payload = [0u8; PAYLOAD_LEN];
        for (sent, arrived) in [(500, 900), (1_000, 1_400), (1_999, 2_600), (2_000, 2_100)] {
            stamp(&mut payload, SimTime::from_nanos(sent));
            sub.record(&payload, SimTime::from_nanos(arrived));
        }
        sub.record(&[1, 2, 3], SimTime::from_nanos(3_000));
        assert_eq!(sub.seen.received, 5);
        assert_eq!(sub.seen.malformed, 1);
        assert_eq!(sub.seen.latencies_ns, vec![400, 601]);
        // The checksum ignores order but not content.
        let mut other = Deliveries::default();
        other.absorb(&sub.seen);
        assert_eq!(other.checksum, sub.seen.checksum);
        assert_ne!(mix(1, 2), mix(2, 1));
    }
}
