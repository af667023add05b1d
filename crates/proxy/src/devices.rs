//! Simulated field devices as network nodes.
//!
//! [`UplinkDeviceNode`] wraps a push device: on a timer it samples its
//! energy profile and transmits the encoded frame to its Device-proxy.
//! `PolledDeviceNode` wraps a polled field server. Both substitute the
//! physical hardware of the paper's test sites; [`crate::registry`] says
//! which protocol family gets which.

use std::cell::OnceCell;

use models::profiles::EnergyProfile;
use protocols::device::{FieldServer, UplinkDevice};
use simnet::rpc::{self, RpcFrame};
use simnet::telemetry::{CounterHandle, NO_SPAN};
use simnet::{Context, Node, Packet, Port, SimDuration, SimTime, TimerTag};

use crate::{DEVICE_DOWNLINK_PORT, DEVICE_UPLINK_PORT};

/// Converts simulated time to unix milliseconds given the scenario's
/// epoch offset (the unix time at simulation start).
pub fn unix_millis_at(epoch_offset_millis: i64, now: SimTime) -> i64 {
    epoch_offset_millis + (now.as_nanos() / 1_000_000) as i64
}

const TAG_EMIT: TimerTag = TimerTag(1);

/// A push device: samples its profile every `interval` and transmits the
/// protocol frame to its proxy.
pub struct UplinkDeviceNode {
    device: Box<dyn UplinkDevice>,
    profile: EnergyProfile,
    proxy: simnet::NodeId,
    interval: SimDuration,
    epoch_offset_millis: i64,
    /// Frames transmitted so far.
    pub(crate) frames_sent: u64,
    /// Raw actuation frames received from the proxy (most recent last).
    pub actuations: Vec<Vec<u8>>,
    /// The last value sampled (for test introspection).
    pub(crate) last_value: f64,
    /// `device.samples`, resolved by the first emission.
    samples: OnceCell<CounterHandle>,
}

impl std::fmt::Debug for UplinkDeviceNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UplinkDeviceNode")
            .field("protocol", &self.device.protocol())
            .field("quantity", &self.device.quantity())
            .field("frames_sent", &self.frames_sent)
            .finish()
    }
}

impl UplinkDeviceNode {
    /// Creates a device that reports to `proxy` every `interval`.
    pub fn new(
        device: Box<dyn UplinkDevice>,
        profile: EnergyProfile,
        proxy: simnet::NodeId,
        interval: SimDuration,
        epoch_offset_millis: i64,
    ) -> Self {
        UplinkDeviceNode {
            device,
            profile,
            proxy,
            interval,
            epoch_offset_millis,
            frames_sent: 0,
            actuations: Vec::new(),
            last_value: 0.0,
            samples: OnceCell::new(),
        }
    }

    fn emit(&mut self, ctx: &mut Context<'_>) {
        let unix = unix_millis_at(self.epoch_offset_millis, ctx.now());
        let value = self.profile.sample(unix);
        self.last_value = value;
        let bytes = self.device.emit(value);
        // Every reading starts a fresh flight-recorder trace; the proxy
        // propagates the id into the pub/sub publish so the measurement
        // can be followed device → proxy → broker → subscriber.
        let trace = ctx.telemetry().tracer.next_trace_id();
        ctx.trace_hop(
            "device.sample",
            trace,
            format_args!(
                "protocol={:?} quantity={:?} value={value:.3}",
                self.device.protocol(),
                self.device.quantity()
            ),
        );
        self.samples
            .get_or_init(|| ctx.telemetry().metrics.counter_handle("device.samples"))
            .incr();
        ctx.send_spanned(self.proxy, DEVICE_UPLINK_PORT, bytes, trace, NO_SPAN);
        self.frames_sent += 1;
    }
}

impl Node for UplinkDeviceNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Desynchronize devices: first emission at a random fraction of
        // the interval, then periodic.
        let offset = ctx.rng().next_bounded(self.interval.as_nanos().max(1));
        ctx.set_timer(SimDuration::from_nanos(offset), TAG_EMIT);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        // Downlink actuation frames from the proxy.
        self.actuations.push(pkt.payload);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_EMIT {
            self.emit(ctx);
            ctx.set_timer(self.interval, TAG_EMIT);
        }
    }
}

/// A polled field device: refreshes its field server's live value every
/// `interval`, answers rpc-framed polls on its family's port and raw
/// downlink frames (actuations) on [`DEVICE_DOWNLINK_PORT`].
pub(crate) struct PolledDeviceNode {
    server: Box<dyn FieldServer>,
    port: Port,
    profile: EnergyProfile,
    interval: SimDuration,
    epoch_offset_millis: i64,
    /// Polls and downlink frames answered so far.
    pub(crate) requests_answered: u64,
}

impl std::fmt::Debug for PolledDeviceNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolledDeviceNode")
            .field("quantity", &self.server.quantity())
            .field("port", &self.port)
            .field("requests_answered", &self.requests_answered)
            .finish()
    }
}

impl PolledDeviceNode {
    /// Creates a device answering polls on `port` and refreshing its
    /// value every `interval`.
    pub(crate) fn new(
        server: Box<dyn FieldServer>,
        port: Port,
        profile: EnergyProfile,
        interval: SimDuration,
        epoch_offset_millis: i64,
    ) -> Self {
        PolledDeviceNode {
            server,
            port,
            profile,
            interval,
            epoch_offset_millis,
            requests_answered: 0,
        }
    }

    fn refresh(&mut self, now_millis: i64) {
        let value = self.profile.sample(now_millis);
        self.server.update(value, now_millis);
    }
}

impl Node for PolledDeviceNode {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.refresh(unix_millis_at(self.epoch_offset_millis, ctx.now()));
        ctx.set_timer(self.interval, TAG_EMIT);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Packet) {
        if pkt.port == self.port {
            // Proxy polls arrive in rpc framing.
            if let Ok(RpcFrame::Request { id, body }) = rpc::decode(&pkt.payload) {
                if let Ok(response) = self.server.handle_bytes(body) {
                    ctx.send(pkt.src, self.port, rpc::encode_response(id, &response));
                    self.requests_answered += 1;
                }
            }
        } else if pkt.port == DEVICE_DOWNLINK_PORT && self.server.handle_bytes(&pkt.payload).is_ok()
        {
            // Raw actuation frames (no rpc framing) from /actuate.
            self.requests_answered += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if tag == TAG_EMIT {
            self.refresh(unix_millis_at(self.epoch_offset_millis, ctx.now()));
            ctx.set_timer(self.interval, TAG_EMIT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_core::QuantityKind;
    use protocols::device::ZigbeeSensor;
    use protocols::zigbee::ZigbeeFrame;
    use simnet::{LinkModel, SimConfig, Simulator};

    #[derive(Default)]
    struct Sink {
        frames: Vec<Vec<u8>>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
            self.frames.push(pkt.payload);
        }
    }

    #[test]
    fn uplink_device_emits_periodically() {
        let mut sim = Simulator::new(SimConfig {
            seed: 5,
            default_link: LinkModel::ideal(),
        });
        let sink = sim.add_node("proxy", Sink::default());
        let dev = sim.add_node(
            "dev",
            UplinkDeviceNode::new(
                Box::new(ZigbeeSensor::new(0x10, QuantityKind::Temperature)),
                EnergyProfile::for_quantity(QuantityKind::Temperature, 1),
                sink,
                SimDuration::from_secs(60),
                1_420_416_000_000,
            ),
        );
        sim.run_for(SimDuration::from_secs(600));
        let frames = &sim.node_ref::<Sink>(sink).unwrap().frames;
        // 10 minutes at 1/min: 9-11 frames depending on the start offset.
        assert!((9..=11).contains(&frames.len()), "{}", frames.len());
        assert_eq!(
            sim.node_ref::<UplinkDeviceNode>(dev).unwrap().frames_sent as usize,
            frames.len()
        );
        // Every frame is a decodable ZigBee report.
        for f in frames {
            ZigbeeFrame::decode(f).unwrap();
        }
    }

    /// An install of the polled `kind` reporting `quantity`.
    fn polled(kind: protocols::ProtocolKind, quantity: QuantityKind) -> crate::registry::Install {
        crate::registry::Install {
            protocol: kind,
            quantity,
            eep: None,
            address: 0x0142,
            pan: protocols::ieee802154::PanId(0x2301),
        }
    }

    #[test]
    fn opcua_field_node_answers_polls() {
        let install = polled(protocols::ProtocolKind::OpcUa, QuantityKind::ThermalEnergy);
        assert!(crate::testkit::round_trip(&install) >= 10);
    }

    #[test]
    fn coap_field_node_answers_polls() {
        let install = polled(protocols::ProtocolKind::Coap, QuantityKind::Co2);
        assert!(crate::testkit::round_trip(&install) >= 10);
    }

    #[test]
    fn unix_time_mapping() {
        assert_eq!(unix_millis_at(1_000, SimTime::ZERO), 1_000);
        assert_eq!(unix_millis_at(1_000, SimTime::from_secs(2)), 3_000);
    }
}
