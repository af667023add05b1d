//! Test support: a device of any registry row run against a driver of
//! its adapter.

use dimmer_core::QuantityKind;
use models::profiles::EnergyProfile;
use simnet::rpc::{self, RpcFrame};
use simnet::{Context, Node, NodeId, Packet, Port, SimConfig, SimDuration, Simulator, TimerTag};

use crate::adapters::DeviceAdapter;
use crate::devices::{PolledDeviceNode, UplinkDeviceNode};
use crate::registry::{family, Install, Placement};

const INTERVAL: SimDuration = SimDuration::from_secs(60);

/// Drives an adapter the way a Device-proxy does: decodes what a push
/// device sends, or polls a polled one on the row's port.
struct Driver {
    adapter: Box<dyn DeviceAdapter>,
    poll_port: Option<Port>,
    device: Option<NodeId>,
    /// The first quantity of every decoded frame.
    quantities: Vec<Option<QuantityKind>>,
    /// Frames that did not decode or arrived on another port than the
    /// row's.
    errors: u64,
}

impl Node for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.poll_port.is_some() {
            ctx.set_timer(INTERVAL, TimerTag(1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: TimerTag) {
        if let (Some(device), Some(port), Some(request)) =
            (self.device, self.poll_port, self.adapter.poll_request())
        {
            ctx.send(device, port, rpc::encode_request(0, &request));
        }
        ctx.set_timer(INTERVAL, tag);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, pkt: Packet) {
        let decoded = match (self.poll_port, rpc::decode(&pkt.payload)) {
            (None, _) if pkt.port == crate::DEVICE_UPLINK_PORT => {
                self.adapter.decode_uplink(&pkt.payload).ok()
            }
            (Some(port), Ok(RpcFrame::Response { body, .. })) if pkt.port == port => {
                self.adapter.decode_poll(body).ok()
            }
            _ => None,
        };
        match decoded {
            Some(samples) => self.quantities.push(samples.first().map(|s| s.0)),
            None => self.errors += 1,
        }
    }
}

/// Runs `install`'s device for ten intervals against a driver of its
/// adapter and checks the round trip: every frame the device sent
/// decodes, to the install's quantity, on the port its row says, and
/// only a polled row's device answers polls. Returns the frame count.
pub(crate) fn round_trip(install: &Install) -> u64 {
    let family = family(install.protocol);
    let mut sim = Simulator::new(SimConfig::default());
    let driver = Driver {
        adapter: (family.adapter)(install),
        poll_port: family.poll_port(),
        device: None,
        quantities: Vec::new(),
        errors: 0,
    };
    let driver = sim.add_node("driver", driver);
    let at = Placement {
        name: "device".to_owned(),
        shard: 0,
        sink: driver,
        profile: EnergyProfile::for_quantity(install.quantity, u64::from(install.address)),
        interval: INTERVAL,
        epoch_offset_millis: 1_420_416_000_000,
    };
    let device = family.add_device(&mut sim, install, at);
    sim.node_mut::<Driver>(driver).unwrap().device = Some(device);
    sim.run_for(SimDuration::from_secs(630));

    let sent = match family.poll_port() {
        None => {
            sim.node_ref::<UplinkDeviceNode>(device)
                .unwrap()
                .frames_sent
        }
        Some(_) => {
            sim.node_ref::<PolledDeviceNode>(device)
                .unwrap()
                .requests_answered
        }
    };
    let d = sim.node_ref::<Driver>(driver).unwrap();
    let label = format!("{install:?}: {:?}", d.quantities);
    assert!(sent >= 9 && d.errors == 0, "{label}");
    assert_eq!(d.quantities.len() as u64, sent, "{label}");
    assert!(
        d.quantities.iter().all(|&q| q == Some(install.quantity)),
        "{label}"
    );
    sent
}
