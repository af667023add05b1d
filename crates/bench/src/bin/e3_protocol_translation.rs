//! E3 — interoperability overhead per protocol.
//!
//! Claim tested: the dedicated layer's translation (native frame →
//! common data format) is cheap enough to run per sample at the edge.
//! Measures wall-clock decode+translate cost for each protocol family
//! and the resulting common-format JSON size.

use bench_support::report::{fmt_f64, Table};
use bench_support::time_it;
use dimmer_core::codec::{self, DataFormat};
use dimmer_core::QuantityKind::{self, Co2, Temperature, ThermalEnergy};
use dimmer_core::{DeviceId, Measurement, Timestamp};
use protocols::enocean::Eep;
use protocols::ieee802154::PanId;
use protocols::ProtocolKind::{Coap, EnOcean, Ieee802154, OpcUa, Zigbee};
use proxy::adapters::DeviceAdapter;
use proxy::registry::{self, Device, Install};

const ITERATIONS: u32 = 20_000;

/// The common-format JSON bytes of one frame's samples.
fn json_bytes(samples: &[(QuantityKind, f64)]) -> usize {
    samples
        .iter()
        .map(|&(q, v)| {
            codec::encode_measurement(
                &Measurement::new(
                    DeviceId::new("bench-dev").expect("valid"),
                    q,
                    v,
                    q.canonical_unit(),
                    Timestamp::EPOCH,
                ),
                DataFormat::Json,
            )
            .len()
        })
        .sum()
}

/// Decodes one frame of `install`'s family reporting `value` and
/// translates it to the common format, `ITERATIONS` times: a push
/// device's uplink, or a field server's answer to the adapter's poll.
fn measure(name: &str, install: Install, value: f64, table: &mut Table) {
    let family = registry::family(install.protocol);
    let mut adapter = (family.adapter)(&install);
    let (frame, polled) = match family.device {
        Device::Push(device) => (device(&install).emit(value), false),
        Device::Polled { server, .. } => {
            let mut server = server(&install);
            server.update(value, 0);
            let poll = adapter.poll_request().expect("polled family");
            (server.handle_bytes(&poll).expect("server answers"), true)
        }
    };
    let decode = |adapter: &mut Box<dyn DeviceAdapter>| {
        if polled {
            adapter.decode_poll(&frame)
        } else {
            adapter.decode_uplink(&frame)
        }
        .expect("valid frame")
    };
    let (_, ns) = time_it(ITERATIONS, || json_bytes(&decode(&mut adapter)));
    let samples = decode(&mut adapter);
    table.row([
        name.to_owned(),
        frame.len().to_string(),
        samples.len().to_string(),
        json_bytes(&samples).to_string(),
        fmt_f64(ns, 0),
        fmt_f64(1e9 / ns, 0),
    ]);
}

fn main() {
    let mut table = Table::new(
        "E3: per-protocol frame decode + translation cost",
        [
            "protocol",
            "frame_bytes",
            "samples_per_frame",
            "json_bytes",
            "ns_per_frame",
            "frames_per_s",
        ],
    );
    // (row label, protocol, quantity, EnOcean profile, reported value)
    let rows = [
        ("ieee802154", Ieee802154, Temperature, None, 21.5),
        ("zigbee", Zigbee, Temperature, None, 21.5),
        (
            "enocean(A5-04-01)",
            EnOcean,
            Temperature,
            Some(Eep::A50401),
            21.5,
        ),
        ("opcua(poll)", OpcUa, ThermalEnergy, None, 4321.0),
        ("coap(poll)", Coap, Co2, None, 417.0),
    ];
    for (name, protocol, quantity, eep, value) in rows {
        let install = Install {
            protocol,
            quantity,
            eep,
            address: 0x42,
            pan: PanId(0x23),
        };
        measure(name, install, value, &mut table);
    }

    table.print_with_series();
}
