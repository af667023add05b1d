//! The codec golden: one FNV-1a digest per [`FAMILIES`] row over a fixed
//! sweep of installs and values. Each digest covers every frame the
//! row's device emits, every poll request its adapter sends and every
//! answer its field server gives, every actuation frame, and the outcome
//! of decoding each of those frames cut at every length and with every
//! single bit flipped: samples by quantity and `to_bits`, errors by
//! their `Display`. A codec rewrite that keeps the wire and the decode
//! verdicts leaves all five digests where they are.

use protocols::ieee802154::PanId;
use protocols::ProtocolError;
use proxy::registry::{Device, Install, FAMILIES};
use simnet::rng::DeterministicRng;

/// Values each device reports: signed zeros, fractions that do not
/// round-trip through `f32`, out-of-range and non-finite readings.
const VALUES: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    21.5,
    -40.25,
    0.1 + 0.2,
    1234.567,
    99_999.99,
    1e300,
    -5e-324,
    f64::INFINITY,
    f64::NAN,
];

/// Installs per row, each with its own draw and address.
const INSTALLS: u32 = 8;

/// The digests, in row order.
const PINNED: [u64; 5] = [
    0xeec1_db94_cee8_acd8,
    0x7117_9e9f_b362_3f91,
    0xf8b4_677f_8f56_a22b,
    0xe8f4_de84_0578_d525,
    0xc312_1861_5732_e1e5,
];

/// FNV-1a continued from `hash` over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Digest(u64);

impl Digest {
    fn bytes(&mut self, tag: &str, bytes: &[u8]) {
        self.0 = fnv1a(self.0, tag.as_bytes());
        self.0 = fnv1a(self.0, &(bytes.len() as u64).to_le_bytes());
        self.0 = fnv1a(self.0, bytes);
    }

    fn outcome<T: AsRef<[(dimmer_core::QuantityKind, f64)]>>(
        &mut self,
        outcome: Result<T, ProtocolError>,
    ) {
        match outcome {
            Ok(samples) => {
                let samples = samples.as_ref();
                self.bytes("ok", &(samples.len() as u64).to_le_bytes());
                for (quantity, value) in samples {
                    self.bytes(quantity.as_str(), &value.to_bits().to_le_bytes());
                }
            }
            Err(e) => self.bytes("err", e.to_string().as_bytes()),
        }
    }

    /// Every cut and every single-bit flip of `frame` through `decode`.
    fn mangled<T>(
        &mut self,
        frame: &[u8],
        mut decode: impl FnMut(&[u8]) -> T,
        mut fold: impl FnMut(&mut Self, T),
    ) {
        for cut in 0..frame.len() {
            let verdict = decode(&frame[..cut]);
            fold(self, verdict);
        }
        let mut flipped = frame.to_vec();
        for bit in 0..frame.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let verdict = decode(&flipped);
            fold(self, verdict);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

fn row_digest(row: usize) -> u64 {
    let family = &FAMILIES[row];
    let mut rng = DeterministicRng::seed_from(0xC0DE_C0DE + row as u64);
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    for k in 0..INSTALLS {
        let (quantity, eep) = (family.draw)(&mut rng);
        let install = Install {
            protocol: family.kind,
            quantity,
            eep,
            address: 0x0142 + k * 0x0111,
            pan: PanId(0x2301),
        };
        let mut adapter = (family.adapter)(&install);
        match family.device {
            Device::Push(device) => {
                let mut device = device(&install);
                for value in VALUES {
                    let frame = device.emit(value);
                    digest.bytes("emit", &frame);
                    digest.outcome(adapter.decode_uplink(&frame));
                    digest.mangled(
                        &frame,
                        |bytes| adapter.decode_uplink(bytes),
                        |d, verdict| d.outcome(verdict),
                    );
                }
            }
            Device::Polled { server, .. } => {
                let mut server = server(&install);
                for (i, value) in VALUES.into_iter().enumerate() {
                    server.update(value, 1_420_416_000_000 + i as i64 * 2_000);
                    let request = adapter.poll_request().expect("a polled row polls");
                    digest.bytes("poll", &request);
                    let response = server.handle_bytes(&request).expect("answers its adapter");
                    digest.bytes("answer", &response);
                    digest.outcome(adapter.decode_poll(&response));
                    digest.mangled(
                        &response,
                        |bytes| adapter.decode_poll(bytes),
                        |d, verdict| d.outcome(verdict),
                    );
                    digest.mangled(
                        &request,
                        |bytes| server.handle_bytes(bytes),
                        |d, verdict| match verdict {
                            Ok(answer) => d.bytes("answer", &answer),
                            Err(e) => d.bytes("err", e.to_string().as_bytes()),
                        },
                    );
                }
                // A polled device answers its actuations itself.
                for value in VALUES {
                    if let Some(frame) = adapter.encode_actuation(value) {
                        digest.bytes("actuate", &frame);
                        match server.handle_bytes(&frame) {
                            Ok(answer) => digest.bytes("answer", &answer),
                            Err(e) => digest.bytes("err", e.to_string().as_bytes()),
                        }
                    }
                }
            }
        }
        for value in VALUES {
            match adapter.encode_actuation(value) {
                Some(frame) => digest.bytes("actuate", &frame),
                None => digest.bytes("none", &[]),
            }
        }
    }
    digest.0
}

#[test]
fn every_rows_frames_and_verdicts_match_their_pins() {
    let digests: Vec<u64> = (0..FAMILIES.len()).map(row_digest).collect();
    let listed: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(digests, PINNED, "{listed:?}");
}
