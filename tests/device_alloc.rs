//! The cost contract of the Device-proxy's dedicated layer, counted in
//! allocations, for every row of `proxy::registry::FAMILIES`: a device's
//! `emit`, an adapter's `poll_request` and a field server's
//! `handle_bytes` allocate once, for the frame they return, sized up
//! front; `decode_uplink` and `decode_poll` allocate once, for the
//! samples they return, and not at all when they fail. A decode of any
//! cut or bit-flipped frame allocates at most once and at most 64 bytes
//! (k = 0, c = 64 in the amplification table of ROADMAP item 26).
//!
//! This file is its own test binary, so it can install the counting
//! `#[global_allocator]` of `tests/support` without touching any other
//! suite.

use protocols::ieee802154::PanId;
use protocols::ProtocolError;
use proxy::registry::{Device, Install, FAMILIES};
use simnet::rng::DeterministicRng;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations_and_bytes_in, allocations_in};

/// Readings a district device reports.
const VALUES: [f64; 6] = [0.0, 1.0, 21.5, 417.0, 1234.5, 98_765.4];

/// What a Device-proxy does with one frame of its device.
type Decode<'a> =
    dyn FnMut(&[u8]) -> Result<Vec<(dimmer_core::QuantityKind, f64)>, ProtocolError> + 'a;

/// Every cut and single-bit flip of `frame` decodes with at most one
/// allocation of at most 64 bytes; a failed decode allocates nothing,
/// unless it failed on a CoAP payload that is not JSON, whose parse
/// error carries its reason.
fn assert_mangled_frames_stay_within_budget(frame: &[u8], decode: &mut Decode<'_>, row: &str) {
    let mut mangled: Vec<Vec<u8>> = (0..frame.len()).map(|cut| frame[..cut].to_vec()).collect();
    for bit in 0..frame.len() * 8 {
        let mut flipped = frame.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        mangled.push(flipped);
    }
    for bytes in &mangled {
        let (verdict, allocations, allocated) = allocations_and_bytes_in(|| decode(bytes));
        assert!(
            allocations <= 1 && allocated <= 64,
            "{row}: {allocations} allocations, {allocated} B for {bytes:02x?}"
        );
        if let Err(e) = verdict {
            let json = e
                .to_string()
                .contains("coap payload is not a sensor reading");
            assert!(json || allocations == 0, "{row}: {e} cost {allocations}");
        }
    }
}

#[test]
fn every_rows_codecs_allocate_only_what_they_return() {
    let mut rng = DeterministicRng::seed_from(26);
    for family in &FAMILIES {
        let row = family.kind.as_str();
        for address in 0x0142..0x0146 {
            let (quantity, eep) = (family.draw)(&mut rng);
            let install = Install {
                protocol: family.kind,
                quantity,
                eep,
                address,
                pan: PanId(0x2301),
            };
            let mut adapter = (family.adapter)(&install);
            let mut frames = Vec::new();
            match family.device {
                Device::Push(device) => {
                    let mut device = device(&install);
                    for value in VALUES {
                        let (frame, cost) = allocations_in(|| device.emit(value));
                        assert_eq!(cost, 1, "{row}: emit");
                        assert_eq!(frame.capacity(), frame.len(), "{row}: emit sized up front");
                        frames.push(frame);
                    }
                }
                Device::Polled { server, .. } => {
                    let mut server = server(&install);
                    for (i, value) in VALUES.into_iter().enumerate() {
                        server.update(value, 1_420_416_000_000 + i as i64 * 2_000);
                        let (request, cost) = allocations_in(|| adapter.poll_request());
                        let request = request.expect("a polled row polls");
                        assert_eq!(cost, 1, "{row}: poll_request");
                        assert_eq!(
                            request.capacity(),
                            request.len(),
                            "{row}: poll sized up front"
                        );
                        let (answer, cost) = allocations_in(|| server.handle_bytes(&request));
                        let answer = answer.expect("answers its adapter");
                        assert_eq!(cost, 1, "{row}: handle_bytes");
                        assert_eq!(
                            answer.capacity(),
                            answer.len(),
                            "{row}: answer sized up front"
                        );
                        frames.push(answer);
                    }
                }
            }
            let polled = family.poll_port().is_some();
            let mut decode = |bytes: &[u8]| {
                if polled {
                    adapter.decode_poll(bytes)
                } else {
                    adapter.decode_uplink(bytes)
                }
            };
            for frame in &frames {
                let (samples, cost) = allocations_in(|| decode(frame));
                assert!(!samples.expect("own frame decodes").is_empty(), "{row}");
                assert_eq!(cost, 1, "{row}: decode");
                assert_mangled_frames_stay_within_budget(frame, &mut decode, row);
            }
        }
    }
}

#[test]
fn a_frame_from_another_device_fails_without_allocating() {
    let mut rng = DeterministicRng::seed_from(27);
    for family in FAMILIES.iter().filter(|f| f.poll_port().is_none()) {
        let (quantity, eep) = (family.draw)(&mut rng);
        let install = |address| Install {
            protocol: family.kind,
            quantity,
            eep,
            address,
            pan: PanId(0x2301),
        };
        let Device::Push(device) = family.device else {
            unreachable!("filtered to push rows");
        };
        let frame = device(&install(0x0142)).emit(21.5);
        let mut stranger = (family.adapter)(&install(0x0143));
        let (verdict, cost) = allocations_in(|| stranger.decode_uplink(&frame));
        assert!(verdict.is_err(), "{:?}", family.kind);
        assert_eq!(cost, 0, "{:?}", family.kind);
    }
}
