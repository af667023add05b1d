//! Criterion micro-benches for the middleware wire codec: the encode
//! and decode paths of a single `Publish` frame and of a batched
//! `BridgeBatch` frame (the federation's O(1)-frames-per-N-publishes
//! claim only pays off if batch encode stays linear and cheap).
//!
//! `wire/decode/*` measures `WirePacketRef::decode` — the borrowed,
//! zero-copy decoder the broker hot path actually runs since PR 6.
//! `wire/decode_owned/*` keeps the materializing `WirePacket::decode`
//! path (borrowed decode + `to_packet`) so the cost of ownership stays
//! visible side by side.

use bench_support::criterion::{criterion_group, criterion_main, Criterion};
use pubsub::{BridgeFrame, QoS, Topic, WirePacket, WirePacketRef};
use std::hint::black_box;

fn publish(i: usize) -> WirePacket {
    WirePacket::Publish {
        id: i as u64,
        topic: Topic::new(format!(
            "district/d{}/entity/b{}/device/dev{}/temperature",
            i % 4,
            i % 50,
            i
        ))
        .expect("valid topic"),
        payload: format!("{{\"value\":{}.25,\"unit\":\"C\",\"seq\":{i}}}", i % 40).into_bytes(),
        retain: i.is_multiple_of(2),
        qos: QoS::AtLeastOnce,
        trace: i as u64,
        span: i as u64 + 1,
    }
}

fn bridge_batch(frames: usize) -> WirePacket {
    WirePacket::BridgeBatch {
        incarnation: 3,
        batch_id: 17,
        frames: (0..frames)
            .map(|i| {
                let WirePacket::Publish {
                    topic,
                    payload,
                    retain,
                    qos,
                    trace,
                    span,
                    ..
                } = publish(i)
                else {
                    unreachable!()
                };
                BridgeFrame {
                    topic,
                    payload,
                    retain,
                    qos,
                    trace,
                    span,
                }
            })
            .collect(),
    }
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");

    let single = publish(17);
    let single_bytes = single.encode();
    group.bench_function("encode/publish", |b| b.iter(|| black_box(&single).encode()));
    group.bench_function("decode/publish", |b| {
        b.iter(|| WirePacketRef::decode(black_box(&single_bytes)).expect("round-trips"))
    });
    group.bench_function("decode_owned/publish", |b| {
        b.iter(|| WirePacket::decode(black_box(&single_bytes)).expect("round-trips"))
    });

    for &n in &[8usize, 64] {
        let batch = bridge_batch(n);
        let batch_bytes = batch.encode();
        group.bench_function(format!("encode/bridge_batch_{n}"), |b| {
            b.iter(|| black_box(&batch).encode())
        });
        group.bench_function(format!("decode/bridge_batch_{n}"), |b| {
            b.iter(|| WirePacketRef::decode(black_box(&batch_bytes)).expect("round-trips"))
        });
        group.bench_function(format!("decode_owned/bridge_batch_{n}"), |b| {
            b.iter(|| WirePacket::decode(black_box(&batch_bytes)).expect("round-trips"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
