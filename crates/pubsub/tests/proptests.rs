//! Randomized tests on topics, filters, the subscription trie and the
//! wire codec, driven by `simnet::rng::DeterministicRng` (reproducible,
//! no external property-testing dependency).

use pubsub::{BridgeFrame, QoS, SubscriptionTrie, Topic, TopicFilter, WirePacket, WirePacketRef};
use simnet::rng::DeterministicRng;

const CASES: usize = 512;

fn segment(rng: &mut DeterministicRng) -> String {
    let chars = b"abcxyz0189";
    let len = rng.next_range(1, 6) as usize;
    (0..len)
        .map(|_| chars[rng.next_bounded(chars.len() as u64) as usize] as char)
        .collect()
}

fn rand_topic(rng: &mut DeterministicRng) -> Topic {
    let n = rng.next_range(1, 5);
    let segs: Vec<String> = (0..n).map(|_| segment(rng)).collect();
    Topic::new(segs.join("/")).expect("valid by construction")
}

/// A filter with random segments, `+` wildcards, and maybe a trailing `#`.
fn rand_filter(rng: &mut DeterministicRng) -> TopicFilter {
    let n = rng.next_range(1, 5);
    let mut parts: Vec<String> = (0..n)
        .map(|_| {
            if rng.next_bounded(3) == 0 {
                "+".to_owned()
            } else {
                segment(rng)
            }
        })
        .collect();
    if rng.chance(0.5) {
        parts.push("#".to_owned());
    }
    TopicFilter::new(parts.join("/")).expect("valid by construction")
}

fn any_text(rng: &mut DeterministicRng, max_len: usize) -> String {
    let len = rng.next_bounded(max_len as u64 + 1) as usize;
    (0..len)
        .filter_map(|_| char::from_u32(rng.next_bounded(0x500) as u32))
        .collect()
}

#[test]
fn every_topic_matches_itself_and_hash() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0001);
    for _ in 0..CASES {
        let topic = rand_topic(&mut rng);
        let exact: TopicFilter = topic.clone().into();
        assert!(exact.matches(&topic));
        assert!(TopicFilter::new("#").expect("valid").matches(&topic));
    }
}

#[test]
fn trie_agrees_with_linear_matching() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0002);
    for _ in 0..CASES / 4 {
        let filters: Vec<TopicFilter> = (0..rng.next_bounded(24))
            .map(|_| rand_filter(&mut rng))
            .collect();
        let mut trie = SubscriptionTrie::new();
        for (i, f) in filters.iter().enumerate() {
            trie.insert(f, i);
        }
        for _ in 0..rng.next_range(1, 7) {
            let topic = rand_topic(&mut rng);
            let mut from_trie: Vec<usize> = trie.matches(&topic).into_iter().copied().collect();
            let mut linear: Vec<usize> = filters
                .iter()
                .enumerate()
                .filter(|(_, f)| f.matches(&topic))
                .map(|(i, _)| i)
                .collect();
            from_trie.sort_unstable();
            linear.sort_unstable();
            assert_eq!(from_trie, linear, "topic {topic}");
        }
    }
}

/// Where the trie walk reaches a matching filter: per level `#` before
/// the exact child before the `+` child, and at the topic's end `#`
/// before the filters that end there. Written from the filter text, so
/// it knows nothing of the trie.
fn walk_rank(filter: &TopicFilter) -> Vec<u8> {
    let mut rank: Vec<u8> = filter
        .segments()
        .map(|seg| match seg {
            "#" => 0,
            "+" => 2,
            _ => 1,
        })
        .collect();
    if rank.last() != Some(&0) {
        rank.push(1);
    }
    rank
}

#[test]
fn for_each_match_visits_matches_str_in_walk_order() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0013);
    // A three-word alphabet, so filters share prefixes with topics and
    // with each other: matches, near misses and duplicates are common.
    let word = |rng: &mut DeterministicRng| ["a", "b", "c"][rng.next_bounded(3) as usize];
    for _ in 0..CASES {
        let filters: Vec<TopicFilter> = (0..rng.next_bounded(32))
            .map(|_| {
                let mut parts: Vec<&str> = (0..rng.next_range(1, 5))
                    .map(|_| if rng.chance(0.3) { "+" } else { word(&mut rng) })
                    .collect();
                if rng.chance(0.4) {
                    parts.push("#");
                }
                TopicFilter::new(parts.join("/")).expect("valid by construction")
            })
            .collect();
        let mut trie = SubscriptionTrie::new();
        for (i, f) in filters.iter().enumerate() {
            trie.insert(f, i);
        }
        for _ in 0..8 {
            let parts: Vec<&str> = (0..rng.next_range(1, 6)).map(|_| word(&mut rng)).collect();
            let topic = Topic::new(parts.join("/")).expect("valid by construction");
            let mut expected: Vec<usize> = (0..filters.len())
                .filter(|&i| filters[i].matches(&topic))
                .collect();
            expected.sort_by_key(|&i| (walk_rank(&filters[i]), i));
            let mut visited = Vec::new();
            trie.for_each_match(topic.as_str(), |&i| visited.push(i));
            assert_eq!(visited, expected, "topic {topic} over {filters:?}");
            let listed: Vec<usize> = trie
                .matches_str(topic.as_str())
                .into_iter()
                .copied()
                .collect();
            assert_eq!(listed, expected, "topic {topic}");
        }
    }
}

#[test]
fn trie_insert_remove_is_identity() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0003);
    for _ in 0..CASES / 4 {
        let filters: Vec<TopicFilter> = (0..rng.next_range(1, 15))
            .map(|_| rand_filter(&mut rng))
            .collect();
        let topic = rand_topic(&mut rng);
        let mut trie = SubscriptionTrie::new();
        for (i, f) in filters.iter().enumerate() {
            trie.insert(f, i);
        }
        let before: Vec<usize> = trie.matches(&topic).into_iter().copied().collect();
        // Insert and remove a sentinel under every filter.
        for f in &filters {
            trie.insert(f, usize::MAX);
        }
        for f in &filters {
            let mut first = true;
            let removed = trie.remove_where(f, |&v| v == usize::MAX && std::mem::take(&mut first));
            assert_eq!(removed, 1);
        }
        let after: Vec<usize> = trie.matches(&topic).into_iter().copied().collect();
        assert_eq!(before, after);
        assert_eq!(trie.len(), filters.len());
    }
}

#[test]
fn remove_where_removes_exactly_the_predicate() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0004);
    for _ in 0..CASES / 4 {
        let filter = rand_filter(&mut rng);
        let values: Vec<usize> = (0..rng.next_range(1, 9))
            .map(|_| rng.next_bounded(10) as usize)
            .collect();
        let mut trie = SubscriptionTrie::new();
        for &v in &values {
            trie.insert(&filter, v);
        }
        let evens = values.iter().filter(|v| *v % 2 == 0).count();
        let removed = trie.remove_where(&filter, |v| v % 2 == 0);
        assert_eq!(removed, evens);
        assert_eq!(trie.len(), values.len() - evens);
    }
}

#[test]
fn wire_packets_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0005);
    for _ in 0..CASES {
        let payload: Vec<u8> = (0..rng.next_bounded(256))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let packet = WirePacket::Publish {
            id: rng.next_u64(),
            topic: rand_topic(&mut rng),
            payload,
            retain: rng.chance(0.5),
            qos: QoS::AtLeastOnce,
            trace: rng.next_u64(),
            span: rng.next_u64(),
        };
        assert_eq!(
            WirePacket::decode(&packet.encode()).expect("round trip"),
            packet
        );
    }
}

#[test]
fn wire_decoder_never_panics() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0006);
    for _ in 0..CASES {
        let bytes: Vec<u8> = (0..rng.next_bounded(128))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let _ = WirePacket::decode(&bytes);
    }
}

#[test]
fn grammar_rejections_never_panic() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0007);
    for _ in 0..CASES {
        let text = any_text(&mut rng, 32);
        let _ = Topic::new(text.clone());
        let _ = TopicFilter::new(text);
    }
}

/// A random district-flavoured or free-form topic.
fn rand_district_topic(rng: &mut DeterministicRng, districts: &[String]) -> Topic {
    if rng.chance(0.7) {
        let d = &districts[rng.next_bounded(districts.len() as u64) as usize];
        let tail: Vec<String> = (0..rng.next_range(1, 4)).map(|_| segment(rng)).collect();
        Topic::new(format!("district/{d}/{}", tail.join("/"))).expect("valid by construction")
    } else {
        rand_topic(rng)
    }
}

#[test]
fn shard_routing_is_a_partition() {
    use pubsub::ShardMap;
    let mut rng = DeterministicRng::seed_from(0x50B0_0008);
    for _ in 0..CASES {
        let shards = rng.next_range(1, 8) as usize;
        let mut map = ShardMap::new(shards);
        let districts: Vec<String> = (0..rng.next_range(1, 12))
            .map(|_| segment(&mut rng))
            .collect();
        for d in &districts {
            // Some districts are explicitly assigned, some hash-routed.
            if rng.chance(0.6) {
                map.assign(d.clone(), rng.next_bounded(shards as u64) as usize);
            }
        }
        for _ in 0..16 {
            let topic = rand_district_topic(&mut rng, &districts);
            // Total: every topic has an owner, and it is in range.
            let owner = map.owner(&topic);
            assert!(owner < shards, "{topic}: owner {owner} of {shards}");
            // A function: asking twice gives the same owner — so shard
            // ownership partitions the topic space (each topic in
            // exactly one shard).
            assert_eq!(owner, map.owner(&topic), "{topic}: deterministic");
            // District topics route on the district alone: any sibling
            // topic in the same district has the same owner.
            if let Some(d) = ShardMap::district_of(&topic) {
                let sibling = Topic::new(format!("district/{d}/{}", segment(&mut rng)))
                    .expect("valid by construction");
                assert_eq!(owner, map.owner(&sibling), "{topic} vs {sibling}");
            }
        }
    }
}

#[test]
fn bridge_batch_frames_round_trip() {
    let mut rng = DeterministicRng::seed_from(0x50B0_0009);
    for _ in 0..CASES {
        let frames: Vec<BridgeFrame> = (0..rng.next_bounded(12))
            .map(|_| BridgeFrame {
                topic: rand_topic(&mut rng),
                payload: (0..rng.next_bounded(64))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
                retain: rng.chance(0.3),
                qos: if rng.chance(0.5) {
                    QoS::AtLeastOnce
                } else {
                    QoS::AtMostOnce
                },
                trace: rng.next_u64(),
                span: rng.next_u64(),
            })
            .collect();
        let packet = WirePacket::BridgeBatch {
            incarnation: rng.next_u64(),
            batch_id: rng.next_u64(),
            frames,
        };
        assert_eq!(
            WirePacket::decode(&packet.encode()).expect("round trip"),
            packet
        );
    }
}

// ---------------------------------------------------------------------
// PR-6 zero-copy wire layer: the borrowed decoder, the owned decoder and
// the encoder are pinned to each other over random packets of every
// variant, random truncations at every cut point, and random byte flips.
// ---------------------------------------------------------------------

fn rand_qos(rng: &mut DeterministicRng) -> QoS {
    if rng.chance(0.5) {
        QoS::AtLeastOnce
    } else {
        QoS::AtMostOnce
    }
}

fn rand_payload(rng: &mut DeterministicRng, max: u64) -> Vec<u8> {
    (0..rng.next_bounded(max))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

fn rand_frame(rng: &mut DeterministicRng) -> BridgeFrame {
    BridgeFrame {
        topic: rand_topic(rng),
        payload: rand_payload(rng, 48),
        retain: rng.chance(0.3),
        qos: rand_qos(rng),
        trace: rng.next_u64(),
        span: rng.next_u64(),
    }
}

/// A random wire packet drawing uniformly from all 15 variants.
fn rand_packet(rng: &mut DeterministicRng) -> WirePacket {
    match rng.next_bounded(15) {
        0 => WirePacket::Subscribe {
            filter: rand_filter(rng),
            qos: rand_qos(rng),
        },
        1 => WirePacket::Unsubscribe {
            filter: rand_filter(rng),
        },
        2 => WirePacket::Publish {
            id: rng.next_u64(),
            topic: rand_topic(rng),
            payload: rand_payload(rng, 128),
            retain: rng.chance(0.5),
            qos: rand_qos(rng),
            trace: rng.next_u64(),
            span: rng.next_u64(),
        },
        3 => WirePacket::PubAck { id: rng.next_u64() },
        4 => WirePacket::Deliver {
            id: rng.next_u64(),
            topic: rand_topic(rng),
            payload: rand_payload(rng, 128),
            qos: rand_qos(rng),
            trace: rng.next_u64(),
            span: rng.next_u64(),
        },
        5 => WirePacket::DeliverAck { id: rng.next_u64() },
        6 => WirePacket::Ping,
        7 => WirePacket::Pong {
            incarnation: rng.next_u64(),
        },
        8 => WirePacket::BridgeAdvertise {
            incarnation: rng.next_u64(),
            filter: rand_filter(rng),
            qos: rand_qos(rng),
        },
        9 => WirePacket::BridgeUnadvertise {
            incarnation: rng.next_u64(),
            filter: rand_filter(rng),
        },
        10 => WirePacket::BridgeBatch {
            incarnation: rng.next_u64(),
            batch_id: rng.next_u64(),
            frames: (0..rng.next_bounded(8)).map(|_| rand_frame(rng)).collect(),
        },
        11 => WirePacket::BridgeBatchAck {
            batch_id: rng.next_u64(),
        },
        12 => WirePacket::BridgeHello {
            incarnation: rng.next_u64(),
        },
        13 => WirePacket::OpsGet {
            id: rng.next_u64(),
            path: format!("/{}", segment(rng)),
        },
        _ => WirePacket::OpsReply {
            id: rng.next_u64(),
            status: if rng.chance(0.7) { 200 } else { 404 },
            body: rand_payload(rng, 96),
        },
    }
}

#[test]
fn borrowed_decode_agrees_with_owned_decode_for_every_variant() {
    let mut rng = DeterministicRng::seed_from(0x50B0_000A);
    for _ in 0..CASES * 2 {
        let packet = rand_packet(&mut rng);
        let bytes = packet.encode();
        let borrowed = WirePacketRef::decode(&bytes).expect("encoder output decodes");
        // The three representations form a commuting triangle:
        // owned --encode--> bytes --borrowed decode--> view --to_packet--> owned.
        assert_eq!(borrowed, packet.view(), "view mismatch for {packet:?}");
        assert_eq!(borrowed.to_packet(), packet, "materialize mismatch");
        assert_eq!(
            WirePacket::decode(&bytes).expect("owned decode"),
            packet,
            "owned decode mismatch"
        );
        assert_eq!(borrowed.encode(), bytes, "re-encode is not the identity");
    }
}

#[test]
fn truncation_at_every_cut_point_is_rejected_by_both_decoders() {
    let mut rng = DeterministicRng::seed_from(0x50B0_000B);
    for _ in 0..CASES / 4 {
        let packet = rand_packet(&mut rng);
        let bytes = packet.encode();
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert!(
                WirePacketRef::decode(prefix).is_err(),
                "borrowed decoder accepted a {cut}-byte prefix of {packet:?}"
            );
            assert!(
                WirePacket::decode(prefix).is_err(),
                "owned decoder accepted a {cut}-byte prefix of {packet:?}"
            );
        }
    }
}

#[test]
fn byte_flip_fuzz_never_panics_and_decoders_agree() {
    let mut rng = DeterministicRng::seed_from(0x50B0_000C);
    for _ in 0..CASES * 2 {
        let packet = rand_packet(&mut rng);
        let mut bytes = packet.encode();
        // Flip 1..=3 random bits; the result may still be a valid packet
        // (e.g. a payload byte changed) — what matters is that neither
        // decoder panics and both reach the same verdict.
        for _ in 0..rng.next_range(1, 4) {
            let i = rng.next_bounded(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.next_bounded(8);
        }
        let borrowed = WirePacketRef::decode(&bytes);
        let owned = WirePacket::decode(&bytes);
        match (borrowed, owned) {
            (Ok(b), Ok(o)) => assert_eq!(b.to_packet(), o, "decoders disagree on value"),
            (Err(_), Err(_)) => {}
            (b, o) => panic!("decoders disagree on validity: borrowed={b:?} owned={o:?}"),
        }
    }
}
