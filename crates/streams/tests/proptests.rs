//! Randomized properties of the windowed operators, driven by
//! `simnet::rng::DeterministicRng` (reproducible, no external
//! property-testing dependency): watermark monotonicity, window-close
//! determinism under reordering and sample conservation. Floods past
//! the open-pane cap are `window::tests::floods_shed_at_the_cap_and_reopen_after_closes`.

use std::collections::BTreeMap;

use simnet::rng::DeterministicRng;
use streams::{ClosedWindow, Observed, WindowSpec, WindowedAggregator};
use telemetry::NO_TRACE;

const CASES: usize = 256;

fn seed(case: usize, stream: u64) -> DeterministicRng {
    let base: u64 = std::env::var("DIMMER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x57E4);
    DeterministicRng::seed_from(base ^ (case as u64).wrapping_mul(0x9E37_79B9)).derive(stream)
}

fn rand_spec(rng: &mut DeterministicRng) -> WindowSpec {
    WindowSpec::tumbling(rng.next_range(1, 2_000) as i64)
}

/// `(key, event time, value)` samples in arrival order.
fn rand_samples(rng: &mut DeterministicRng, span: i64) -> Vec<(u8, i64, f64)> {
    let n = rng.next_range(1, 200) as usize;
    (0..n)
        .map(|_| {
            (
                rng.next_bounded(4) as u8,
                rng.next_range(0, span as u64 - 1) as i64,
                rng.next_f64_range(-50.0, 50.0),
            )
        })
        .collect()
}

fn drain<K: Ord + Clone>(agg: &mut WindowedAggregator<K>) -> Vec<ClosedWindow<K>> {
    let mut closed = agg.close_ready();
    agg.advance_watermark_to(i64::MAX);
    closed.extend(agg.close_ready());
    closed
}

fn digest(closed: &[ClosedWindow<u8>]) -> Vec<(u8, i64, i64, u64)> {
    closed
        .iter()
        .map(|w| (w.key, w.start, w.end, w.acc.count))
        .collect()
}

/// Sums folded in a different arrival order differ in the last float
/// bits; everything else must agree exactly.
fn assert_equivalent(a: &[ClosedWindow<u8>], b: &[ClosedWindow<u8>], case: usize) {
    assert_eq!(digest(a), digest(b), "case {case}");
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x.acc.sum - y.acc.sum).abs() < 1e-9,
            "case {case}: sums diverged {} vs {}",
            x.acc.sum,
            y.acc.sum
        );
        assert_eq!(x.acc.min, y.acc.min, "case {case}");
        assert_eq!(x.acc.max, y.acc.max, "case {case}");
    }
}

#[test]
fn watermark_is_monotonic_under_arbitrary_streams() {
    for case in 0..CASES {
        let mut rng = seed(case, 1);
        let spec = rand_spec(&mut rng);
        let lateness = rng.next_range(0, 500) as i64;
        let mut agg: WindowedAggregator<u8> = WindowedAggregator::new(spec, lateness);
        let mut high = agg.watermark();
        for (key, t, value) in rand_samples(&mut rng, 5_000) {
            agg.observe(key, t, value, NO_TRACE);
            assert!(
                agg.watermark() >= high,
                "case {case}: watermark regressed {} -> {}",
                high,
                agg.watermark()
            );
            high = agg.watermark();
            // A wall-clock flush in between must never regress it either.
            if rng.chance(0.2) {
                agg.advance_watermark_to(rng.next_range(0, 6_000) as i64);
                assert!(agg.watermark() >= high, "case {case}: flush regressed");
                high = agg.watermark();
            }
        }
    }
}

#[test]
fn closes_are_deterministic_under_bounded_reordering() {
    for case in 0..CASES {
        let mut rng = seed(case, 2);
        let spec = rand_spec(&mut rng);
        let lateness = rng.next_range(100, 1_000) as i64;
        let mut samples = rand_samples(&mut rng, 5_000);
        samples.sort_by_key(|&(_, t, _)| t);

        // Reference: in timestamp order, closing incrementally.
        let mut reference: WindowedAggregator<u8> = WindowedAggregator::new(spec, lateness);
        let mut ref_closed = Vec::new();
        for &(key, t, value) in &samples {
            assert_eq!(
                reference.observe(key, t, value, NO_TRACE),
                Observed::Accepted
            );
            ref_closed.extend(reference.close_ready());
        }
        ref_closed.extend(drain(&mut reference));

        // Jittered: each arrival delayed by at most the lateness horizon,
        // so nothing may be dropped and every close must be identical.
        let mut jittered: Vec<(i64, usize)> = samples
            .iter()
            .enumerate()
            .map(|(i, &(_, t, _))| (t + rng.next_range(0, lateness as u64) as i64, i))
            .collect();
        jittered.sort();
        let mut reordered: WindowedAggregator<u8> = WindowedAggregator::new(spec, lateness);
        let mut out = Vec::new();
        for &(_, i) in &jittered {
            let (key, t, value) = samples[i];
            assert_eq!(
                reordered.observe(key, t, value, NO_TRACE),
                Observed::Accepted,
                "case {case}: bounded-late sample dropped"
            );
            out.extend(reordered.close_ready());
        }
        out.extend(drain(&mut reordered));

        assert_equivalent(&out, &ref_closed, case);
        assert_eq!(reordered.stats().late_dropped, 0, "case {case}");
    }
}

#[test]
fn full_shuffle_with_covering_lateness_matches_sorted_order() {
    for case in 0..CASES {
        let mut rng = seed(case, 3);
        let spec = rand_spec(&mut rng);
        let span = 3_000;
        // Lateness covering the whole span: no order can drop anything.
        // At most 200 panes, far below the cap: shedding is arrival-order
        // dependent by design; determinism is about closes.
        let mut sorted_agg: WindowedAggregator<u8> = WindowedAggregator::new(spec, span);
        let mut shuffled_agg: WindowedAggregator<u8> = WindowedAggregator::new(spec, span);

        let mut samples = rand_samples(&mut rng, span);
        let mut shuffled = samples.clone();
        rng.shuffle(&mut shuffled);
        samples.sort_by_key(|&(_, t, _)| t);

        for &(key, t, value) in &samples {
            sorted_agg.observe(key, t, value, NO_TRACE);
        }
        for &(key, t, value) in &shuffled {
            shuffled_agg.observe(key, t, value, NO_TRACE);
        }
        assert_equivalent(&drain(&mut sorted_agg), &drain(&mut shuffled_agg), case);
    }
}

#[test]
fn samples_are_conserved_across_accept_late_and_shed() {
    for case in 0..CASES {
        let mut rng = seed(case, 4);
        let size = rng.next_range(1, 500) as i64;
        let lateness = rng.next_range(0, 300) as i64;
        // Ordinary streams never reach the pane cap, so `shed` stays 0
        // here; the flood unit test in `window.rs` mixes all three.
        let mut agg: WindowedAggregator<u8> =
            WindowedAggregator::new(WindowSpec::tumbling(size), lateness);

        let samples = rand_samples(&mut rng, 10_000);
        let mut accepted_closed = 0u64;
        for &(key, t, value) in &samples {
            agg.observe(key, t, value, NO_TRACE);
            accepted_closed += agg.close_ready().iter().map(|w| w.acc.count).sum::<u64>();
        }
        accepted_closed += drain(&mut agg).iter().map(|w| w.acc.count).sum::<u64>();

        let stats = agg.stats();
        assert_eq!(stats.samples_in, samples.len() as u64, "case {case}");
        assert_eq!(
            stats.samples_in,
            stats.accepted + stats.late_dropped + stats.shed,
            "case {case}: {stats:?}"
        );
        // Tumbling windows assign each accepted sample to exactly one
        // pane, so every accepted sample surfaces in exactly one close.
        assert_eq!(accepted_closed, stats.accepted, "case {case}: {stats:?}");
    }
}

#[test]
fn closed_means_match_a_direct_computation() {
    for case in 0..CASES {
        let mut rng = seed(case, 5);
        let size = rng.next_range(10, 800) as i64;
        let span = 4_000;
        let mut agg: WindowedAggregator<u8> =
            WindowedAggregator::new(WindowSpec::tumbling(size), span);
        let samples = rand_samples(&mut rng, span);
        let mut expected: BTreeMap<(i64, u8), (u64, f64)> = BTreeMap::new();
        for &(key, t, value) in &samples {
            agg.observe(key, t, value, NO_TRACE);
            let start = t.div_euclid(size) * size;
            let e = expected.entry((start, key)).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += value;
        }
        let closed = drain(&mut agg);
        assert_eq!(closed.len(), expected.len(), "case {case}");
        for w in closed {
            let (count, sum) = expected[&(w.start, w.key)];
            assert_eq!(w.acc.count, count, "case {case}");
            assert!((w.acc.sum - sum).abs() < 1e-9, "case {case}");
            assert!(
                (w.acc.mean() - sum / count as f64).abs() < 1e-12,
                "case {case}"
            );
        }
    }
}
