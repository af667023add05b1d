//! The correctness checks, as pure functions of harvested numbers.
//!
//! Every run evaluates the checks of its workload and the process
//! fails if one does. Keeping them free of simulator types lets each
//! be fed a bad result in a unit test.

use std::collections::BTreeSet;

/// `loadgen.busy_frac` above this fails the run: the generator would
/// be measuring itself.
pub const LOADGEN_BUSY_LIMIT: f64 = 0.15;

/// `city_fanout`: every publish sent inside the timed region reached
/// every subscriber it was due at, and every payload carried a stamp.
pub fn delivered_equals_published(due: u64, delivered: u64, malformed: u64) -> bool {
    due > 0 && delivered == due && malformed == 0
}

/// A latency (or any lower-is-better number) against its limit; NaN
/// fails.
pub fn within_limit(value: f64, limit: f64) -> bool {
    value <= limit
}

pub fn all_zero(counts: &[f64]) -> bool {
    counts.iter().all(|&c| c == 0.0)
}

/// `city_fanout`, traced run: the delivery checksum after the same
/// slices at one and at two threads.
pub fn checksums_equal(one_thread: u64, two_threads: u64) -> bool {
    one_thread == two_threads
}

/// `district_ingest`: QoS 1 conservation. Every sample a proxy
/// published reached the district's benchmark subscriber, less at most
/// one sample per device still in flight when the count was taken, and
/// never more than were published.
pub fn qos1_conserved(published: u64, delivered: u64, devices: u64) -> bool {
    published > 0 && delivered <= published && published - delivered <= devices
}

/// `district_ingest`: the window operator's ledger.
pub fn windows_conserved(samples_in: u64, accepted: u64, late: u64, shed: u64) -> bool {
    samples_in > 0 && samples_in == accepted + late + shed
}

/// Everything expected happened exactly once: every proxy the scenario
/// deploys registered with the master, every query due completed.
pub fn all_arrived(expected: u64, arrived: u64) -> bool {
    expected > 0 && arrived == expected
}

/// One integrated area snapshot, reduced to what the checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFacts {
    /// Index of the bounding box the client queries.
    pub bbox: usize,
    pub xml: bool,
    pub errors: u64,
    pub entity_ids: BTreeSet<String>,
    pub measurements: usize,
    /// Simulated instant the query was issued, nanoseconds.
    pub started_ns: u64,
    /// Simulated time from issue to integrated snapshot, nanoseconds.
    pub latency_ns: u64,
}

/// `area_query`: no snapshot reports an error.
pub fn snapshots_clean(snapshots: &[SnapshotFacts]) -> bool {
    !snapshots.is_empty() && snapshots.iter().all(|s| s.errors == 0)
}

/// `area_query`: each snapshot integrates exactly the entities the
/// scenario places inside its bounding box. `expected[b]` is the entity
/// id set of box `b`.
pub fn entities_match_scenario(snapshots: &[SnapshotFacts], expected: &[BTreeSet<String>]) -> bool {
    snapshots
        .iter()
        .all(|s| expected.get(s.bbox) == Some(&s.entity_ids))
}

/// `area_query`: a JSON and an XML client over one box integrate the
/// same entities, and — for queries issued at the same instant — the
/// same number of measurements.
pub fn formats_agree(snapshots: &[SnapshotFacts]) -> bool {
    let mut paired = 0;
    for json in snapshots.iter().filter(|s| !s.xml) {
        for xml in snapshots
            .iter()
            .filter(|s| s.xml && s.bbox == json.bbox && s.started_ns == json.started_ns)
        {
            paired += 1;
            if xml.entity_ids != json.entity_ids || xml.measurements != json.measurements {
                return false;
            }
        }
    }
    paired > 0
}

/// `history_store`: a read returned exactly the generated points,
/// bit for bit.
pub fn points_equal(read: &[(i64, f64)], generated: &[(i64, f64)]) -> bool {
    read.len() == generated.len()
        && read
            .iter()
            .zip(generated)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// `history_store`: after `crash_recover()` the store holds every
/// point that was acknowledged.
pub fn recovered_everything(inserted: u64, len_after_recovery: u64) -> bool {
    inserted > 0 && len_after_recovery == inserted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_checks_reject_loss_excess_and_unstamped_payloads() {
        assert!(delivered_equals_published(100, 100, 0));
        assert!(!delivered_equals_published(100, 99, 0), "one lost");
        assert!(!delivered_equals_published(100, 101, 0), "one duplicated");
        assert!(!delivered_equals_published(100, 100, 1), "one unstamped");
        assert!(!delivered_equals_published(0, 0, 0), "nothing ran");
        assert!(checksums_equal(7, 7) && !checksums_equal(7, 8));
    }

    #[test]
    fn limits_and_zero_counts() {
        assert!(within_limit(249.9, 250.0) && !within_limit(250.1, 250.0));
        assert!(!within_limit(f64::NAN, 250.0));
        assert!(within_limit(0.10, LOADGEN_BUSY_LIMIT) && !within_limit(0.2, LOADGEN_BUSY_LIMIT));
        assert!(all_zero(&[0.0, 0.0]) && !all_zero(&[0.0, 1.0]));
    }

    #[test]
    fn ingest_checks_reject_broken_ledgers() {
        assert!(qos1_conserved(1000, 1000, 6));
        assert!(qos1_conserved(1000, 994, 6), "six in flight, six devices");
        assert!(!qos1_conserved(1000, 993, 6), "seven missing");
        assert!(
            !qos1_conserved(1000, 1001, 6),
            "more delivered than published"
        );
        assert!(!qos1_conserved(0, 0, 6));
        assert!(windows_conserved(10, 7, 2, 1));
        assert!(!windows_conserved(10, 7, 2, 0), "one sample unaccounted");
        assert!(!windows_conserved(0, 0, 0, 0));
        assert!(all_arrived(8160, 8160) && !all_arrived(8160, 8159) && !all_arrived(0, 0));
    }

    fn snap(bbox: usize, xml: bool, ids: &[&str], measurements: usize) -> SnapshotFacts {
        SnapshotFacts {
            bbox,
            xml,
            errors: 0,
            entity_ids: ids.iter().map(|s| (*s).to_owned()).collect(),
            measurements,
            started_ns: 5,
            latency_ns: 9,
        }
    }

    #[test]
    fn query_checks_reject_errors_wrong_entities_and_format_drift() {
        let expected = vec![
            ["a", "b"].iter().map(|s| (*s).to_owned()).collect(),
            ["a"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect::<BTreeSet<_>>(),
        ];
        let good = vec![
            snap(0, false, &["a", "b"], 20),
            snap(0, true, &["b", "a"], 20),
        ];
        assert!(snapshots_clean(&good));
        assert!(entities_match_scenario(&good, &expected));
        assert!(formats_agree(&good));

        let mut errored = good.clone();
        errored[1].errors = 1;
        assert!(!snapshots_clean(&errored));
        assert!(!snapshots_clean(&[]));

        let missing = vec![snap(0, false, &["a"], 20)];
        assert!(
            !entities_match_scenario(&missing, &expected),
            "b not integrated"
        );
        let out_of_range = vec![snap(2, false, &["a"], 20)];
        assert!(!entities_match_scenario(&out_of_range, &expected));

        let drift = vec![
            snap(0, false, &["a", "b"], 20),
            snap(0, true, &["a", "b"], 19),
        ];
        assert!(!formats_agree(&drift), "XML lost a measurement");
        let unpaired = vec![snap(0, false, &["a", "b"], 20), snap(1, true, &["a"], 10)];
        assert!(!formats_agree(&unpaired), "nothing to compare");
    }

    #[test]
    fn store_checks_compare_bits_and_counts() {
        let generated = [(1, 1.5), (2, -0.0)];
        assert!(points_equal(&[(1, 1.5), (2, -0.0)], &generated));
        assert!(
            !points_equal(&[(1, 1.5), (2, 0.0)], &generated),
            "sign bit differs"
        );
        assert!(!points_equal(&[(1, 1.5)], &generated), "one point short");
        assert!(
            !points_equal(&[(1, 1.5), (3, -0.0)], &generated),
            "timestamp differs"
        );
        assert!(recovered_everything(8_294_400, 8_294_400));
        assert!(!recovered_everything(8_294_400, 8_294_399));
    }
}
