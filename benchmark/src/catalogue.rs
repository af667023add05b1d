//! Every workload and metric the benchmark defines, by name.
//!
//! Two vocabularies share this file. The benchmark's own reports
//! (`run`, `compare`, `history.jsonl`, README) use the fourteen
//! end-to-end names below, each of which applies to some workloads.
//! `BENCHMARK.json` must list metrics that *every* workload reports, so
//! [`CONTRACT`] projects them onto seven role names (`ops_per_wall_s`
//! is `msgs_per_wall_s` on `city_fanout`, `queries_per_wall_s` on
//! `area_query`, ...). Per-layer names are the same in both.

pub const CITY_FANOUT: &str = "city_fanout";
pub const DISTRICT_INGEST: &str = "district_ingest";
pub const AREA_QUERY: &str = "area_query";
pub const HISTORY_STORE: &str = "history_store";

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: CITY_FANOUT,
        why: "100k buildings, 16 broker shards, lean publishers: only simnet and pubsub work, so kernel, wire and broker changes show here and codec or storage changes must not",
    },
    Workload {
        name: DISTRICT_INGEST,
        why: "6000 devices through the Fig. 1(a) write path: frame decode, tskv append, JSON, QoS 1 publish, aggregation, traces; the all-layers case and city_fanout's counterpart",
    },
    Workload {
        name: AREA_QUERY,
        why: "the read path: master resolve, ~150 proxy requests per query in JSON and XML, tskv head reads; pubsub and streams near idle, the reads-beside-writes control",
    },
    Workload {
        name: HISTORY_STORE,
        why: "tskv alone at 8.29 M points: the only workload with sealed Gorilla segments, compaction, rollups and WAL replay; append, read and space are separate so trades between them show",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric of the benchmark's own vocabulary.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `compare` says `worse`.
    pub bound: f64,
    /// Absolute slack added to the bound (only `setup_s` has one).
    pub slack: f64,
    /// Repeats bit-for-bit for a seed (simulated time or an exact count).
    pub exact: bool,
    pub workloads: &'static [&'static str],
    pub definition: &'static str,
}

const SIM_MSG: &[&str] = &[CITY_FANOUT, DISTRICT_INGEST];
const ALL: &[&str] = &[CITY_FANOUT, DISTRICT_INGEST, AREA_QUERY, HISTORY_STORE];
const SIM: &[&str] = &[CITY_FANOUT, DISTRICT_INGEST, AREA_QUERY];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    workloads: &'static [&'static str],
    definition: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        slack: 0.0,
        exact,
        workloads,
        definition,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        slack: 0.25,
        ..e2e("setup_s", "s", Lower, 0.15, false, ALL,
            "median wall time of one complete set-up (scenario build, deploy, registration storm, warm-up; corpus generation on history_store), three set-ups per run")
    },
    e2e("msgs_per_wall_s", "msg/s", Higher, 0.10, false, SIM_MSG,
        "messages delivered to benchmark subscribers per host second, fast-quartile slice"),
    e2e("deliver_p50_ms", "ms", Lower, 0.01, true, SIM_MSG,
        "simulated publish-to-deliver time, median: subscriber arrival minus producer stamp (send stamp on city_fanout over all deliveries; measurement timestamp on district_ingest, 1-in-16 stride)"),
    e2e("deliver_p99_ms", "ms", Lower, 0.01, true, SIM_MSG,
        "the same at the 99th percentile; the limit is 250 ms"),
    e2e("queries_per_wall_s", "query/s", Higher, 0.10, false, &[AREA_QUERY],
        "completed area snapshots per host second, fast-quartile slice"),
    e2e("query_p50_ms", "ms", Lower, 0.01, true, &[AREA_QUERY],
        "simulated time from issue to integrated AreaSnapshot, median over all queries"),
    e2e("query_p99_ms", "ms", Lower, 0.01, true, &[AREA_QUERY],
        "the same at the 99th percentile; the limit is 250 ms"),
    e2e("append_points_per_s", "pt/s", Higher, 0.10, false, &[HISTORY_STORE],
        "points appended per host second including inline seals and the daily maintain(), fast-quartile day-slice over two passes of the corpus"),
    e2e("range_reads_per_s", "op/s", Higher, 0.10, false, &[HISTORY_STORE],
        "1 h range reads per host second, fast-quartile batch"),
    e2e("scan_mpts_per_s", "Mpt/s", Higher, 0.10, false, &[HISTORY_STORE],
        "full-scan points per host microsecond, fast quartile of 8 passes"),
    e2e("bytes_per_point", "B", Lower, 0.01, true, &[HISTORY_STORE],
        "bytes_compressed / sealed_points after the last maintain()"),
    e2e("allocs_per_op", "1/op", Lower, 0.01, true, ALL,
        "heap allocations per op in the counted slices (op = delivered message, completed query, appended point)"),
    e2e("peak_rss_mb", "MiB", Lower, 0.05, false, ALL, "VmHWM when the run ends"),
    e2e("failed_frac", "ratio", Lower, 0.0, true, ALL,
        "failed / attempted: undelivered or dropped messages, snapshots with errors or past the latency limit, acknowledged points unreadable after crash_recover()"),
    // Three additions that let every workload fill every slot of
    // `BENCHMARK.json` (see [`CONTRACT`]).
    e2e("wire_bytes_per_op", "B", Lower, 0.01, true, SIM,
        "simulated wire bytes (payload + 32-byte header) handed to the network per op"),
    e2e("range_p50_ms", "ms", Lower, 0.10, false, &[HISTORY_STORE],
        "host time of one 1 h range read: median of each batch of 10 000 reads, fast-quartile batch"),
    e2e("range_p99_ms", "ms", Lower, 0.10, false, &[HISTORY_STORE],
        "the same from each batch's 99th percentile"),
];

/// One `end_to_end` entry of `BENCHMARK.json` and the own-vocabulary
/// metric that fills it on each workload, in [`WORKLOADS`] order.
pub struct ContractMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub source: [&'static str; 4],
}

pub const CONTRACT: &[ContractMetric] = &[
    ContractMetric {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        source: ["setup_s"; 4],
    },
    ContractMetric {
        name: "ops_per_wall_s",
        unit: "op/s",
        better: Higher,
        bound: 0.25,
        source: [
            "msgs_per_wall_s",
            "msgs_per_wall_s",
            "queries_per_wall_s",
            "append_points_per_s",
        ],
    },
    ContractMetric {
        name: "op_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        source: [
            "deliver_p50_ms",
            "deliver_p50_ms",
            "query_p50_ms",
            "range_p50_ms",
        ],
    },
    ContractMetric {
        name: "op_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        source: [
            "deliver_p99_ms",
            "deliver_p99_ms",
            "query_p99_ms",
            "range_p99_ms",
        ],
    },
    ContractMetric {
        name: "bytes_per_op",
        unit: "B",
        better: Lower,
        bound: 0.10,
        source: [
            "wire_bytes_per_op",
            "wire_bytes_per_op",
            "wire_bytes_per_op",
            "bytes_per_point",
        ],
    },
    ContractMetric {
        name: "allocs_per_op",
        unit: "1/op",
        better: Lower,
        bound: 0.10,
        source: ["allocs_per_op"; 4],
    },
    ContractMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
        source: ["peak_rss_mb"; 4],
    },
];

/// How a per-layer number is obtained (see README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Exact count: a delta over the timed region read from public
    /// accessors or the exposition text.
    Count,
    /// Span timed by the benchmark around a call it makes or a node it
    /// wraps.
    Span,
    /// Replay of the workload's own generated inputs through the
    /// layer's public function alone.
    Replay,
    /// Re-execution with one tier removed.
    Differential,
}

impl Source {
    pub fn letter(self) -> char {
        match self {
            Source::Count => 'C',
            Source::Span => 'S',
            Source::Replay => 'R',
            Source::Differential => 'D',
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn pl(name: &'static str, unit: &'static str, better: Better, source: Source) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Count as C, Differential as D, Replay as R, Span as S};

/// The layer of a per-layer metric is the first segment of its name.
/// A workload that does not cross the layer reports 0 (README says
/// which workloads each metric applies to).
pub const PER_LAYER: &[PerLayer] = &[
    pl("simnet.events_per_op", "1/op", Lower, C),
    pl("simnet.packets_per_op", "1/op", Lower, C),
    pl("simnet.timers_per_op", "1/op", Lower, C),
    pl("simnet.wire_bytes_per_op", "B", Lower, C),
    pl("simnet.arena_capacity", "count", Lower, C),
    pl("simnet.nic_wait_p99_ms", "ms", Lower, C),
    pl("simnet.parallel.windows", "count", Lower, C),
    pl("simnet.parallel.cross_packets", "count", Lower, C),
    pl("simnet.parallel.mailbox_max", "count", Lower, C),
    pl("simnet.events_per_wall_s", "1/s", Higher, S),
    pl("simnet.kernel_ns_per_event", "ns", Lower, S),
    pl("simnet.parallel.wall_2t_s", "s", Lower, S),
    pl("simnet.parallel.speedup_2t", "ratio", Higher, S),
    pl("simnet.parallel.stall_frac_2t", "ratio", Lower, S),
    pl("pubsub.publishes", "count", Higher, C),
    pl("pubsub.deliveries", "count", Higher, C),
    pl("pubsub.fanout_ratio", "ratio", Higher, C),
    pl("pubsub.bridge_frames_per_batch", "ratio", Higher, C),
    pl("pubsub.dropped", "count", Lower, C),
    pl("pubsub.retries", "count", Lower, C),
    pl("pubsub.broker_ns_per_publish", "ns", Lower, S),
    pl("pubsub.client_publish_ns", "ns", Lower, S),
    pl("pubsub.client_deliver_ns", "ns", Lower, S),
    pl("pubsub.wire_encode_ns", "ns", Lower, R),
    pl("pubsub.wire_decode_ns", "ns", Lower, R),
    pl("pubsub.bridge_batch64_decode_ns", "ns", Lower, R),
    pl("pubsub.match_ns", "ns", Lower, R),
    pl("protocols.frames", "count", Higher, C),
    pl("protocols.decode_ns.ieee802154", "ns", Lower, R),
    pl("protocols.decode_ns.zigbee", "ns", Lower, R),
    pl("protocols.decode_ns.enocean", "ns", Lower, R),
    pl("protocols.decode_ns.opcua", "ns", Lower, R),
    pl("protocols.decode_ns.coap", "ns", Lower, R),
    pl("proxy.samples_ingested", "count", Higher, C),
    pl("proxy.published", "count", Higher, C),
    pl("proxy.shed", "count", Lower, C),
    pl("proxy.decode_errors", "count", Lower, C),
    pl("proxy.ws_requests", "count", Higher, C),
    pl("storage.tskv_appends_per_op", "1/op", Lower, C),
    pl("storage.compress_ratio", "ratio", Higher, C),
    pl("storage.segments", "count", Lower, C),
    pl("storage.wal_records", "count", Lower, C),
    pl("storage.append_ns_per_point", "ns", Lower, S),
    pl("storage.maintain_ms_total", "ms", Lower, S),
    pl("storage.maintain_ms_max", "ms", Lower, S),
    pl("storage.range_1h_sealed_ns", "ns", Lower, S),
    pl("storage.range_1h_head_ns", "ns", Lower, S),
    pl("storage.downsample_day_ns", "ns", Lower, S),
    pl("storage.latest_ns", "ns", Lower, S),
    pl("storage.scan_sealed_mpts", "Mpt/s", Higher, S),
    pl("storage.scan_head_mpts", "Mpt/s", Higher, S),
    pl("storage.recover_ms", "ms", Lower, S),
    pl("storage.recover_krec_per_s", "krec/s", Higher, S),
    pl("core.measurement_json_encode_ns", "ns", Lower, R),
    pl("core.json_encode_ns", "ns", Lower, R),
    pl("core.json_decode_ns", "ns", Lower, R),
    pl("core.xml_encode_ns", "ns", Lower, R),
    pl("core.xml_decode_ns", "ns", Lower, R),
    pl("core.bytes_per_query_json", "B", Lower, C),
    pl("core.bytes_per_query_xml", "B", Lower, C),
    pl("streams.samples_in", "count", Higher, C),
    pl("streams.windows_closed", "count", Higher, C),
    pl("streams.late_dropped", "count", Lower, C),
    pl("streams.shed", "count", Lower, C),
    pl("streams.rollups_published", "count", Higher, C),
    pl("streams.observe_ns_per_sample", "ns", Lower, R),
    pl("streams.tier_ns_per_sample", "ns", Lower, D),
    pl("telemetry.trace_events_per_op", "1/op", Lower, C),
    pl("telemetry.trace_dropped", "count", Lower, C),
    pl("telemetry.metric_series", "count", Lower, C),
    pl("telemetry.expo_render_ms", "ms", Lower, S),
    pl("telemetry.expo_bytes", "B", Lower, S),
    pl("master.registrations", "count", Higher, C),
    pl("master.requests", "count", Higher, C),
    pl("master.shed", "count", Lower, C),
    pl("ontology.entities_per_query", "1/op", Higher, C),
    pl("ontology.devices_per_query", "1/op", Higher, C),
    pl("master.register_wall_s", "s", Lower, S),
    pl("master.registrations_per_wall_s", "1/s", Higher, S),
    pl("district.scenario_build_s", "s", Lower, S),
    pl("district.deploy_s", "s", Lower, S),
    pl("district.requests_per_query", "1/op", Lower, C),
    pl("district.profile_p50_ms", "ms", Lower, C),
    pl("alloc.bytes_per_op", "B", Lower, C),
    pl("alloc.count_setup", "count", Lower, C),
    pl("rss.bytes_per_building", "B", Lower, C),
    pl("run.wall_s", "s", Lower, S),
    pl("run.slice_median_s", "s", Lower, S),
    pl("run.slice_slow_quartile_s", "s", Lower, S),
    pl("loadgen.busy_frac", "ratio", Lower, S),
    pl("trace.overhead_frac", "ratio", Lower, S),
    pl("ledger.attributed_frac", "ratio", Higher, S),
    pl("ledger.unattributed_ns_per_op", "ns", Lower, S),
];

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

/// The own-vocabulary metric that fills `ops_per_wall_s` on `workload`.
pub fn primary_rate(workload: &str) -> Option<&'static str> {
    let slot = CONTRACT.iter().find(|m| m.name == "ops_per_wall_s")?;
    Some(slot.source[workload_index(workload)?])
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && w.why.len() <= 200, "{}", w.name);
            assert!(!w.why.contains('\n'));
            assert!(seen.insert(w.name));
        }
        for m in CONTRACT {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&CONTRACT.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(CONTRACT
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_contract_slot_is_filled_by_a_metric_of_that_workload() {
        for m in CONTRACT {
            for (w, source) in WORKLOADS.iter().zip(m.source) {
                let own = end_to_end(source).unwrap_or_else(|| panic!("{source} undefined"));
                assert!(own.workloads.contains(&w.name), "{source} on {}", w.name);
                assert_eq!(own.better, m.better, "{source}");
            }
        }
    }
}
