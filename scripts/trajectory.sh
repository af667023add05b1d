#!/usr/bin/env bash
# Records one point of the benchmark trajectory (ROADMAP 1a):
#
#   scripts/trajectory.sh <rev> <pr>
#
# Checks <rev> out into a scratch clone of this repository, builds that
# rev's own frozen benchmark (`benchmark/`) and runs it with
# `--quick --seed 1` on all four workloads: three untraced runs and two
# traced ones each. It writes BENCH_<pr>.json at the repository root,
# one entry per workload:
#
#   sim_digest        the untraced runs' digest (they must agree);
#   allocs_per_op,    the median of the three untraced runs, each run's
#   bytes_per_op      value beside it;
#   exact             the other end-to-end metrics that the three
#                     untraced runs repeat bit for bit (the simulated
#                     latencies);
#   per_layer         every per-layer metric that the two traced runs
#                     repeat bit for bit (event, packet, timer, request
#                     and storage counts, ...);
#   wall_advisory     the median of the three untraced runs for the rest
#                     (wall-clock rates, setup_s, peak_rss_mb).
#
# Memory metrics are never counted exact. The exact quantities do not
# depend on the host, so a file written on any machine is valid; the
# wall medians hold only for the machine fingerprint stamped beside
# them. Needs git, cargo (offline) and jq. The scratch clone and its
# build live under ${TMPDIR:-/tmp} and are deleted on exit.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
if [ $# -ne 2 ]; then
    echo "usage: scripts/trajectory.sh <rev> <pr>" >&2
    exit 2
fi
rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
pr="$2"
workloads="city_fanout district_ingest area_query history_store"

scratch="$(mktemp -d "${TMPDIR:-/tmp}/trajectory.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT
git clone --quiet --shared --no-checkout "$root" "$scratch/src"
git -C "$scratch/src" checkout --quiet --detach "$rev"

# The benchmark reads the rev it reports from its working directory.
cd "$scratch/src"
echo "== building the benchmark of ${rev:0:7}" >&2
CARGO_TARGET_DIR="$scratch/target" cargo build --release --quiet --offline \
    --manifest-path benchmark/Cargo.toml
bench="$scratch/target/release/dimmer-benchmark"

for workload in $workloads; do
    for run in 1 2 3; do
        echo "== $workload untraced run $run" >&2
        "$bench" run --workload "$workload" --seed 1 --quick --out-dir "$scratch/out" \
            --out "$scratch/$workload.untraced.$run.json" >"$scratch/$workload.untraced.$run.log"
        # The last line of standard output is the end-to-end contract line.
        tail -n 1 "$scratch/$workload.untraced.$run.log" >"$scratch/$workload.line.$run.json"
    done
    for run in 1 2; do
        echo "== $workload traced run $run" >&2
        "$bench" run --workload "$workload" --seed 1 --quick --trace 1 --out-dir "$scratch/out" \
            --out "$scratch/$workload.traced.$run.json" >/dev/null
    done
    jq -n --arg workload "$workload" \
        --slurpfile records <(cat "$scratch/$workload".untraced.*.json) \
        --slurpfile lines <(cat "$scratch/$workload".line.*.json) \
        --slurpfile traced <(cat "$scratch/$workload".traced.*.json) '
        def memory: test("rss");
        # Metric name -> list of its values over the given runs.
        def values($runs): [$runs[].metrics | to_entries[]]
            | group_by(.key) | map({key: .[0].key, value: map(.value.value)}) | from_entries;
        def repeats: length > 1 and (unique | length) == 1;
        def median: sort | .[(length - 1) / 2 | floor];
        if ($records | map(.sim_digest) | unique | length) != 1 then
            error("untraced runs disagree on sim_digest")
        else . end
        | (values($lines)) as $counted
        | ($counted | del(.allocs_per_op, .bytes_per_op)) as $e2e
        | (values($traced)) as $layer
        | {
            sim_digest: $records[0].sim_digest,
            allocs_per_op: ($counted.allocs_per_op | median),
            allocs_per_op_runs: $counted.allocs_per_op,
            bytes_per_op: ($counted.bytes_per_op | median),
            bytes_per_op_runs: $counted.bytes_per_op,
            exact: ($e2e | with_entries(select((.key | memory | not) and (.value | repeats))
                | .value = .value[0])),
            per_layer: ($layer | with_entries(select((.key | memory | not) and (.value | repeats))
                | .value = .value[0])),
            wall_advisory: ($e2e | with_entries(select((.key | memory) or (.value | repeats | not))
                | .value = (.value | median)))
          }
        | {($workload): .}
        ' >"$scratch/$workload.entry.json"
done

out="$root/BENCH_$pr.json"
jq -n \
    --arg rev "${rev:0:7}" \
    --argjson pr "$pr" \
    --slurpfile machine <(jq '.machine' "$scratch/city_fanout.untraced.1.json") \
    --slurpfile entries <(cat "$scratch"/*.entry.json) '
    {
        pr: $pr,
        rev: $rev,
        benchmark: "its own benchmark/ at rev, run --quick --seed 1: 3 untraced and 2 traced runs per workload",
        machine: $machine[0],
        wall_advisory_note: "wall_advisory holds medians measured on machine only; compare them across files with care",
        workloads: ($entries | add)
    }' >"$out"
echo "wrote $out" >&2
