#!/usr/bin/env bash
# Runs all four workloads and stores one result record per run under
# benchmark/out/<set>/, the input of `dimmer-benchmark compare`.
#
#   benchmark/run.sh [--set NAME] [--runs N] [--seeds "1 2 .."] [--seconds S]
#                    [--workloads "a b .."] [--trace] [--record]
#
# --runs N      runs per workload and seed (default 3)
# --seeds       seeds to run (default "1")
# --trace       also make one traced run per workload and seed (per-layer
#               metrics; the span file lands in benchmark/out/<set>/)
# --record      afterwards append the set's medians, the machine
#               fingerprint and the calibration-normalised score to
#               benchmark/history.jsonl (the only file outside the
#               git-ignored benchmark/out/ this script ever writes)
set -euo pipefail
cd "$(dirname "$0")/.."

set_name="$(date -u +%Y%m%dT%H%M%SZ)"
runs=3
seeds="1"
seconds=10
workloads="city_fanout district_ingest area_query history_store"
trace=0
record=0
while [ $# -gt 0 ]; do
    case "$1" in
        --set) set_name="$2"; shift 2 ;;
        --runs) runs="$2"; shift 2 ;;
        --seeds) seeds="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workloads) workloads="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --record) record=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

bench() {
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
}

out="benchmark/out/$set_name"
mkdir -p "$out"
for workload in $workloads; do
    for seed in $seeds; do
        for run in $(seq 1 "$runs"); do
            stem="$out/$workload.seed$seed.run$run"
            echo "== $workload seed $seed run $run" >&2
            bench run --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --out "$stem.json" >"$stem.log"
        done
        if [ "$trace" = 1 ]; then
            stem="$out/$workload.seed$seed.traced"
            echo "== $workload seed $seed traced" >&2
            bench run --workload "$workload" --seed "$seed" --seconds "$seconds" --trace \
                --out "$stem.json" --out-dir "$out" >"$stem.log"
        fi
    done
done
if [ "$record" = 1 ]; then
    bench record "$out" benchmark/history.jsonl
fi
echo "$out"
