#!/usr/bin/env bash
# The benchmark's own gate: format, lints, unit tests, the frozen-API
# grep, a --quick run of every workload (traced and untraced; shrunk
# scales, results flagged not comparable) and a diff of the catalogue
# against BENCHMARK.json.
#
# This is the hook a later change wires into scripts/ci.sh; the change
# that added the benchmark may not edit that script.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --manifest-path "$manifest" --offline --all-targets -- -D warnings
cargo test --manifest-path "$manifest" --offline --release --quiet

# The benchmark is frozen once merged, so it may only call what the
# ROADMAP keeps (README.md, "Allowed and forbidden API"). Each pattern
# below is named for removal or reshaping there.
forbidden='\bSimulator\b|\bSimConfig\b|\bSimHost\b|\bFaultTarget\b|stats::(Summary|Counter)\b'
forbidden+='|\.metrics\.(add|incr|observe|observe_ns|set_gauge)\(|tracer\.record|\.trace_hop\(|\.span_hop\('
forbidden+='|district::report|bench_support|dimmer_bench'
if grep -rnE "$forbidden" benchmark/src; then
    echo "check.sh: the benchmark calls an API on the forbidden list" >&2
    exit 1
fi

bench() {
    cargo run --release --quiet --offline --manifest-path "$manifest" -- "$@"
}
quick="benchmark/out/quick"
mkdir -p benchmark/out
for workload in city_fanout district_ingest area_query history_store; do
    for trace in 0 1; do
        echo "== $workload --quick --trace $trace" >&2
        bench run --workload "$workload" --seed 1 --quick --trace "$trace" \
            --out-dir "$quick" >"$quick.$workload.$trace.log" 2>&1 ||
            { cat "$quick.$workload.$trace.log" >&2; exit 1; }
    done
done
bench list --check BENCHMARK.json
echo "check.sh: ok"
