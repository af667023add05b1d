#!/usr/bin/env bash
# Offline CI gate: formatting, lints, docs, the examples (built and run),
# the full test suite, the e13 smoke, the results diff, the core, storage,
# streams and telemetry tests again in release, e15, e3, e7 and e8 run to
# completion, the benchmark's own gate, the allocation-count ratchet
# over its --quick runs, and a second --quick run of district_ingest and
# area_query whose allocation count must equal the first exactly.
# Usage: scripts/ci.sh
#
# Knobs:
#   DIMMER_SEEDS=n   sweep the failure-injection suites
#                    (tests/resilience.rs, tests/chaos.rs,
#                    tests/streams.rs), the answer-level oracles
#                    (tests/oracles.rs) and the broker federation's
#                    suites (crates/pubsub/tests/federation.rs and the
#                    pubsub unit tests, among them the bridge dedup
#                    growth test) across n
#                    simulation seeds — each run shifts every sim seed
#                    by DIMMER_SEED, shaking out assertions that only
#                    hold for one timing. Defaults to 2; set 0 to skip.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== test-mod lint (what the metric-name lint below relies on)"
# The metric-name lint stops reading a file at its first `#[cfg(test)]`,
# so nothing but test modules may follow one: every `#[cfg(test)]` in
# crates/*/src sits at top level directly above a `mod`, and no other
# top-level item comes after the first. A test-gated item mid-file
# would hide every metric name below it.
find crates -path '*/src/*.rs' | sort | xargs awk '
    function bad(msg) { printf "test-mod lint: %s:%d: %s\n", FILENAME, FNR, msg; rc = 1 }
    FNR == 1 { tail = 0; want_mod = 0 }
    want_mod {
        if ($0 !~ /^mod [a-z_]+( \{|;)$/) bad("#[cfg(test)] is not directly above a top-level `mod`")
        want_mod = 0
        next
    }
    /#\[cfg\(.*test/ {
        if ($0 != "#[cfg(test)]") bad("test-gated item inside another item")
        tail = 1
        want_mod = 1
        next
    }
    tail && /^[^[:space:]}]/ { bad("top-level item after the first #[cfg(test)]") }
    END { exit rc }' >&2

echo "== metric-name lint (docs/metrics.txt)"
# Static metric names used in crates/*/src (test mods stripped — the
# lint above holds them to the tail of a file) must match the
# checked-in inventory exactly, both ways: no ad-hoc names in code, no
# stale names in the inventory. Every write goes through a handle, so a
# name is used where it is resolved (`.counter_handle("..")`,
# `.gauge_handle`, `.histogram_handle`). Dynamic label/SLO families are
# documented as comments in the inventory and invisible to this grep.
used="$(mktemp)"
listed="$(mktemp)"
e13a="$(mktemp)"
e13b="$(mktemp)"
trap 'rm -f "$used" "$listed" "$e13a" "$e13b"' EXIT
for f in $(find crates -path '*/src/*.rs' | sort); do
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"
done | tr '\n' ' ' \
    | grep -oE '\.(counter_handle|gauge_handle|histogram_handle)\([[:space:]]*"[^"]+"' \
    | sed -E 's/.*"([^"]+)"$/\1/' | sort -u > "$used"
grep -v '^#' docs/metrics.txt | grep -v '^$' | sort -u > "$listed"
if ! diff -u "$listed" "$used"; then
    echo "metric lint: code and docs/metrics.txt disagree" >&2
    echo "metric lint: lines prefixed '+' are unregistered names in code," >&2
    echo "metric lint: lines prefixed '-' are stale inventory entries" >&2
    exit 1
fi

echo "== protocol-row lint (ProtocolKind variants only where a protocol is defined)"
# A protocol is its codec, its adapter and one row of proxy::registry;
# every other library file iterates or indexes the rows instead of
# naming a variant. Test modules (the tail of a file, as above) and
# crates/bench, whose experiments take protocols as parameters, are
# exempt.
named=0
for f in $(find crates -path '*/src/*.rs' -not -path 'crates/bench/*' | sort); do
    case "$f" in
        crates/protocols/src/lib.rs | crates/protocols/src/device.rs | \
            crates/proxy/src/adapters.rs | crates/proxy/src/registry.rs) continue ;;
    esac
    if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" \
            | grep -E 'ProtocolKind::[A-Z]' >&2; then
        named=1
    fi
done
if [[ "$named" -ne 0 ]]; then
    echo "protocol-row lint: the lines above name a ProtocolKind variant outside its row" >&2
    exit 1
fi

echo "== stale-path lint (README, DESIGN, EXPERIMENTS)"
# Every results/, scripts/ or benchmark/ file these documents name must
# exist. ROADMAP is exempt: it names planned files.
stale=0
for p in $(grep -ohE '\b(results|scripts|benchmark)/[A-Za-z0-9_./-]*[A-Za-z0-9_]' \
        README.md DESIGN.md EXPERIMENTS.md | sort -u); do
    if [[ ! -e "$p" ]]; then
        echo "stale-path lint: $p is named in the docs but does not exist" >&2
        stale=1
    fi
done
[[ "$stale" -eq 0 ]]

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo build --examples"
cargo build --examples

echo "== examples (each runs to completion; a failed assert exits non-zero)"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "-- $name"
    cargo run -q --example "$name" > /dev/null
done

echo "== cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== cargo test -q"
cargo test -q

seeds="${DIMMER_SEEDS:-2}"
if [[ "$seeds" -gt 0 ]]; then
    echo "== seed sweep: resilience + chaos + streams + oracles + federation under $seeds seeds"
    for s in $(seq 1 "$seeds"); do
        echo "-- DIMMER_SEED=$s"
        DIMMER_SEED="$s" cargo test -q --test resilience --test chaos --test streams --test oracles
        DIMMER_SEED="$s" cargo test -q -p dimmer-pubsub --lib --test federation
    done
fi

echo "== thread matrix: parallel suite (ChaosRunner on 4 shards) under 1 and 4 worker threads"
for t in 1 4; do
    echo "-- DIMMER_THREADS=$t"
    DIMMER_THREADS="$t" cargo test -q --test parallel
done

echo "== e13 city-scale smoke + determinism gate (--threads 1 vs 4, same seed)"
DIMMER_E13_SMOKE=1 DIMMER_SEED="${DIMMER_SEED:-0}" \
    cargo run -q -p dimmer-bench --bin e13_city_scale -- --threads 1 | tee "$e13a"
DIMMER_E13_SMOKE=1 DIMMER_SEED="${DIMMER_SEED:-0}" \
    cargo run -q -p dimmer-bench --bin e13_city_scale -- --threads 4 > "$e13b"
d1="$(grep '^e13-digest' "$e13a" | sed -E 's/.* digest=(0x[0-9a-f]+).*/\1/')"
d4="$(grep '^e13-digest' "$e13b" | sed -E 's/.* digest=(0x[0-9a-f]+).*/\1/')"
if [[ -z "$d1" || "$d1" != "$d4" ]]; then
    echo "determinism gate: flight-recorder digests differ across thread counts" >&2
    echo "  --threads 1: ${d1:-<missing>}" >&2
    echo "  --threads 4: ${d4:-<missing>}" >&2
    exit 1
fi
echo "determinism gate: ok (digest $d1 at both --threads 1 and --threads 4)"
# The SLO is merged from every shard's deliveries, so it must not depend
# on the thread count either.
s1="$(grep '^| publish_to_deliver |' "$e13a")"
s4="$(grep '^| publish_to_deliver |' "$e13b")"
if [[ -z "$s1" || "$s1" != "$s4" ]]; then
    echo "determinism gate: publish_to_deliver SLO rows differ across thread counts" >&2
    echo "  --threads 1: ${s1:-<missing>}" >&2
    echo "  --threads 4: ${s4:-<missing>}" >&2
    exit 1
fi
echo "determinism gate: ok (publish_to_deliver SLO rows equal at both thread counts)"

echo "== results diff (the ten wall-clock-free experiments against results/, release build)"
# These ten print no wall-clock field and repeat byte for byte, so the
# committed output is the behavioural oracle a refactor is checked
# against. A change that moves one on purpose regenerates the file and
# says why in CHANGES.md.
cargo build --release -q
for bin in e1_query_scaling e2_ingest_throughput e5_redirect_vs_relay \
        e9_centralized_baseline e10_chaos e11_aggregation e12_federation \
        e14_overload f1a_infrastructure f1b_device_proxy; do
    if ! env -u DIMMER_TRACE "target/release/$bin" | diff -u "results/$bin.txt" - >&2; then
        echo "results diff: $bin no longer reproduces results/$bin.txt" >&2
        exit 1
    fi
    echo "results diff: $bin ok"
done

echo "== cargo test --release (core, storage, streams, telemetry: the Summary fold's NaN rule and the trace ring's byte bookkeeping under release codegen)"
# Which NaN a sum keeps is a codegen question, and the suite above runs
# only in debug; so do the trace ring's header and detail offsets.
cargo test -q --release -p dimmer-core -p dimmer-storage -p dimmer-streams -p dimmer-telemetry

echo "== e15 storage (compression + recovery + crash sweep; asserts only, prints wall-clock fields)"
target/release/e15_storage

echo "== e3, e7, e8 run to completion (release; output discarded, it holds wall-clock fields)"
# They print through the shared harness and nothing else in CI runs
# them; e4 (about a minute) and e6 (about half a minute) stay out for
# time.
for bin in e3_protocol_translation e7_local_store e8_pubsub_fanout; do
    env -u DIMMER_TRACE "target/release/$bin" > /dev/null
    echo "ran: $bin ok"
done

echo "== benchmark/check.sh (the frozen benchmark still builds against the facade and its checks pass)"
benchmark/check.sh

echo "== allocs_per_op ratchet (scripts/alloc_ceilings.txt against the --quick runs above)"
# allocs_per_op repeats exactly per seed and scale, so a ceiling just
# above the committed value catches a per-message allocation creeping
# back onto a hot path. Lower a ceiling when a change lowers the count.
while read -r workload ceiling _; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    log="benchmark/out/quick.$workload.0.log"
    got="$(awk '$1 == "allocs_per_op" {print $2}' "$log")"
    if [[ -z "$got" ]] || ! awk -v got="$got" -v max="$ceiling" 'BEGIN {exit !(got <= max)}'; then
        echo "alloc ratchet: $workload allocs_per_op ${got:-<missing from $log>} is above its ceiling $ceiling" >&2
        exit 1
    fi
    echo "alloc ratchet: $workload $got <= $ceiling"
done < scripts/alloc_ceilings.txt

echo "== allocs_per_op repeats (a second untraced --quick run equals check.sh's exactly)"
# An allocation count is exact per seed and scale, so two runs of one
# build that differ mean some structure allocates by a per-process
# accident (a randomly seeded hash map's probes and growth did, until
# the retransmission ledger took fixed keys).
for workload in district_ingest area_query; do
    first="$(awk '$1 == "allocs_per_op" {print $2}' "benchmark/out/quick.$workload.0.log")"
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --seed 1 --quick --trace 0 --out-dir benchmark/out/quick \
        >"benchmark/out/quick.$workload.again.log" 2>&1
    again="$(awk '$1 == "allocs_per_op" {print $2}' "benchmark/out/quick.$workload.again.log")"
    if [[ -z "$first" || "$first" != "$again" ]]; then
        echo "alloc repeat: $workload allocs_per_op ${first:-<missing>} then ${again:-<missing>}" >&2
        exit 1
    fi
    echo "alloc repeat: $workload $first twice"
done

echo "ci: ok"
