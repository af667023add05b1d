#!/usr/bin/env bash
# Regenerates every table of EXPERIMENTS.md into results/.
# Usage: scripts/run_experiments.sh [results-dir]
set -euo pipefail

out="${1:-results}"
mkdir -p "$out"

# Preflight: don't burn experiment time on a tree that fails CI.
# Skip with DIMMER_SKIP_CI=1 when iterating on a single experiment.
if [[ "${DIMMER_SKIP_CI:-0}" != "1" ]]; then
  "$(dirname "$0")/ci.sh"
fi

bins=(
  e1_query_scaling
  e2_ingest_throughput
  e3_protocol_translation
  e4_format_comparison
  e5_redirect_vs_relay
  e6_ontology_scaling
  e7_local_store
  e8_pubsub_fanout
  e9_centralized_baseline
  e10_chaos
  e11_aggregation
  e12_federation
  e13_city_scale
  e14_overload
  e15_storage
  f1a_infrastructure
  f1b_device_proxy
)

cargo build --release -p dimmer-bench --bins

for bin in "${bins[@]}"; do
  echo "== $bin"
  cargo run -q --release -p dimmer-bench --bin "$bin" > "$out/$bin.txt"
done

echo "done: $out/"
