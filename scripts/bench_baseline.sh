#!/usr/bin/env bash
# Regenerates a bench baseline file: runs the baseline bench targets (the
# flood-engine benches, the feasibility sweep, the execution-regime
# workloads — the async algorithm across the scheduler grid — and the serve
# throughput family) and collects the criterion-shim JSON records into one
# file at the workspace root. bench_gate derives the naive-over-ledger
# speedups from the medians it records.
#
#   scripts/bench_baseline.sh              # writes BENCH_baseline.json
#   scripts/bench_baseline.sh BENCH_pr5.json
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_FILE="${1:-BENCH_baseline.json}"

# Absolute path: cargo runs bench binaries with the package directory as
# their working directory, so a relative path would scatter the records.
export LBC_BENCH_OUT="${LBC_BENCH_OUT:-$(pwd)/target/lbc-bench}"
rm -rf "$LBC_BENCH_OUT"

cargo bench -p lbc-bench --bench fig1a_cycle --bench reliable_receive --bench threshold_sweep --bench async_regime --bench serve_throughput
cargo run --release -p lbc-bench --bin bench_baseline -- "$OUT_FILE"
