#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the caller's
# directory, which must be the repository root.
#
#   benchmark/run.sh                       all six workloads, out/results.json
#   benchmark/run.sh --trace               ... plus the traced per-layer runs
#   benchmark/run.sh --selfcheck           two sets, agreement vs bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run, result as the last line
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
export TPDE_BENCHMARK_DIR="$here"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/tpde-benchmark" "$@"
