#!/usr/bin/env bash
# Builds the benchmark from source, offline, then runs it from the root of
# the checkout. Arguments go to the benchmark; see benchmark/README.md.
#
#   benchmark/run.sh --workload fleet_day --seed 7 --seconds 15 --trace 0
#   benchmark/run.sh                   # every workload, one after another
#   benchmark/run.sh --trace 1         # per-layer metrics and span traces
#   benchmark/run.sh smoke             # 5 ops per workload, outputs checked
#   benchmark/run.sh --record          # rewrite benchmark/reference/
#   benchmark/run.sh compare BASE HEAD
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/harmonia-benchmark" "$@"
