#!/usr/bin/env bash
# Layout-salted A/B run of the wall-clock benchmark: parent against change.
#
#   scripts/ab.sh BASE HEAD [WORKLOADS] [ROUNDS] [SECONDS]
#   scripts/ab.sh HEAD~1 HEAD paper_sweep 10 3
#   scripts/ab.sh HEAD~1 HEAD fleet_day,cmd_batched,cmd_serial 10 3
#
# Code layout alone moves a build's wall time by several percent, so one
# build per side cannot carry a claim of that size. This script exports
# BASE and HEAD (any two git revisions) with `git archive` to two paths of
# equal length, builds harmonia-benchmark for each under four salts
# (RUSTFLAGS="-C metadata=<salt>", one CARGO_TARGET_DIR per side and salt),
# then runs ROUNDS rounds. Each round runs each of WORKLOADS (a comma-
# separated list) once per (side, salt), starting one step further along
# that list than the round before, and appends every result to one file per
# side and salt with --out. At the end it prints `harmonia-benchmark
# compare` on each salt's pair and on the pooled files, then the op_s_p50
# medians per workload and salt.
#
# The rule it serves (DESIGN.md): a wall-clock claim holds when the change
# is faster under every salt, or when its pooled gain exceeds the spread
# between the parent's salts. The salts live here only, never in a
# committed build config.
#
# Everything lands under target/ab/ (WORKLOADS defaults to paper_sweep,
# ROUNDS to 10, SECONDS to 3).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
base_rev=$1
head_rev=$2
IFS=, read -r -a workloads <<< "${3:-paper_sweep}"
rounds=${4:-10}
seconds=${5:-3}
salts=(ab0 ab1 ab2 ab3)

cd "$(dirname "$0")/.."
work=$(pwd)/target/ab
rm -rf "$work"
mkdir -p "$work"

# Equal-length paths, so the package paths that reach symbol hashes have
# the same length on both sides.
for side in base head; do
    rev=$base_rev
    [ "$side" = head ] && rev=$head_rev
    mkdir -p "$work/$side"
    git archive "$rev" | tar -x -C "$work/$side"
done

bin() { echo "$work/tgt-$1-$2/release/harmonia-benchmark"; }

for side in base head; do
    for salt in "${salts[@]}"; do
        echo "==> build $side under salt $salt" >&2
        CARGO_TARGET_DIR="$work/tgt-$side-$salt" RUSTFLAGS="-C metadata=$salt" \
            cargo build --release --offline --quiet \
            --manifest-path "$work/$side/benchmark/Cargo.toml" >&2
    done
done

runs=()
for salt in "${salts[@]}"; do
    runs+=("base $salt" "head $salt")
done
for ((round = 0; round < rounds; round++)); do
    for ((i = 0; i < ${#runs[@]}; i++)); do
        read -r side salt <<< "${runs[$(((round + i) % ${#runs[@]}))]}"
        for workload in "${workloads[@]}"; do
            echo "==> round $((round + 1))/$rounds: $workload, $side, salt $salt" >&2
            # The benchmark runs from the root of its own checkout.
            (cd "$work/$side" && "$(bin "$side" "$salt")" --workload "$workload" \
                --seconds "$seconds" --out "$work/$side-$salt.jsonl" > /dev/null)
        done
    done
done

compare() { "$(bin head "${salts[0]}")" compare "$1" "$2" || true; }
for side in base head; do
    for salt in "${salts[@]}"; do
        cat "$work/$side-$salt.jsonl"
    done > "$work/$side.jsonl"
done
for salt in "${salts[@]}"; do
    echo "== salt $salt"
    (cd "$work/head" && compare "$work/base-$salt.jsonl" "$work/head-$salt.jsonl")
done
echo "== pooled"
(cd "$work/head" && compare "$work/base.jsonl" "$work/head.jsonl")

echo "== op_s_p50 median per salt (s)"
printf '%-12s %-6s %12s %12s %8s\n' workload salt base head change
for salt in "${salts[@]}"; do
    (cd "$work/head" && compare "$work/base-$salt.jsonl" "$work/head-$salt.jsonl") \
        | awk -v salt="$salt" '$2 == "op_s_p50" {
            printf "%-12s %-6s %12.6f %12.6f %7.1f%%\n", $1, salt, $3, $4, 100 * ($4 / $3 - 1)
        }'
done
