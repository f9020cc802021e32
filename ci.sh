#!/usr/bin/env sh
# Offline verification gate for the Harmonia workspace.
#
# The workspace is hermetic: everything here must pass with no network and
# an empty cargo registry. A new dependency that isn't a workspace member
# fails the --offline builds below, which is the enforcement mechanism for
# the hermetic build policy (see README.md).
set -eu

cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "==> one simulation engine: no event-engine names under crates/, examples/, tests/"
# The bracketed letters keep the pattern from matching this script itself.
if grep -rnE 'HARMONIA_[E]NGINE|Event[C]lock|Wake[S]ource' crates examples tests; then
    echo "ci.sh: MultiClock is the only simulation engine (see DESIGN.md)" >&2
    exit 1
fi

echo "==> one command driver: no batch/depth/retry env knobs under crates/, examples/, tests/"
# Batch size, ring depth and retry policy are constructor arguments
# (CommandDriver::with_depth, set_policy), never environment reads.
if grep -rnE 'HARMONIA_CMD_[B]ATCH|HARMONIA_SQ_[D]EPTH|HARMONIA_CMD_[D]EADLINE_PS|HARMONIA_CMD_[R]ETRIES|HARMONIA_CMD_[B]ACKOFF_PS' crates examples tests; then
    echo "ci.sh: command-path knobs were removed; pass batch/depth/policy explicitly (see DESIGN.md)" >&2
    exit 1
fi

echo "==> tier-1: release build"
cargo build --release --workspace --offline --locked

echo "==> tier-1: test suite (serial execution layer)"
HARMONIA_THREADS=1 cargo test -q --workspace --offline --locked

echo "==> tier-1: test suite (default parallelism)"
cargo test -q --workspace --offline --locked

echo "==> docs: rustdoc builds with zero warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --locked

echo "==> docs: doctests"
cargo test -q --doc --workspace --offline --locked

echo "==> benches compile"
cargo bench --no-run --workspace --offline --locked

echo "==> fault campaigns (smoke): deep randomized fault plans"
TESTKIT_CASES=128 cargo test -q --offline --locked -p harmonia-host --test fault_campaigns

echo "==> metrics plane: host/cmd suites with metrics enabled"
HARMONIA_METRICS=1 cargo test -q --offline --locked -p harmonia-host -p harmonia-cmd

echo "==> metrics smoke: Prometheus export from a paper-bench campaign"
cargo run -q --offline --locked -p harmonia-bench --bin metrics > metrics_export.prom
grep -q "^harmonia_cmd_acked_total " metrics_export.prom
rm -f metrics_export.prom

echo "==> paper bench (smoke): serial vs parallel sweep"
TESTKIT_BENCH_SMOKE=1 cargo bench -q --offline --locked -p harmonia-bench --bench paper
cp target/testkit-bench/BENCH_paper.json .

echo "==> cmdpath bench (smoke): batch x depth sweep, simulated throughput"
TESTKIT_BENCH_SMOKE=1 cargo bench -q --offline --locked -p harmonia-bench --bench cmdpath
cp target/testkit-bench/BENCH_cmdpath.json .

echo "==> tenancy: shell/host suites under both scheduling policies"
HARMONIA_TENANT_POLICY=rr cargo test -q --offline --locked \
    -p harmonia-shell --test tenancy_properties \
    -p harmonia-host --test tenant_campaigns
HARMONIA_TENANT_POLICY=wfq cargo test -q --offline --locked \
    -p harmonia-shell --test tenancy_properties \
    -p harmonia-host --test tenant_campaigns

echo "==> tenancy bench (smoke): policy x tenant-count noisy-neighbor sweep"
TESTKIT_BENCH_SMOKE=1 cargo bench -q --offline --locked -p harmonia-bench --bench tenancy
cp target/testkit-bench/BENCH_tenancy.json .

echo "==> fleet bench (smoke): policy x fleet-size sweep with a peak-hour kill"
TESTKIT_BENCH_SMOKE=1 cargo bench -q --offline --locked -p harmonia-bench --bench fleet
cp target/testkit-bench/BENCH_fleet.json .

echo "==> fleet metrics smoke: Prometheus export from a fleet campaign"
HARMONIA_FLEET_DEVICES=128 cargo run -q --offline --locked -p harmonia-bench --bin fleet > fleet_export.prom
grep -q "^harmonia_fleet_cmds_executed " fleet_export.prom
rm -f fleet_export.prom
if HARMONIA_FLEET_POLICY=mystery cargo run -q --offline --locked -p harmonia-bench --bin fleet > /dev/null 2>&1; then
    echo "ci.sh: --bin fleet accepted HARMONIA_FLEET_POLICY=mystery" >&2
    exit 1
fi

echo "==> benchmark (smoke): five ops per workload, outputs byte-checked against benchmark/reference/"
benchmark/run.sh smoke

echo "==> ci.sh: all gates passed"
