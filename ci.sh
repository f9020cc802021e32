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

echo "==> one parallel loop: no worker pool, thread knob or nested fan-out under crates/, examples/, tests/"
# harmonia_sim::exec::par_sweep sized from available_parallelism is the
# only parallel primitive; the paper sweep (bench/src/lib.rs) is its only
# caller (see DESIGN.md).
if grep -rnE 'HARMONIA_[T]HREADS|Worker[P]ool|par_[m]ap|par_[t]asks|run_[p]arallel|map_[r]educe' crates examples tests; then
    echo "ci.sh: the paper sweep is the only parallel loop; write a plain loop (see DESIGN.md)" >&2
    exit 1
fi

echo "==> one DRAM replay loop: no striped replay or fault-aware DRAM access under crates/, examples/, tests/"
# MemoryRbb::run_trace is the only loop that replays a MemOp trace, and
# DramModel::access is the only way into a channel (see DESIGN.md).
if grep -rnE 'run_[s]triped_trace|access_[w]ith_faults|trace_[b]andwidth_gbs' crates examples tests; then
    echo "ci.sh: replay traces through MemoryRbb::run_trace over DramModel::access (see DESIGN.md)" >&2
    exit 1
fi

echo "==> one command path: no untagged single-command driver calls under crates/, examples/, tests/"
# CommandDriver's serial transport (cmd_resilient, cmd_raw_resilient,
# init_shell_resilient, read_all_stats_resilient) is the only way a single
# command reaches the kernel (see DESIGN.md).
if grep -rnE 'cmd_[r]aw\(|\.[c]md\(|init_[s]hell\(|read_all_[s]tats\(' crates examples tests; then
    echo "ci.sh: issue single commands through the serial transport (cmd_raw_resilient and friends; see DESIGN.md)" >&2
    exit 1
fi

echo "==> LogHistogram owns its bucket geometry: no cohort recorder outside it under crates/, examples/, tests/"
# LogHistogram::record_progression is the only code that maps a latency
# progression onto buckets, so a change of bucket layout lands in one
# place (see DESIGN.md).
if grep -rnE 'record_[p]osition_range|bucket_[u]pper_of' crates examples tests; then
    echo "ci.sh: record cohorts with LogHistogram::record_progression (see DESIGN.md)" >&2
    exit 1
fi

echo "==> one probe, env read only at the edges: no trace/metrics/tenancy knobs in the library"
# Observability is attached as a Probe and configuration is passed by
# value; only the test harness and the binaries, which are edges, read
# the environment.
if grep -rn 'env::[v]ar' crates/*/src \
    | grep -vE '^crates/(testkit/|bench/src/bin/)'; then
    echo "ci.sh: read the environment at a binary or test edge and pass the value in (see DESIGN.md)" >&2
    exit 1
fi
if grep -rnE 'HARMONIA_[T]RACE|HARMONIA_[M]ETRICS|HARMONIA_[T]ENANT_|push_[t]raced|rx_frame_[t]raced|[t]raced_channel([^_[:alnum:]]|$)' crates examples tests; then
    echo "ci.sh: trace/metrics/tenancy knobs and the *_traced twin APIs were removed; attach a Probe (see DESIGN.md)" >&2
    exit 1
fi

echo "==> tier-1: release build"
cargo build --release --workspace --offline --locked

echo "==> tier-1: test suite"
cargo test -q --workspace --offline --locked

echo "==> benchmark (smoke): five ops per workload, outputs byte-checked against benchmark/reference/"
# Builds the benchmark crate on its own and byte-checks paper_sweep's
# output and the fleet and command-path fingerprints.
benchmark/run.sh smoke

echo "==> docs: rustdoc builds with zero warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --locked

echo "==> docs: doctests"
cargo test -q --doc --workspace --offline --locked

echo "==> benches compile"
cargo bench --no-run --workspace --offline --locked

echo "==> fault campaigns (smoke): deep randomized fault plans"
TESTKIT_CASES=128 cargo test -q --offline --locked -p harmonia-host --test fault_campaigns

echo "==> metrics smoke: Prometheus export from a paper-bench campaign"
cargo run -q --offline --locked -p harmonia-bench --bin metrics > metrics_export.prom
grep -q "^harmonia_cmd_acked_total " metrics_export.prom
rm -f metrics_export.prom

echo "==> paper bench (smoke): fanned-out vs serial sweep, each generator and each table"
TESTKIT_BENCH_SMOKE=1 cargo bench -q --offline --locked -p harmonia-bench --bench paper
cp target/testkit-bench/BENCH_paper.json .
tables=$(cargo run -q --offline --locked -p harmonia-bench --bin paper | grep -c '^== .* ==$')
per_table=$(grep -oE '"name": "[a-z0-9]+_[0-9]+_serial"' BENCH_paper.json | sort)
if [ "$(printf '%s\n' "$per_table" | grep -c .)" -ne "$tables" ] \
    || [ -n "$(printf '%s\n' "$per_table" | uniq -d)" ]; then
    echo "ci.sh: BENCH_paper.json must time each of the $tables tables once, as <generator>_<index>_serial" >&2
    exit 1
fi

echo "==> cmdpath bench (smoke): batch x depth sweep, simulated throughput"
TESTKIT_BENCH_SMOKE=1 cargo bench -q --offline --locked -p harmonia-bench --bench cmdpath
cp target/testkit-bench/BENCH_cmdpath.json .

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

echo "==> ci.sh: all gates passed"
