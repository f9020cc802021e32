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
# MemoryRbb::run_trace is the only loop that replays a MemOp trace; it hands
# each channel its ops through DramModel::replay, which runs the same step
# function as DramModel::access, a channel's only other way in (see DESIGN.md).
if grep -rnE 'run_[s]triped_trace|access_[w]ith_faults|trace_[b]andwidth_gbs' crates examples tests; then
    echo "ci.sh: replay traces through MemoryRbb::run_trace over DramModel::replay and DramModel::access (see DESIGN.md)" >&2
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

echo "==> one ring round: no doorbell outside the ring module under crates/host/src"
# crates/host/src/ring.rs runs the SQ/CQ round (burst delivery, per-descriptor
# faults, doorbell, CQ poll) for both the command driver and the tenant
# driver; each keeps only its retry and accounting policy (see DESIGN.md).
if grep -rn 'ring_[d]oorbell' crates/host/src | grep -v '^crates/host/src/ring\.rs:'; then
    echo "ci.sh: ring the doorbell through crates/host/src/ring.rs (see DESIGN.md)" >&2
    exit 1
fi

echo "==> one thread per plane: no staging layer, draw guard or lock in the trace, metrics, flight and fault planes"
# Each plane is an Rc<RefCell<...>> used by the one thread that runs a
# scenario's command stream, so every hook records or draws directly;
# the per-round staging and the per-instant fault-draw guard that took
# a lock less often were deleted with the lock (see DESIGN.md).
if grep -rnE 'Probe[S]tage|Fault[D]raws|with_[d]raws|stage_[t]race|stage_[f]light' crates examples tests \
    || grep -nwE 'Mutex|Arc' crates/sim/src/trace.rs crates/sim/src/metrics.rs crates/sim/src/fault.rs; then
    echo "ci.sh: record into a plane and consult the fault plan directly; the planes are single-threaded Rc<RefCell<...>> (see DESIGN.md)" >&2
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

echo "==> every component feeds an output: no BMC, control tool, project packager or test-only logic under crates/, examples/, tests/"
# The BMC, the control tool, the ACL, LZ codec and megaflow role logic, the
# Network RBB's exact-match flow table, the project packager, the fleet
# summary, the fault tally, the LB's idle sweeper and the scraper's rate
# fed no figure, binary, example or benchmark, nor did the mechanisms that
# only their own tests reached (second and third patterns; the third names
# the FIFO's and width converter's peek/drain, DetRng's choice/shuffle and
# Throughput::ops), nor the trace kinds, metric series and scraper
# snapshots that only the DRAM channel's and the tenant plane's probes
# produced (fourth pattern), so they were deleted;
# every host driver sends as SrcId::Application (see DESIGN.md).
if grep -rnE 'B[m]cController|C[o]ntrolTool|H[e]althSnapshot|M[e]gaflowCache|A[c]lRule|C[o]decError|f[l]ow_table|w[i]th_src|P[r]ojectBundle|b[u]ild_project|F[l]eetSummary|F[a]ultReport|s[w]eep_idle|r[a]te_per_sec' crates examples tests \
    || grep -rnE 'd[r]ain_data|d[a]ta_backlog\b|d[a]ta_latency_ps|d[a]ta_throughput_gbs|s[e]t_filter_enabled|s[c]ript_diff|r[u]n_uniform|k[i]ll_rack|w[e]ighted_index|r[e]move_backend' crates examples tests \
    || grep -rnE 'pub fn (p[e]ek|d[r]ain|c[h]oice|s[h]uffle|o[p]s)\b|\.d[r]ain\(\)|\.c[h]oice\(|\.s[h]uffle\(|\.o[p]s\(\)' crates examples tests \
    || grep -rnE 'D[r]amRowConflict|T[e]nantSwitch|Q[u]otaExhausted|E[c]cScrub|harmonia_t[e]nant_|harmonia_p[r]_|harmonia_kernel_q[u]ota_exhausted_total|M[e]tricsSample' crates examples tests; then
    echo "ci.sh: these components were deleted because no output reads them; wire a new one into an output (see DESIGN.md)" >&2
    exit 1
fi

echo "==> observability hooks only where an output turns them on: fn set_probe in five files"
# harmonia trace|metrics, the examples and the benchmark attach a Probe to
# the CommandDriver, which forwards it to its DMA engine, kernel, interrupt
# moderator and the shell's health ledger. The DRAM channel's and the tenant
# plane's hooks, which only their own tests attached, were deleted; a new
# set_probe lands with the output that attaches it (see DESIGN.md).
if grep -rlE 'fn set_[p]robe\b' crates examples tests benchmark/src \
    | grep -vxE 'crates/host/src/(dma|irq|cmd_driver)\.rs|crates/cmd/src/kernel\.rs|crates/shell/src/health\.rs'; then
    echo "ci.sh: set_probe is defined only by components an output enables; wire the new hook into a harmonia subcommand, an example or the benchmark, and allow its file here (see DESIGN.md)" >&2
    exit 1
fi

echo "==> one timing loop: no Criterion-shaped bench layer or per-plane lane runner under crates/, examples/, tests/"
# harmonia_testkit::bench::measure (and its whole-run mode,
# measure_runs) is the only sampling loop; each
# committed simulated BENCH_*.json is checked once, by its tier-1 test;
# the observed fault campaign attaches one Probe carrying both planes
# (see DESIGN.md).
if grep -rnE 'Crit[e]rion|bench_[m]ain|bench_[g]roup|Benchmark[I]d|\b(trace|meter)_[l]anes\b' crates examples tests; then
    echo "ci.sh: time a routine with harmonia_testkit::bench::measure and check a committed file in its test (see DESIGN.md)" >&2
    exit 1
fi

echo "==> every pub item has a caller outside its library: none under crates/*/src is named only in that src tree"
# rustc cannot see the uses of a pub item in other crates, so a pub fn,
# const or static must be named outside its library's src tree (its own
# src/bin and #[macro_export] bodies count); anything else is pub(crate),
# which the compiler gate below checks for uses (see DESIGN.md).
uncalled=$(for src in crates/*/src; do
    defs=$(find "$src" -path "$src/bin" -prune -o -name '*.rs' -print \
        | xargs grep -hoE 'pub (const |unsafe )*(fn|const|static) [A-Za-z_][A-Za-z0-9_]*' \
        | sed 's/.* //' | sort -u)
    [ -n "$defs" ] || continue
    used=$({ find crates examples tests benchmark/src -name '*.rs' ! \( -path "$src/*" ! -path "$src/bin/*" \) | xargs cat
             find "$src" -name '*.rs' | xargs awk '/^#\[macro_export\]/ { m = 1 } m; m && /^}/ { m = 0 }'
           } | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
    printf '%s\n' "$defs" | grep -vxF "$used" | sed "s|^|$src: |"
done)
if [ -n "$uncalled" ]; then
    printf '%s\n' "$uncalled"
    echo "ci.sh: make the items above pub(crate), or delete them if nothing in their library calls them (see DESIGN.md)" >&2
    exit 1
fi

echo "==> format gate: the tree is rustfmt-clean"
cargo fmt --all --check

echo "==> compiler gate: zero warnings on every target"
# Items that nothing outside their library names are pub(crate), so rustc's
# dead_code lint reports any that the library build, which leaves
# #[cfg(test)] code out, never uses.
RUSTFLAGS="-D warnings" cargo check --workspace --all-targets --offline --locked

echo "==> lint gate: zero clippy warnings on every target"
# A lint that does not fit a site is allowed there, with its reason.
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

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

echo "==> benches compile"
cargo bench --no-run --workspace --offline --locked

echo "==> fault campaigns (smoke): deep randomized fault plans"
# The five fault_campaigns properties of the host test binary, at 128 cases.
TESTKIT_CASES=128 cargo test -q --offline --locked -p harmonia-host --test all fault_campaigns::

echo "==> metrics smoke: Prometheus export from a paper-bench campaign"
cargo run -q --offline --locked -p harmonia-bench -- metrics > metrics_export.prom
grep -q "^harmonia_cmd_acked_total " metrics_export.prom
rm -f metrics_export.prom

echo "==> paper bench (smoke): fanned-out vs serial sweep, each generator and each table"
# The smoke run's wall-clock timings stay under target/; the committed
# BENCH_paper.json holds a full run's.
TESTKIT_BENCH_SMOKE=1 cargo bench -q --offline --locked -p harmonia-bench --bench paper
tables=$(cargo run -q --offline --locked -p harmonia-bench -- paper | grep -c '^== .* ==$')
per_table=$(grep -oE '"name": "[a-z0-9]+_[0-9]+_serial"' target/testkit-bench/BENCH_paper.json | sort)
if [ "$(printf '%s\n' "$per_table" | grep -c .)" -ne "$tables" ] \
    || [ -n "$(printf '%s\n' "$per_table" | uniq -d)" ]; then
    echo "ci.sh: BENCH_paper.json must time each of the $tables tables once, as <generator>_<index>_serial" >&2
    exit 1
fi

echo "==> components bench (smoke): wall-clock time of each fleet-tick phase, command-path campaign and cycle-level kernel"
# Wall-clock only, like BENCH_paper.json: the committed
# BENCH_components.json holds a full run's timings, so the fresh file and
# the committed one are checked for one entry per phase of the tick
# (the PHASES list in crates/fleet/src/control.rs), one for the whole
# fleet day, one per command-path campaign and one per kernel entry (DRAM
# replay and run_trace per pattern and channel count, the datapath run),
# never compared.
TESTKIT_BENCH_SMOKE=1 cargo bench -q --offline --locked -p harmonia-bench --bench components
phases=$(sed -n '/^const PHASES/,/^];/p' crates/fleet/src/control.rs | grep -oE '^ *\("[a-z_]+"' | tr -d ' ("')
if [ -z "$phases" ]; then
    echo "ci.sh: found no fleet-tick phases in crates/fleet/src/control.rs" >&2
    exit 1
fi
entries=$(for phase in $phases; do echo "fleet_tick_$phase"; done)
entries="$entries fleet_day cmd_batched_observed cmd_batched_unobserved cmd_serial_unobserved"
for kernel in dram_replay dram_run_trace; do
    for trace in seq_1ch seq_2ch rand_1ch rand_2ch; do
        entries="$entries ${kernel}_$trace"
    done
done
entries="$entries datapath_run"
for entry in $entries; do
    for file in target/testkit-bench/BENCH_components.json BENCH_components.json; do
        found=$(grep -c "\"name\": \"$entry\"" "$file" || true)
        if [ "$found" != 1 ]; then
            echo "ci.sh: $file must have one $entry entry" >&2
            exit 1
        fi
    done
done

echo "==> fleet metrics smoke: Prometheus export from a fleet campaign"
HARMONIA_FLEET_DEVICES=128 cargo run -q --offline --locked -p harmonia-bench -- fleet > fleet_export.prom
grep -q "^harmonia_fleet_cmds_executed " fleet_export.prom
rm -f fleet_export.prom
if HARMONIA_FLEET_POLICY=mystery cargo run -q --offline --locked -p harmonia-bench -- fleet > /dev/null 2>&1; then
    echo "ci.sh: harmonia fleet accepted HARMONIA_FLEET_POLICY=mystery" >&2
    exit 1
fi
status=0
HARMONIA_FLEET_DEVICES=1 cargo run -q --offline --locked -p harmonia-bench -- fleet > /dev/null 2>&1 || status=$?
if [ "$status" != 2 ]; then
    echo "ci.sh: harmonia fleet on an infeasible fleet must exit 2, not $status" >&2
    exit 1
fi

echo "==> one command line: crates/bench/src/bin/ holds only harmonia.rs, which rejects an unknown subcommand"
# paper, trace, metrics and fleet are subcommands of one binary with one
# argument parser; a new entry point is a subcommand, not a binary.
if [ "$(ls crates/bench/src/bin)" != harmonia.rs ]; then
    echo "ci.sh: crates/bench/src/bin/ must hold only harmonia.rs; add a subcommand instead" >&2
    exit 1
fi
if cargo run -q --offline --locked -p harmonia-bench -- mystery > /dev/null 2>&1; then
    echo "ci.sh: harmonia accepted the unknown subcommand mystery" >&2
    exit 1
fi

echo "==> ci.sh: all gates passed"
