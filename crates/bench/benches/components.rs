//! Wall-clock breakdown of the fleet tick, phase by phase, and of the
//! command path, observed against unobserved.
//!
//! Runs the benchmark's fleet day (256 devices at seed 7 under best-fit,
//! the first assigned device killed at the peak-hour tick, a 16-device
//! rolling upgrade to shell 2 from tick 100) through
//! `FleetController::run_with`, timing every phase of every tick with a
//! wall clock of this bench's own; the control plane reads none. Each
//! sample is one whole campaign (`harmonia_testkit::bench::measure_runs`),
//! so an entry is nanoseconds per day:
//! `fleet_tick_<phase>` for each phase and `fleet_day` for the whole
//! `run_with`, timer calls included (two per phase per tick).
//!
//! The command path gets the same treatment, on the benchmark's command
//! campaign (4096 health reads at seed 7 under 2 % drop, corrupt and
//! irq-lost rates, depth 64, up to 8 retries). Each sample runs each
//! campaign below once, driver construction included, so a change in
//! host speed during the run lands on all three alike:
//!
//! * `cmd_batched_observed` — 16 per doorbell, every observability
//!   plane on (trace, metrics, flight recorder);
//! * `cmd_batched_unobserved` — the same with every plane off, so the
//!   difference is what observation costs;
//! * `cmd_serial_unobserved` — one command per doorbell through
//!   `cmd_raw_resilient`, every plane off.
//!
//! The paper sweep's two cycle-level kernels get their own entries, each
//! one call per sample:
//!
//! * `dram_replay_<pattern>_<n>ch` — `DramModel::replay` alone on the
//!   `ablation_memory` 40 000-op read trace of that pattern (`seq` or
//!   `rand`, seed 11, 64 B ops), routed beforehand, untimed, to `n` DDR4
//!   channels by the Memory RBB's 4 KiB interleave stripe: the floor;
//! * `dram_run_trace_<pattern>_<n>ch` — `MemoryRbb::run_trace` on the
//!   same trace, cache off, so every op is DRAM-bound: the floor plus the
//!   cache and route stages;
//! * `datapath_run` — `DatapathSim::run` of `ablation_datapath_sim`'s
//!   1024 B row (1 500 packets, 80 820 edges).
//!
//! Every column is wall-clock, so `BENCH_components.json` moves from run
//! to run: `ci.sh` checks that each phase, each command-path campaign and
//! each kernel has its entry and never `cmp`s the file. Refresh the committed copy
//! with a full run (20 samples each, a few seconds) and copy it from
//! `target/testkit-bench/` by hand; `TESTKIT_BENCH_SMOKE=1` runs 3.

use harmonia::hw::ip::dram::MemOp;
use harmonia::hw::ip::{DdrIp, MacIp};
use harmonia::hw::Vendor;
use harmonia::shell::rbb::MemoryRbb;
use harmonia::shell::DatapathSim;
use harmonia::sim::{Freq, Probe};
use harmonia::workloads::{AccessPattern, MemTraceGen};
use harmonia_bench::cmdpath::{cmd_campaign, CMD_BATCH};
use harmonia_bench::fleet::fleet_day;
use harmonia_testkit::bench::{black_box, group_json, measure_runs, write_artifact};
use std::time::{Duration, Instant};

/// Samples per entry in a full run.
const CAMPAIGNS: usize = 20;
/// The benchmark's seed, for the fleet day and the command campaigns.
const SEED: u64 = 7;

/// One command-path entry: its name, commands per doorbell (1 = the
/// serial transport) and the probe each campaign gets.
struct CmdEntry {
    name: &'static str,
    batch: usize,
    probe: fn() -> Probe,
}

const CMD_ENTRIES: [CmdEntry; 3] = [
    CmdEntry {
        name: "cmd_batched_observed",
        batch: CMD_BATCH,
        probe: Probe::enabled,
    },
    CmdEntry {
        name: "cmd_batched_unobserved",
        batch: CMD_BATCH,
        probe: Probe::disabled,
    },
    CmdEntry {
        name: "cmd_serial_unobserved",
        batch: 1,
        probe: Probe::disabled,
    },
];

/// One fleet day, timed phase by phase: `fleet_tick_<phase>` summed over
/// the day's ticks, then `fleet_day` for the whole `run_with`.
fn fleet_run() -> Vec<(String, Duration)> {
    let mut fleet = fleet_day(SEED);
    let mut phases: Vec<(&'static str, Duration)> = Vec::new();
    let start = Instant::now();
    let report = fleet.run_with(|name, phase| {
        let t0 = Instant::now();
        phase();
        let spent = t0.elapsed();
        match phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += spent,
            None => phases.push((name, spent)),
        }
    });
    let day = start.elapsed();
    assert!(report.accounting.exact(), "books must balance");
    black_box(report);
    phases
        .into_iter()
        .map(|(name, spent)| (format!("fleet_tick_{name}"), spent))
        .chain([("fleet_day".to_string(), day)])
        .collect()
}

/// Every command-path campaign once, each timed on its own.
fn cmd_round() -> Vec<(String, Duration)> {
    CMD_ENTRIES
        .iter()
        .map(|e| {
            let probe = (e.probe)();
            let start = Instant::now();
            let (_, results) = cmd_campaign(SEED, 0, e.batch, probe);
            let spent = start.elapsed();
            assert!(
                results.iter().all(Result::is_ok),
                "every read must be acked"
            );
            black_box(results);
            (e.name.to_string(), spent)
        })
        .collect()
}

/// The `ablation_memory` traces the DRAM entries replay.
fn dram_traces() -> [(&'static str, Vec<MemOp>); 2] {
    [
        ("seq", AccessPattern::Sequential),
        ("rand", AccessPattern::Random),
    ]
    .map(|(label, pattern)| {
        let ops = MemTraceGen::new(11)
            .trace(pattern, false, 64, 40_000)
            .expect("64 B ops fit the default footprint");
        (label, ops)
    })
}

/// Each DRAM entry once, replay and `run_trace` side by side, then the
/// datapath run.
fn kernel_round(traces: &[(&'static str, Vec<MemOp>)]) -> Vec<(String, Duration)> {
    let mut spent = Vec::new();
    for (label, ops) in traces {
        for channels in [1u32, 2] {
            let mut routed = vec![Vec::new(); channels as usize];
            for &op in ops {
                routed[(op.addr / 4096 % u64::from(channels)) as usize].push(op);
            }
            let mut models = vec![DdrIp::new(Vendor::Xilinx, 4).channel(); channels as usize];
            let start = Instant::now();
            for (model, ops) in models.iter_mut().zip(&routed) {
                black_box(model.replay(ops.iter().copied()));
            }
            spent.push((format!("dram_replay_{label}_{channels}ch"), start.elapsed()));

            let mut mem = MemoryRbb::ddr(Vendor::Xilinx, 4, channels);
            mem.set_cache(false);
            let start = Instant::now();
            let r = black_box(mem.run_trace(ops.iter().copied()));
            spent.push((
                format!("dram_run_trace_{label}_{channels}ch"),
                start.elapsed(),
            ));
            assert_eq!(r.dram_bytes, r.bytes, "the cache is off");
        }
    }
    let sim = DatapathSim::new(MacIp::new(Vendor::Xilinx, 100), Freq::khz(322_265), 512);
    let start = Instant::now();
    let report = black_box(sim.run(1024, 1_500));
    spent.push(("datapath_run".to_string(), start.elapsed()));
    assert_eq!(report.packets_delivered, 1_500, "every packet delivered");
    spent
}

fn main() {
    // The untimed warm-up day builds the process-wide migration matrix
    // and warms the caches.
    let mut results = measure_runs(CAMPAIGNS, fleet_run);
    results.extend(measure_runs(CAMPAIGNS, cmd_round));
    let traces = dram_traces();
    results.extend(measure_runs(CAMPAIGNS, || kernel_round(&traces)));
    for s in &results {
        println!(
            "components/{:<28} median {:>12.0} ns   min {:>12.0} ns",
            s.name, s.median_ns, s.min_ns
        );
    }
    match write_artifact("BENCH_components.json", &group_json("components", &results)) {
        Ok(path) => println!("\n[components] JSON artifact at {}", path.display()),
        Err(e) => eprintln!("[components] cannot write BENCH_components.json: {e}"),
    }
}
