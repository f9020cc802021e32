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
//! Every column is wall-clock, so `BENCH_components.json` moves from run
//! to run: `ci.sh` checks that each phase and each command-path campaign
//! has its entry and never `cmp`s the file. Refresh the committed copy
//! with a full run (20 samples each, a few seconds) and copy it from
//! `target/testkit-bench/` by hand; `TESTKIT_BENCH_SMOKE=1` runs 3.

use harmonia::sim::Probe;
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

fn main() {
    // The untimed warm-up day builds the process-wide migration matrix
    // and warms the caches.
    let mut results = measure_runs(CAMPAIGNS, fleet_run);
    results.extend(measure_runs(CAMPAIGNS, cmd_round));
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
