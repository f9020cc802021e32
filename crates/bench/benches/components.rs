//! Wall-clock breakdown of the fleet tick, phase by phase, and of the
//! command path, observed against unobserved.
//!
//! Runs the benchmark's fleet day (256 devices at seed 7 under best-fit,
//! the first assigned device killed at the peak-hour tick, a 16-device
//! rolling upgrade to shell 2 from tick 100) through
//! `FleetController::run_with`, timing every phase of every tick with a
//! wall clock of this bench's own; the control plane reads none. Each
//! sample is one whole campaign, so an entry is nanoseconds per day:
//! `fleet_tick_<phase>` for each phase and `fleet_day` for the whole
//! `run_with`, timer calls included (two per phase per tick).
//!
//! The command path gets the same treatment, on the benchmark's command
//! campaign (4096 health reads at seed 7 under 2 % drop, corrupt and
//! irq-lost rates, depth 64, up to 8 retries). Each sample is one
//! campaign, driver construction included:
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

use harmonia::cmd::{CommandCode, UnifiedControlKernel};
use harmonia::fleet::{FleetController, FleetSpec, PlacementPolicy};
use harmonia::host::batch::CmdResult;
use harmonia::host::{CommandDriver, DmaEngine, RetryPolicy};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::Vendor;
use harmonia::sim::{FaultPlan, FaultRates, Probe};
use harmonia_bench::fleet::KILL_TICK;
use harmonia_testkit::bench::{black_box, group_json, smoke_mode, write_artifact, BenchStats};
use std::time::Instant;

/// Health reads per command-path campaign.
const CMD_COUNT: usize = 4096;
/// SQ/CQ ring and kernel buffer depth.
const CMD_DEPTH: usize = 64;
/// Commands per doorbell on the batched path.
const CMD_BATCH: usize = 16;

/// The benchmark's fleet day, ready to run.
fn fleet_day() -> FleetController {
    let mut fleet = FleetController::new(FleetSpec::new(256, 7, PlacementPolicy::BestFit))
        .expect("placement feasible");
    let victim = fleet.assignments()[0].device;
    fleet.kill_device(victim, KILL_TICK);
    fleet.schedule_upgrade(100, 2, 16);
    fleet
}

/// One command-path campaign: `batch` per doorbell (1 = the serial
/// transport, one `cmd_raw_resilient` per read) with `probe` attached.
fn cmd_campaign(batch: usize, probe: Probe) -> Vec<CmdResult> {
    let (gen, lanes) = catalog::device_a().pcie().expect("device A has PCIe");
    let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
    let kernel = UnifiedControlKernel::new(CMD_DEPTH);
    let mut drv = if batch == 1 {
        CommandDriver::new(engine, kernel)
    } else {
        CommandDriver::with_depth(engine, kernel, batch, CMD_DEPTH)
    };
    drv.set_probe(probe);
    drv.set_policy(RetryPolicy {
        max_retries: 8,
        ..RetryPolicy::default()
    });
    let rates = FaultRates {
        cmd_drop: 0.02,
        cmd_corrupt: 0.02,
        irq_lost: 0.02,
        ecc: 0.0,
    };
    drv.set_fault_injector(FaultPlan::new().with_rates(7, rates).injector());
    let reads = (0..CMD_COUNT).map(|_| (0u8, 0u8, CommandCode::HealthRead, Vec::new()));
    if batch == 1 {
        reads
            .map(|(rbb, inst, code, data)| drv.cmd_raw_resilient(rbb, inst, code, data))
            .collect()
    } else {
        drv.submit(reads.collect())
    }
}

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

/// Times `samples` rounds of the command-path campaigns after one untimed
/// warm-up each. A round runs every campaign once, so a change in host
/// speed during the run lands on all three entries alike.
fn time_cmd_campaigns(samples: usize) -> Vec<BenchStats> {
    for e in &CMD_ENTRIES {
        black_box(cmd_campaign(e.batch, (e.probe)()));
    }
    let mut ns = vec![Vec::with_capacity(samples); CMD_ENTRIES.len()];
    for _ in 0..samples {
        for (e, ns) in CMD_ENTRIES.iter().zip(&mut ns) {
            let probe = (e.probe)();
            let start = Instant::now();
            let results = cmd_campaign(e.batch, probe);
            ns.push(start.elapsed().as_nanos() as f64);
            assert!(
                results.iter().all(Result::is_ok),
                "every read must be acked"
            );
            black_box(results);
        }
    }
    CMD_ENTRIES
        .iter()
        .zip(ns)
        .map(|(e, ns)| BenchStats::from_samples(e.name, ns, 1))
        .collect()
}

fn main() {
    let campaigns = if smoke_mode() { 3 } else { 20 };
    // One untimed day first: it builds the process-wide migration matrix
    // and warms the caches.
    black_box(fleet_day().run());
    // Phase names in tick order, each with its per-campaign samples.
    let mut phases: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut days = Vec::with_capacity(campaigns);
    for _ in 0..campaigns {
        let mut fleet = fleet_day();
        let mut ns: Vec<(&'static str, u128)> = Vec::new();
        let start = Instant::now();
        let report = fleet.run_with(|name, phase| {
            let t0 = Instant::now();
            phase();
            let spent = t0.elapsed().as_nanos();
            match ns.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += spent,
                None => ns.push((name, spent)),
            }
        });
        days.push(start.elapsed().as_nanos() as f64);
        assert!(report.accounting.exact(), "books must balance");
        black_box(report);
        for (name, total) in ns {
            match phases.iter_mut().find(|(n, _)| *n == name) {
                Some((_, samples)) => samples.push(total as f64),
                None => phases.push((name, vec![total as f64])),
            }
        }
    }
    let mut results: Vec<BenchStats> = phases
        .into_iter()
        .map(|(name, samples)| BenchStats::from_samples(format!("fleet_tick_{name}"), samples, 1))
        .collect();
    results.push(BenchStats::from_samples("fleet_day", days, 1));
    results.extend(time_cmd_campaigns(campaigns));
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
