//! Wall-clock breakdown of the fleet tick, phase by phase.
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
//! Every column is wall-clock, so `BENCH_components.json` moves from run
//! to run: `ci.sh` checks that each phase has its entry and never `cmp`s
//! the file. Refresh the committed copy with a full run (20 campaigns,
//! about a second) and copy it from `target/testkit-bench/` by hand;
//! `TESTKIT_BENCH_SMOKE=1` runs 3.

use harmonia::fleet::{FleetController, FleetSpec, PlacementPolicy};
use harmonia_bench::fleet::KILL_TICK;
use harmonia_testkit::bench::{black_box, group_json, out_dir, smoke_mode, BenchStats};
use std::time::Instant;

/// The benchmark's fleet day, ready to run.
fn fleet_day() -> FleetController {
    let mut fleet = FleetController::new(FleetSpec::new(256, 7, PlacementPolicy::BestFit))
        .expect("placement feasible");
    let victim = fleet.assignments()[0].device;
    fleet.kill_device(victim, KILL_TICK);
    fleet.schedule_upgrade(100, 2, 16);
    fleet
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
    for s in &results {
        println!(
            "components/{:<28} median {:>12.0} ns   min {:>12.0} ns",
            s.name, s.median_ns, s.min_ns
        );
    }
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[components] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_components.json");
    match std::fs::write(&path, group_json("components", &results)) {
        Ok(()) => println!("\n[components] JSON artifact at {}", path.display()),
        Err(e) => eprintln!("[components] cannot write {}: {e}", path.display()),
    }
}
