//! Cluster-scale fleet sweep: placement policy × fleet size, one kill
//! at the diurnal peak per point.
//!
//! Like `tenancy`, every number here is *simulated* time from the fleet
//! control plane, so the emitted `BENCH_fleet.json` is deterministic
//! and committable. The artifact lands in `TESTKIT_BENCH_DIR` (default
//! `target/testkit-bench`); `ci.sh` checks that a smoke run
//! regenerates the committed copy byte for byte.

use harmonia_bench::fleet;

fn main() {
    let points = fleet::sweep();
    for p in &points {
        println!(
            "fleet/{:<19} p99 {:>15} ps   p50 {:>13} ps   injected {:>11}   \
             migrated {:>7}   rebalance {:>3} ticks   replicas {:>3}",
            p.name(),
            p.p99_ps,
            p.p50_ps,
            p.injected,
            p.migrated,
            p.rebalance_ticks,
            p.replicas,
        );
    }
    let dir = harmonia_testkit::bench::out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[fleet] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_fleet.json");
    match std::fs::write(&path, fleet::sweep_json(&points)) {
        Ok(()) => println!(
            "\n[fleet] sweep complete; JSON artifact at {}",
            path.display()
        ),
        Err(e) => eprintln!("[fleet] cannot write {}: {e}", path.display()),
    }
}
