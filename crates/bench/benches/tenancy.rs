//! Multi-tenant noisy neighbor: policy × tenant-count sweep.
//!
//! Like `cmdpath`, every number here is *simulated* time from the
//! tenancy models, so the emitted `BENCH_tenancy.json` is deterministic
//! and committable. The artifact lands in `TESTKIT_BENCH_DIR` (default
//! `target/testkit-bench`); `ci.sh` checks that a smoke run
//! regenerates the committed copy byte for byte.

use harmonia_bench::tenancy;

fn main() {
    let points = tenancy::sweep();
    for p in &points {
        println!(
            "tenancy/{:<14} victim p99 {:>13} ps   solo {:>9} ps   ({:>8.2}x)   \
             slices {:>3}   switches {:>3}   quota {:>3}",
            p.name(),
            p.victim_p99_ps,
            p.victim_solo_p99_ps,
            p.p99_ratio,
            p.victim_slices,
            p.switches,
            p.quota_exhausted,
        );
    }
    let dir = harmonia_testkit::bench::out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[tenancy] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_tenancy.json");
    match std::fs::write(&path, tenancy::sweep_json(&points)) {
        Ok(()) => println!(
            "\n[tenancy] sweep complete; JSON artifact at {}",
            path.display()
        ),
        Err(e) => eprintln!("[tenancy] cannot write {}: {e}", path.display()),
    }
}
