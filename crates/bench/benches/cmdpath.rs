//! Batched command path: doorbell batch × SQ depth sweep.
//!
//! Unlike the wall-clock groups, every number here is *simulated* time
//! from the DMA/kernel models, so the emitted `BENCH_cmdpath.json` is
//! deterministic and committable. The artifact lands in
//! `TESTKIT_BENCH_DIR` (default `target/testkit-bench`) like the
//! testkit-harness groups; `ci.sh` checks that a smoke run
//! regenerates the committed copy byte for byte.

use harmonia_bench::cmdpath;

fn main() {
    let points = cmdpath::sweep();
    let baseline = points
        .iter()
        .find(|p| p.batch == 1 && p.depth == 64)
        .expect("sweep covers batch=1/depth=64")
        .sim_cmds_per_sec;
    for p in &points {
        println!(
            "cmdpath/{:<18} sim {:>12} ps   {:>12.1} cmds/s   ({:.2}x)   doorbells {:>3}   irqs {:>3}",
            p.name(),
            p.sim_ps,
            p.sim_cmds_per_sec,
            p.sim_cmds_per_sec / baseline,
            p.doorbells,
            p.interrupts,
        );
    }
    let dir = harmonia_testkit::bench::out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[cmdpath] cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join("BENCH_cmdpath.json");
    match std::fs::write(&path, cmdpath::sweep_json(&points)) {
        Ok(()) => println!(
            "\n[cmdpath] sweep complete; JSON artifact at {}",
            path.display()
        ),
        Err(e) => eprintln!("[cmdpath] cannot write {}: {e}", path.display()),
    }
}
