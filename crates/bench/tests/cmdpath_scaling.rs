//! Scaling contracts for the command path's two transports.
//!
//! 1. **Live ≥ 2×** — in a fresh sweep, batch=16 must move at least twice
//!    as many simulated commands per second as batch=1.
//! 2. **Doorbells** — every sweep point rings one doorbell per effective
//!    batch.
//! 3. **Committed artifact** — the repo-root `BENCH_cmdpath.json` (all
//!    simulated, hence byte-stable) equals a fresh sweep and shows the
//!    same speedup; drift means the artifact was not regenerated after a
//!    command-path change.
//!
//! The tests share one fresh sweep, so each point is simulated once per
//! test binary.

use std::sync::OnceLock;

use harmonia_bench::cmdpath::{self, CmdpathPoint};
use harmonia_testkit::bench::assert_committed;

fn sweep() -> &'static [CmdpathPoint] {
    static SWEEP: OnceLock<Vec<CmdpathPoint>> = OnceLock::new();
    SWEEP.get_or_init(cmdpath::sweep)
}

fn point(batch: usize, depth: usize) -> &'static CmdpathPoint {
    sweep()
        .iter()
        .find(|p| (p.batch, p.depth) == (batch, depth))
        .expect("the sweep carries the point")
}

#[test]
fn batch_16_doubles_simulated_throughput_live() {
    let serial = point(1, 64);
    let batched = point(16, 64);
    assert_eq!(serial.commands, batched.commands);
    assert!(
        batched.sim_cmds_per_sec >= 2.0 * serial.sim_cmds_per_sec,
        "batch=16 at {:.1} cmds/s is under 2x batch=1 at {:.1} cmds/s",
        batched.sim_cmds_per_sec,
        serial.sim_cmds_per_sec
    );
    // Doorbell batching is where the speedup comes from: one burst per
    // full batch instead of one delivery per command.
    assert_eq!(batched.doorbells, (batched.commands / 16) as u64);
    assert_eq!(serial.doorbells, serial.commands as u64);
}

#[test]
fn doorbells_track_commands_per_batch() {
    // The doorbells field is sourced from the metrics registry
    // (`harmonia_dma_bursts_total`); it must equal commands / effective
    // batch, where the SQ depth caps the effective batch size (batch=1
    // is the serial transport: one DMA send per command).
    for &batch in &cmdpath::BATCHES {
        for &depth in &cmdpath::DEPTHS {
            let p = point(batch, depth);
            let expected = (p.commands / batch.min(depth)) as u64;
            assert_eq!(
                p.doorbells, expected,
                "batch={batch}/depth={depth}: {} doorbells for {} commands",
                p.doorbells, p.commands
            );
        }
    }
}

#[test]
fn committed_bench_shows_batch_16_at_least_twice_batch_1() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_cmdpath.json"
    ));
    // The committed numbers are simulated, so a fresh sweep must
    // reproduce them exactly. Checked first: drift means the artifact is
    // stale, and the fresh rendering is left in target/testkit-bench/.
    assert_committed(
        "BENCH_cmdpath.json",
        committed,
        &cmdpath::sweep_json(sweep()),
    );
    let serial = cmdpath::rate_from_json(committed, "batch=1/depth=64")
        .expect("committed artifact carries batch=1/depth=64");
    let batched = cmdpath::rate_from_json(committed, "batch=16/depth=64")
        .expect("committed artifact carries batch=16/depth=64");
    assert!(
        batched >= 2.0 * serial,
        "committed artifact shows only {batched:.1} vs {serial:.1} cmds/s"
    );
}
