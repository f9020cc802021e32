//! Timing of the full paper regeneration, fanned out and serial, of each
//! generator on its own, and of each table on its own.
//!
//! Measures `all_tables()` (the tables fanned out across threads, the
//! workspace's only parallel loop) and a plain serial loop over
//! `generators()`, so the committed `BENCH_paper.json` records what the
//! fan-out buys on the build machine. Then times every entry of
//! `generators()` on its own (`<name>_serial`), so a change to the
//! sweep's time shows which generator moved, and every table of it
//! (`<name>_<index>_serial`, the index into the generator's `TABLES`), so
//! the per-table breakdown that picks the next optimisation is committed
//! too. `TESTKIT_BENCH_SMOKE=1` trims sampling for CI.

use harmonia_testkit::bench::{black_box, group_json, measure, write_artifact, BenchStats};

/// Timed batches per entry: enough that one scheduling hiccup cannot own
/// the p99.
const SAMPLES: usize = 20;

/// Times `sweep` after one untimed run: the first sweep pays thread
/// spin-up and cold caches, which used to land in the timed window and
/// skew the committed p99 (a lone ~80 ms outlier against a ~58 ms
/// median).
fn warmed(name: String, sweep: impl Fn() -> usize) -> BenchStats {
    black_box(sweep());
    let s = measure(name, SAMPLES, || black_box(sweep()));
    println!(
        "paper/{:<28} median {:>12.0} ns   p99 {:>12.0} ns   ({} × {} iters)",
        s.name, s.median_ns, s.p99_ns, s.samples, s.iters_per_sample
    );
    s
}

fn main() {
    let mut results = vec![
        warmed("full_sweep_serial".into(), || {
            harmonia_bench::generators()
                .iter()
                .flat_map(|(_, tables)| tables.iter())
                .map(|table| table().len())
                .sum()
        }),
        warmed("full_sweep_parallel".into(), || {
            harmonia_bench::all_tables().len()
        }),
    ];
    for (name, tables) in harmonia_bench::generators() {
        results.push(warmed(format!("{name}_serial"), || {
            tables.iter().map(|table| table().len()).sum()
        }));
        for (index, table) in tables.iter().enumerate() {
            results.push(warmed(format!("{name}_{index}_serial"), || table().len()));
        }
    }
    match write_artifact("BENCH_paper.json", &group_json("paper", &results)) {
        Ok(path) => println!("\n[paper] JSON artifact at {}", path.display()),
        Err(e) => eprintln!("[paper] cannot write BENCH_paper.json: {e}"),
    }
}
