//! Timing of the full paper regeneration, fanned out and serial, and of
//! each generator on its own.
//!
//! Measures `all_tables()` (the generators fanned out across threads, the
//! workspace's only parallel loop) and a plain serial loop over
//! `generators()`, so the committed `BENCH_paper.json` records what the
//! fan-out buys on the build machine. Then times every entry of
//! `generators()` on its own (`<name>_serial`), so a change to the
//! sweep's time shows which generator moved. `TESTKIT_BENCH_SMOKE=1`
//! trims sampling for CI.

use harmonia_testkit::bench::{black_box, Criterion};
use harmonia_testkit::{bench_group, bench_main};

/// One untimed sweep before sampling: the first sweep pays thread
/// spin-up and cold caches, which used to land in the timed window and
/// skew the committed p99 (a lone ~80 ms outlier against a ~58 ms
/// median).
fn warmed(b: &mut harmonia_testkit::bench::Bencher, sweep: impl Fn() -> usize) {
    black_box(sweep());
    b.iter(|| black_box(sweep()))
}

fn bench_paper(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    // Enough samples that one scheduling hiccup cannot own the p99.
    g.sample_size(20);
    g.bench_function("full_sweep_serial", |b| {
        warmed(b, || {
            harmonia_bench::generators()
                .iter()
                .map(|(_, generate)| generate().len())
                .sum()
        })
    });
    g.bench_function("full_sweep_parallel", |b| {
        warmed(b, || harmonia_bench::all_tables().len())
    });
    for (name, generate) in harmonia_bench::generators() {
        g.bench_function(format!("{name}_serial"), |b| warmed(b, || generate().len()));
    }
    g.finish();
}

bench_group!(benches, bench_paper);
bench_main!(benches);
