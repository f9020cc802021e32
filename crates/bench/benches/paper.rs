//! Serial vs parallel timing of the full paper regeneration, and each
//! generator on its own.
//!
//! Measures `all_tables()` (every figure/table generator) with the worker
//! pool pinned to one thread and with the hardware default, so the
//! committed `BENCH_paper.json` records what the execution layer buys on
//! the build machine. Then times every entry of `generators()` at one
//! thread (`<name>_serial`), so a change to the sweep's time shows which
//! generator moved. `TESTKIT_BENCH_SMOKE=1` trims sampling for CI.

use harmonia::sim::exec::THREADS_ENV;
use harmonia_testkit::bench::{black_box, Criterion};
use harmonia_testkit::{bench_group, bench_main};

fn with_env<R>(key: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let prior = std::env::var(key).ok();
    match value {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
    let out = f();
    match prior {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    }
    out
}

/// One untimed sweep before sampling: the first sweep under a fresh thread
/// setting pays pool spin-up and cold caches, which used to land in the
/// timed window and skew the committed p99 (a lone ~80 ms outlier against
/// a ~58 ms median).
fn warmed(b: &mut harmonia_testkit::bench::Bencher, sweep: impl Fn() -> usize) {
    black_box(sweep());
    b.iter(|| black_box(sweep()))
}

fn full_sweep() -> usize {
    harmonia_bench::all_tables().len()
}

fn bench_paper(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    // Enough samples that one scheduling hiccup cannot own the p99.
    g.sample_size(20);
    g.bench_function("full_sweep_serial", |b| {
        with_env(THREADS_ENV, Some("1"), || warmed(b, full_sweep))
    });
    g.bench_function("full_sweep_parallel", |b| {
        with_env(THREADS_ENV, None, || warmed(b, full_sweep))
    });
    for (name, generate) in harmonia_bench::generators() {
        g.bench_function(format!("{name}_serial"), |b| {
            with_env(THREADS_ENV, Some("1"), || warmed(b, || generate().len()))
        });
    }
    g.finish();
}

bench_group!(benches, bench_paper);
bench_main!(benches);
