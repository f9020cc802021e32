//! Wall-clock timing for the workspace's `cargo bench` targets: one
//! calibrated sampling loop ([`measure`]) and its whole-run mode
//! ([`measure_runs`]), their summary ([`BenchStats`]),
//! the `BENCH_<group>.json` rendering ([`group_json`]) and the directory
//! those files land in (`out_dir`). The committed simulated
//! `BENCH_*.json` files are checked by their tests through
//! [`assert_committed`], which leaves a stale file's fresh rendering in
//! the same directory.
//!
//! Methodology: after a short warmup, the per-iteration cost is
//! estimated and a batch size is chosen so one sample spans enough wall
//! time to dwarf timer overhead; the batches are then timed
//! individually and summarized as min/mean/median/p99 per iteration.
//! A campaign that is long enough on its own, and times its own parts,
//! is sampled whole instead: one sample is one campaign.

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

const WARMUP_NANOS: u128 = 20_000_000; // 20 ms
const TARGET_SAMPLE_NANOS: u128 = 2_000_000; // 2 ms

/// Smoke mode (`TESTKIT_BENCH_SMOKE=1`): CI-grade runs that still emit
/// every `BENCH_*.json` but cap the time spent per benchmark.
const SMOKE_SAMPLE_SIZE: usize = 5;
const SMOKE_WARMUP_NANOS: u128 = 2_000_000; // 2 ms
const SMOKE_TARGET_SAMPLE_NANOS: u128 = 500_000; // 0.5 ms
/// Whole runs sampled per call of [`measure_runs`] in smoke mode.
const SMOKE_RUNS: usize = 3;

/// Whether `TESTKIT_BENCH_SMOKE` asks for a smoke run: set, non-empty
/// and not `0`.
pub(crate) fn smoke_mode() -> bool {
    std::env::var("TESTKIT_BENCH_SMOKE")
        .map(|v| v.trim() != "0" && !v.trim().is_empty())
        .unwrap_or(false)
}

/// Summary statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark name within its group.
    pub name: String,
    /// Timed batches.
    pub samples: usize,
    /// Iterations per batch.
    pub iters_per_sample: u64,
    /// Fastest batch.
    pub min_ns: f64,
    /// Arithmetic mean over batches.
    pub mean_ns: f64,
    /// Median over batches.
    pub median_ns: f64,
    /// 99th percentile over batches.
    pub p99_ns: f64,
}

impl BenchStats {
    /// Summarizes timed samples, each already divided down to
    /// nanoseconds per iteration. `samples_ns` must not be empty.
    pub(crate) fn from_samples(
        name: impl Into<String>,
        mut samples_ns: Vec<f64>,
        iters_per_sample: u64,
    ) -> BenchStats {
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let n = samples_ns.len();
        BenchStats {
            name: name.into(),
            samples: n,
            iters_per_sample,
            min_ns: samples_ns[0],
            mean_ns: samples_ns.iter().sum::<f64>() / n as f64,
            median_ns: samples_ns[n / 2],
            p99_ns: samples_ns[((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1],
        }
    }
}

/// Times `f` as the benchmark `name`: warmup, batch-size calibration,
/// then `samples` timed batches (at most 5, with shorter warmup and
/// batches, in smoke mode). `samples` must not be zero.
pub fn measure<R>(name: impl Into<String>, samples: usize, mut f: impl FnMut() -> R) -> BenchStats {
    let (samples, warmup_nanos, target_sample_nanos) = if smoke_mode() {
        (
            samples.min(SMOKE_SAMPLE_SIZE),
            SMOKE_WARMUP_NANOS,
            SMOKE_TARGET_SAMPLE_NANOS,
        )
    } else {
        (samples, WARMUP_NANOS, TARGET_SAMPLE_NANOS)
    };
    // Warmup until the clock has seen enough work to calibrate.
    let mut warm_iters = 0u64;
    let warm_start = Instant::now();
    loop {
        black_box(f());
        warm_iters += 1;
        if warm_start.elapsed().as_nanos() >= warmup_nanos && warm_iters >= 3 {
            break;
        }
    }
    let est_ns = (warm_start.elapsed().as_nanos() / u128::from(warm_iters)).max(1);
    let iters_per_sample = (target_sample_nanos / est_ns).clamp(1, 10_000_000) as u64;

    let mut samples_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters_per_sample {
            black_box(f());
        }
        samples_ns.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
    }
    BenchStats::from_samples(name, samples_ns, iters_per_sample)
}

/// The whole-run mode of [`measure`]: one sample is one call of `run`, a
/// campaign that times its own parts and returns them as named
/// durations. One untimed call warms up first; then `samples` calls (at
/// most 3 in smoke mode) are summarized per name, in the order the
/// names first appear, as nanoseconds per campaign. `samples` must not be
/// zero, and every call must return every name.
pub fn measure_runs(
    samples: usize,
    mut run: impl FnMut() -> Vec<(String, Duration)>,
) -> Vec<BenchStats> {
    let samples = if smoke_mode() {
        samples.min(SMOKE_RUNS)
    } else {
        samples
    };
    black_box(run());
    let mut named: Vec<(String, Vec<f64>)> = Vec::new();
    for _ in 0..samples {
        for (name, spent) in run() {
            let ns = spent.as_nanos() as f64;
            match named.iter_mut().find(|(n, _)| *n == name) {
                Some((_, all)) => all.push(ns),
                None => named.push((name, vec![ns])),
            }
        }
    }
    named
        .into_iter()
        .map(|(name, ns)| BenchStats::from_samples(name, ns, 1))
        .collect()
}

/// Where `BENCH_*.json` artifacts land: `TESTKIT_BENCH_DIR` if set, else
/// `<workspace root>/target/testkit-bench`, resolved by walking up from
/// the running crate's manifest dir (cargo sets the bench binary's CWD
/// to the *package* dir, so a bare relative path would scatter stray
/// `target/` dirs across member crates).
pub(crate) fn out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("TESTKIT_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    let root = start
        .ancestors()
        .filter(|a| a.join("Cargo.toml").is_file())
        .last()
        .unwrap_or(&start)
        .to_path_buf();
    root.join("target").join("testkit-bench")
}

/// Writes `contents` to `file` under `out_dir`, creating the
/// directory, and returns the path written.
///
/// # Errors
///
/// Any I/O error creating the directory or writing the file.
pub fn write_artifact(file: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Checks that a committed simulated artifact (`committed`, the
/// repo-root `file`) equals its `fresh` rendering. When it does not, the
/// fresh rendering is written to `out_dir` and the panic names the
/// `cp` that commits it.
///
/// # Panics
///
/// Panics when the two differ.
pub fn assert_committed(file: &str, committed: &str, fresh: &str) {
    if committed == fresh {
        return;
    }
    match write_artifact(file, fresh) {
        Ok(path) => panic!(
            "{file} is stale: a fresh run renders {p}; diff the two, and if the \
             change means to move the file, commit it with:\ncp {p} {file}",
            p = path.display()
        ),
        Err(e) => panic!("{file} is stale, and writing its fresh rendering failed: {e}"),
    }
}

/// Renders the group's JSON artifact (the `BENCH_*.json` shape):
/// `{"group", "unit", "benchmarks": [{"name", "samples",
/// "iters_per_sample", "min_ns", "mean_ns", "median_ns", "p99_ns"}]}`.
pub fn group_json(group: &str, results: &[BenchStats]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"group\": \"{}\",\n", escape(group)));
    out.push_str("  \"unit\": \"ns/iter\",\n");
    out.push_str("  \"benchmarks\": [\n");
    for (i, s) in results.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\", ", escape(&s.name)));
        out.push_str(&format!("\"samples\": {}, ", s.samples));
        out.push_str(&format!("\"iters_per_sample\": {}, ", s.iters_per_sample));
        out.push_str(&format!("\"min_ns\": {:.3}, ", s.min_ns));
        out.push_str(&format!("\"mean_ns\": {:.3}, ", s.mean_ns));
        out.push_str(&format!("\"median_ns\": {:.3}, ", s.median_ns));
        out.push_str(&format!("\"p99_ns\": {:.3}", s.p99_ns));
        out.push('}');
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_runs_summarize_per_name_in_first_seen_order() {
        let mut calls = 0u64;
        let stats = measure_runs(4, || {
            calls += 1;
            vec![
                ("b".to_string(), Duration::from_nanos(calls * 10)),
                ("a".to_string(), Duration::from_nanos(7)),
            ]
        });
        let expect = if smoke_mode() { 3 } else { 4 };
        assert_eq!(calls, expect + 1, "one warm-up call, then the samples");
        let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["b", "a"]);
        assert_eq!(stats[0].samples, expect as usize);
        assert_eq!(stats[0].min_ns, 20.0, "the warm-up call is not a sample");
        assert_eq!((stats[1].min_ns, stats[1].p99_ns), (7.0, 7.0));
        assert_eq!(stats[1].iters_per_sample, 1);
    }

    #[test]
    fn json_shape_contains_required_fields() {
        let stats = BenchStats {
            name: "encode".into(),
            samples: 30,
            iters_per_sample: 1000,
            min_ns: 10.0,
            mean_ns: 12.5,
            median_ns: 12.0,
            p99_ns: 19.0,
        };
        let json = group_json("packet_codec", &[stats]);
        for needle in [
            "\"group\": \"packet_codec\"",
            "\"name\": \"encode\"",
            "\"median_ns\": 12.000",
            "\"p99_ns\": 19.000",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }
}
