//! A minimal micro-bench harness: warmup, calibrated sample batches,
//! median/p99 statistics, and one `BENCH_<group>.json` artifact per
//! group.
//!
//! This replaces `criterion` for the workspace's `cargo bench` targets.
//! The types and method names mirror the criterion subset the bench
//! files used (`benchmark_group`, `throughput`, `sample_size`,
//! `bench_function`, `bench_with_input`, `black_box`), so migrating a
//! bench is an import swap plus `bench_group!`/`bench_main!` at the
//! bottom.
//!
//! Methodology: after a short warmup, the per-iteration cost is
//! estimated and a batch size is chosen so one sample spans enough wall
//! time to dwarf timer overhead; `sample_size` batches are then timed
//! individually and summarized as min/mean/median/p99 per iteration.

use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

pub use std::hint::black_box;

const DEFAULT_SAMPLE_SIZE: usize = 30;
const WARMUP_NANOS: u128 = 20_000_000; // 20 ms
const TARGET_SAMPLE_NANOS: u128 = 2_000_000; // 2 ms

/// Smoke mode (`TESTKIT_BENCH_SMOKE=1`): CI-grade runs that still emit
/// every `BENCH_*.json` but cap the time spent per benchmark.
const SMOKE_SAMPLE_SIZE: usize = 5;
const SMOKE_WARMUP_NANOS: u128 = 2_000_000; // 2 ms
const SMOKE_TARGET_SAMPLE_NANOS: u128 = 500_000; // 0.5 ms

/// Whether `TESTKIT_BENCH_SMOKE` asks for a smoke run: set, non-empty
/// and not `0`.
pub fn smoke_mode() -> bool {
    std::env::var("TESTKIT_BENCH_SMOKE")
        .map(|v| v.trim() != "0" && !v.trim().is_empty())
        .unwrap_or(false)
}

/// Work accounted per iteration, for derived rate reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical items processed per iteration.
    Elements(u64),
}

/// A `function/parameter` benchmark name.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name and a parameter display.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
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
    /// Declared per-iteration work, if any.
    pub throughput: Option<Throughput>,
}

impl BenchStats {
    /// Summarizes timed samples, each already divided down to
    /// nanoseconds per iteration. `samples_ns` must not be empty.
    pub fn from_samples(
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
            throughput: None,
        }
    }

    fn rate_suffix(&self) -> String {
        match self.throughput {
            Some(Throughput::Bytes(n)) => {
                let gib = n as f64 / self.median_ns * 1e9 / (1u64 << 30) as f64;
                format!("   {gib:8.2} GiB/s")
            }
            Some(Throughput::Elements(n)) => {
                let me = n as f64 / self.median_ns * 1e9 / 1e6;
                format!("   {me:8.2} Melem/s")
            }
            None => String::new(),
        }
    }
}

/// The top-level bench context handed to every `bench_group!` function.
pub struct Criterion {
    filters: Vec<String>,
    out_dir: PathBuf,
    groups_run: usize,
    smoke: bool,
}

impl Criterion {
    /// Builds a context from CLI args (non-flag args are name filters),
    /// `TESTKIT_BENCH_DIR` (default `target/testkit-bench`), and
    /// `TESTKIT_BENCH_SMOKE` (non-zero enables fast CI smoke runs).
    pub fn from_env() -> Self {
        let filters = std::env::args()
            .skip(1)
            .filter(|a| !a.starts_with('-'))
            .collect();
        Criterion {
            filters,
            out_dir: out_dir(),
            groups_run: 0,
            smoke: smoke_mode(),
        }
    }

    /// Starts a named group; finish it with [`BenchmarkGroup::finish`].
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: DEFAULT_SAMPLE_SIZE,
            results: Vec::new(),
        }
    }

    /// Prints the run footer. Called by `bench_main!`.
    pub fn final_summary(&self) {
        println!(
            "\n[testkit-bench] {} group(s) complete; JSON artifacts in {}",
            self.groups_run,
            self.out_dir.display()
        );
    }

    fn matches(&self, group: &str, name: &str) -> bool {
        self.filters.is_empty()
            || self
                .filters
                .iter()
                .any(|f| group.contains(f.as_str()) || name.contains(f.as_str()))
    }
}

/// A group of related benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
    results: Vec<BenchStats>,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration work of subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Sets the number of timed batches (minimum 10).
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = n.max(10);
    }

    /// Runs one benchmark. The routine receives a [`Bencher`] and must
    /// call [`Bencher::iter`] exactly once.
    pub fn bench_function<F>(&mut self, name: impl Display, mut routine: F)
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.to_string();
        if !self.criterion.matches(&self.name, &name) {
            return;
        }
        let smoke = self.criterion.smoke;
        let mut bencher = Bencher {
            sample_size: if smoke {
                self.sample_size.min(SMOKE_SAMPLE_SIZE)
            } else {
                self.sample_size
            },
            warmup_nanos: if smoke {
                SMOKE_WARMUP_NANOS
            } else {
                WARMUP_NANOS
            },
            target_sample_nanos: if smoke {
                SMOKE_TARGET_SAMPLE_NANOS
            } else {
                TARGET_SAMPLE_NANOS
            },
            stats: None,
        };
        routine(&mut bencher);
        let stats = bencher
            .stats
            .expect("benchmark routine must call Bencher::iter");
        let stats = BenchStats {
            name: name.clone(),
            throughput: self.throughput,
            ..stats
        };
        println!(
            "{:<48} median {:>10} ns   p99 {:>10} ns   ({} × {} iters){}",
            format!("{}/{}", self.name, name),
            format_ns(stats.median_ns),
            format_ns(stats.p99_ns),
            stats.samples,
            stats.iters_per_sample,
            stats.rate_suffix(),
        );
        self.results.push(stats);
    }

    /// Runs one parameterized benchmark.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut routine: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| routine(b, input));
    }

    /// Writes `BENCH_<group>.json` and consumes the group.
    pub fn finish(self) {
        if self.results.is_empty() {
            return;
        }
        let path = self
            .criterion
            .out_dir
            .join(format!("BENCH_{}.json", sanitize(&self.name)));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, group_json(&self.name, &self.results)) {
            Ok(()) => self.criterion.groups_run += 1,
            Err(e) => eprintln!("[testkit-bench] cannot write {}: {e}", path.display()),
        }
    }
}

/// Times the measured routine. Handed to bench closures.
pub struct Bencher {
    sample_size: usize,
    warmup_nanos: u128,
    target_sample_nanos: u128,
    stats: Option<BenchStats>,
}

impl Bencher {
    /// Measures `f`: warmup, batch-size calibration, then
    /// `sample_size` timed batches.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup until the clock has seen enough work to calibrate.
        let mut warm_iters = 0u64;
        let warm_start = Instant::now();
        loop {
            black_box(f());
            warm_iters += 1;
            if warm_start.elapsed().as_nanos() >= self.warmup_nanos && warm_iters >= 3 {
                break;
            }
        }
        let est_ns = (warm_start.elapsed().as_nanos() / u128::from(warm_iters)).max(1);
        let iters_per_sample = (self.target_sample_nanos / est_ns).clamp(1, 10_000_000) as u64;

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        self.stats = Some(BenchStats::from_samples(
            String::new(),
            samples_ns,
            iters_per_sample,
        ));
    }
}

/// Where `BENCH_*.json` artifacts land: `TESTKIT_BENCH_DIR` if set, else
/// `<workspace root>/target/testkit-bench`, resolved by walking up from
/// the running crate's manifest dir (cargo sets the bench binary's CWD
/// to the *package* dir, so a bare relative path would scatter stray
/// `target/` dirs across member crates).
pub fn out_dir() -> PathBuf {
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

fn format_ns(ns: f64) -> String {
    if ns < 100.0 {
        format!("{ns:.2}")
    } else {
        format!("{:.0}", ns.round())
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the group's JSON artifact (the `BENCH_*.json` shape):
/// `{"group", "unit", "benchmarks": [{"name", "samples",
/// "iters_per_sample", "min_ns", "mean_ns", "median_ns", "p99_ns",
/// "throughput"?}]}`.
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
        match s.throughput {
            Some(Throughput::Bytes(n)) => {
                out.push_str(&format!(", \"throughput\": {{\"bytes_per_iter\": {n}}}"));
            }
            Some(Throughput::Elements(n)) => {
                out.push_str(&format!(", \"throughput\": {{\"elements_per_iter\": {n}}}"));
            }
            None => {}
        }
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

/// Bundles bench functions into one callable group, mirroring
/// `criterion_group!`.
#[macro_export]
macro_rules! bench_group {
    ($name:ident, $($function:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::bench::Criterion) {
            $($function(c);)+
        }
    };
}

/// Generates `main` for a `harness = false` bench target, mirroring
/// `criterion_main!`.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::bench::Criterion::from_env();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

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
            throughput: Some(Throughput::Bytes(292)),
        };
        let json = group_json("packet_codec", &[stats]);
        for needle in [
            "\"group\": \"packet_codec\"",
            "\"name\": \"encode\"",
            "\"median_ns\": 12.000",
            "\"p99_ns\": 19.000",
            "\"throughput\": {\"bytes_per_iter\": 292}",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn sanitize_makes_filenames_safe() {
        assert_eq!(sanitize("a b/c-d"), "a_b_c_d");
    }
}
