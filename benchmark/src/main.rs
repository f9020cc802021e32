//! Wall-clock benchmark of the Harmonia simulator: host time of the paper
//! sweep, a fleet campaign and the command path, end to end and layer by
//! layer. Run it through `benchmark/run.sh`, which builds it first:
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload
//! run.sh [--seed N] [--seconds S] [--trace 0|1]          every workload in turn
//! run.sh ... --out FILE                                  also append results to FILE
//! run.sh smoke                                           5 ops per workload, outputs checked
//! run.sh --record                                        rewrite benchmark/reference/
//! run.sh compare BASE HEAD                               two results files against the bounds
//! ```
//!
//! This process only orchestrates: each workload runs in child processes
//! it starts one after another, each with an environment built from
//! scratch, and the last line of standard output is the run's JSON result.

mod json;
mod layers;
mod measure;
mod results;
mod stats;
mod trace;
mod workloads;

use measure::Plan;
use results::{Metric, Record, RunResult};
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{Span, Tracer};
use workloads::{DEFAULT_SEED, NAMES};

/// Fresh processes whose set-up is timed; `setup_s` is their median.
const SETUP_RUNS: usize = 5;

/// Yardstick runs after set-up; their median scales `setup_s`.
const SETUP_YARDSTICKS: usize = 5;

/// Timed ops a run needs at least, so that ten samples lie beyond p90.
const MIN_OPS: usize = 100;

/// Ops per workload in a smoke run.
const SMOKE_OPS: usize = 5;

/// Share of `--seconds` the traced loop runs for, and its minimum ops:
/// half of them run untraced, enough for their p90.
const TRACED_SHARE: f64 = 0.2;
const MIN_TRACED_OPS: usize = 2 * MIN_OPS;

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Mode {
    Run,
    Smoke,
    Record,
    Compare(String, String),
    /// A measuring child process.
    Child,
}

#[derive(Clone, Debug, PartialEq)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    trace_dir: String,
    /// Child flags: rewrite the reference, run the smoke loop, or stop
    /// once set-up is timed.
    record: bool,
    smoke: bool,
    setup_only: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let args: Vec<String> = args.collect();
    let mut a = Args {
        mode: Mode::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
        out: None,
        trace_dir: std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target/benchmark".into()),
        record: false,
        smoke: false,
        setup_only: false,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => a.out = Some(value()?),
            "--trace-dir" => a.trace_dir = value()?,
            "--record" => a.record = true,
            "--smoke" => a.smoke = true,
            "--setup-only" => a.setup_only = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => positional.push(arg.clone()),
        }
    }
    a.mode = match positional.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] if a.record => Mode::Record,
        [] => Mode::Run,
        ["smoke"] => Mode::Smoke,
        ["compare", base, head] => Mode::Compare(base.into(), head.into()),
        ["child"] => Mode::Child,
        _ => return Err(format!("unexpected arguments {positional:?}")),
    };
    if let Some(w) = &a.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (expected one of {NAMES:?})"
            ));
        }
    }
    Ok(a)
}

fn run(a: Args) -> Result<ExitCode, String> {
    match &a.mode {
        Mode::Child => {
            let name = a.workload.as_deref().ok_or("child needs --workload")?;
            let result = if a.record {
                record_child(name)?
            } else if a.trace {
                traced_child(name, &a)?
            } else {
                timed_child(name, &a)?
            };
            println!("{}", result.to_json()?);
            Ok(ExitCode::SUCCESS)
        }
        Mode::Compare(base, head) => {
            let bounds = results::read_bounds(&read_manifest_file("BENCHMARK.json")?)?;
            let (report, regressed) = results::compare(
                &results::read_records(base)?,
                &results::read_records(head)?,
                &bounds,
            );
            print!("{report}");
            Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Mode::Record => {
            for name in NAMES
                .iter()
                .filter(|n| workloads::reference_path(n).is_some())
            {
                spawn_child(name, &a, &["--record"])?;
                println!(
                    "recorded {}",
                    workloads::reference_path(name).expect("filtered").display()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Mode::Smoke => {
            let mut ok = true;
            for name in NAMES {
                let r = spawn_child(name, &a, &["--smoke"])?;
                println!("smoke {name}: {} of {} ops failed", r.failed, r.attempted);
                ok &= r.correct;
            }
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Mode::Run => {
            let names: Vec<&str> = match &a.workload {
                Some(w) => vec![w.as_str()],
                None => NAMES.to_vec(),
            };
            for name in names {
                let result = run_workload(name, &a)?;
                if let Some(path) = &a.out {
                    let record = Record {
                        workload: name.into(),
                        seed: a.seed,
                        trace: a.trace,
                        result: result.clone(),
                    };
                    append_line(path, &record.to_json()?)?;
                }
                println!("{}", result.to_json()?);
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Worker threads every child gets: the machine's parallelism.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in child processes and prints its metrics.
fn run_workload(name: &str, a: &Args) -> Result<RunResult, String> {
    println!(
        "config: workload={name} seed={} seconds={} trace={} HARMONIA_THREADS={} \
         (HARMONIA_ENGINE unset: cycle engine; no other HARMONIA_* or TESTKIT_* variable)",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        threads()
    );
    let mut result = spawn_child(name, a, &[])?;
    if !a.trace {
        let mut setups = vec![result
            .metric("setup_s")
            .ok_or("child reported no setup_s")?];
        for _ in 1..SETUP_RUNS {
            let probe = spawn_child(name, a, &["--setup-only"])?;
            setups.push(probe.metric("setup_s").ok_or("probe reported no setup_s")?);
        }
        let setup = result
            .metrics
            .iter_mut()
            .find(|m| m.name == "setup_s")
            .expect("checked above");
        setup.value = stats::median(&setups);
        println!("  setup_s over {SETUP_RUNS} fresh processes: {setups:?}");
    }
    for m in &result.metrics {
        println!("  {:<46} {:>16.9} {}", m.name, m.value, m.unit);
    }
    println!(
        "  error_rate: {} ({} of {} ops failed)",
        result.failed as f64 / result.attempted.max(1) as f64,
        result.failed,
        result.attempted
    );
    Ok(result)
}

/// Starts this program as a measuring child with a from-scratch
/// environment and waits for its result.
fn spawn_child(name: &str, a: &Args, extra: &[&str]) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let seed = a.seed.to_string();
    let seconds = a.seconds.to_string();
    let output = Command::new(exe)
        .args([
            "child",
            "--workload",
            name,
            "--seed",
            &seed,
            "--seconds",
            &seconds,
        ])
        .args([
            "--trace",
            if a.trace { "1" } else { "0" },
            "--trace-dir",
            &a.trace_dir,
        ])
        .args(extra)
        .env_clear()
        .env("HARMONIA_THREADS", threads().to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {name} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {name} child failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("the {name} child printed nothing"))?;
    RunResult::from_json(&json::Json::parse(last)?)
}

/// The reference a run at `seed` checks against, if any.
fn load_reference(name: &str, seed: u64, variants: usize) -> Result<Option<Vec<u64>>, String> {
    match workloads::reference_path(name) {
        Some(path) if seed == DEFAULT_SEED => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            workloads::parse_reference(&text, variants).map(Some)
        }
        _ => Ok(None),
    }
}

/// Set-up (fixtures, lazy statics, warm-up), then the untraced closed
/// loop.
fn timed_child(name: &str, a: &Args) -> Result<RunResult, String> {
    let entry = Instant::now();
    let mut w = workloads::build(name, a.seed)?;
    let reference = load_reference(name, a.seed, w.variants())?;
    let expected = measure::expectations(w.as_mut(), reference.as_deref());
    let setup_host_s = entry.elapsed().as_secs_f64();
    let yardsticks: Vec<f64> = (0..SETUP_YARDSTICKS)
        .map(|_| measure::time_yardstick())
        .collect();
    let setup_s = setup_host_s * measure::YARDSTICK_S / stats::median(&yardsticks);
    let mut metrics = vec![Metric::new("setup_s", setup_s, "s")];
    if a.setup_only {
        return Ok(RunResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics,
        });
    }
    let plan = if a.smoke {
        Plan {
            seconds: 0.0,
            min_ops: SMOKE_OPS,
        }
    } else {
        Plan {
            seconds: a.seconds as f64,
            min_ops: MIN_OPS,
        }
    };
    let out = measure::timed_loop(w.as_mut(), &expected, plan, None);
    let scaled_p50 = |times: &[f64]| -> f64 {
        let scaled: Vec<f64> = times
            .iter()
            .zip(&out.yardstick_s)
            .map(|(t, y)| t * measure::YARDSTICK_S / y)
            .collect();
        stats::nearest_rank(&stats::sorted(&scaled), 50)
    };
    metrics.push(Metric::new("op_s_p50", scaled_p50(&out.op_s), "s"));
    if !a.smoke {
        metrics.push(Metric::new("cpu_s_p50", scaled_p50(&out.op_cpu_s), "s"));
        metrics.push(Metric::new("peak_rss_mb", measure::peak_rss_mb()?, "MB"));
        // Unscaled host times are printed, not gated: they follow the
        // host's drift (see README.md).
        let (ops, cpu) = (stats::sorted(&out.op_s), stats::sorted(&out.op_cpu_s));
        eprintln!(
            "host time: setup_s {setup_host_s} op_s_p50 {} op_s_p90 {} cpu_s_p50 {} \
             yardstick_s_p50 {} over {} ops, {} beyond p90",
            stats::nearest_rank(&ops, 50),
            stats::tail_percentile(&ops, 90)?,
            stats::nearest_rank(&cpu, 50),
            stats::median(&out.yardstick_s),
            ops.len(),
            stats::beyond(ops.len(), 90),
        );
    }
    Ok(RunResult {
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    })
}

/// The layer pass, then the workload's ops alternating untraced and
/// traced; writes the spans as `trace-<workload>.json`.
fn traced_child(name: &str, a: &Args) -> Result<RunResult, String> {
    let origin = Instant::now();
    let mut layer_spans = Tracer::enabled(origin);
    let mut metrics = layers::measure(a.seed, &mut layer_spans)?;

    let mut w = workloads::build(name, a.seed)?;
    let reference = load_reference(name, a.seed, w.variants())?;
    let expected = measure::expectations(w.as_mut(), reference.as_deref());
    let mut op_spans = Tracer::enabled(origin);
    let plan = Plan {
        seconds: a.seconds as f64 * TRACED_SHARE,
        min_ops: MIN_TRACED_OPS,
    };
    let out = measure::timed_loop(w.as_mut(), &expected, plan, Some(&mut op_spans));
    let overhead = stats::median(&out.traced_op_s) / stats::median(&out.op_s) - 1.0;
    metrics.push(Metric::new("trace_overhead", overhead, "ratio"));
    let untraced = stats::sorted(&out.op_s);
    metrics.extend([
        Metric::new("host_op_s_p50", stats::nearest_rank(&untraced, 50), "s"),
        Metric::new("host_op_s_p90", stats::tail_percentile(&untraced, 90)?, "s"),
        Metric::new("host_yardstick_s_p50", stats::median(&out.yardstick_s), "s"),
    ]);

    std::fs::create_dir_all(&a.trace_dir).map_err(|e| format!("{}: {e}", a.trace_dir))?;
    let path = std::path::Path::new(&a.trace_dir).join(format!("trace-{name}.json"));
    let lanes: [(&str, &[Span]); 2] = [
        ("layer pass", layer_spans.spans()),
        (name, op_spans.spans()),
    ];
    std::fs::write(&path, trace::chrome_json(&lanes))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    eprint!("{}", self_time_table(name, op_spans.spans()));
    eprint!("{}", shares(&metrics));
    Ok(RunResult {
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    })
}

/// Runs every variant of a workload at the default seed and rewrites its
/// reference file.
fn record_child(name: &str) -> Result<RunResult, String> {
    let mut w = workloads::build(name, DEFAULT_SEED)?;
    let fingerprints = (0..w.variants())
        .map(|v| measure::run_op(w.as_mut(), v, &mut Tracer::disabled()))
        .collect::<Result<Vec<u64>, String>>()?;
    let path = workloads::reference_path(name).ok_or(format!("{name} has no reference file"))?;
    std::fs::write(&path, workloads::render_reference(name, &fingerprints))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let attempted = fingerprints.len() as u64;
    Ok(RunResult {
        correct: true,
        attempted,
        failed: 0,
        metrics: Vec::new(),
    })
}

/// Per span name: calls, inclusive time and self time, largest self
/// time first.
fn self_time_table(name: &str, spans: &[Span]) -> String {
    let own = trace::self_times_ns(spans);
    let mut rows: Vec<(&str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.duration_ns(), own)),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    let mut out = format!("traced {name} ops: span, calls, total s, self s\n");
    for (span, calls, total, own) in rows {
        out.push_str(&format!(
            "  {span:<40} {calls:>6} {:>12.6} {:>12.6}\n",
            total as f64 * 1e-9,
            own as f64 * 1e-9
        ));
    }
    out
}

/// The two breakdowns the README quotes.
fn shares(metrics: &[Metric]) -> String {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(f64::NAN, |m| m.value)
    };
    let serial: f64 = metrics
        .iter()
        .filter(|m| m.name.starts_with("bench.") && m.name.ends_with(".busy_s"))
        .map(|m| m.value)
        .sum();
    let fleet = get("fleet.controller.new.busy_s") + get("fleet.controller.run.busy_s");
    format!(
        "shares: fig18+ablation {:.1}% of the serial sweep; place {:.1}% of the fleet campaign\n",
        100.0 * (get("bench.fig18.busy_s") + get("bench.ablation.busy_s")) / serial,
        100.0 * get("fleet.placement.place.busy_s") / fleet,
    )
}

fn read_manifest_file(name: &str) -> Result<String, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_single_workload_run() {
        let a = parse("--workload fleet_day --seed 11 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.mode, Mode::Run);
        assert_eq!(a.workload.as_deref(), Some("fleet_day"));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 10, true));
    }

    #[test]
    fn parses_subcommands() {
        assert_eq!(parse("smoke").unwrap().mode, Mode::Smoke);
        assert_eq!(parse("--record").unwrap().mode, Mode::Record);
        assert_eq!(
            parse("compare a b").unwrap().mode,
            Mode::Compare("a".into(), "b".into())
        );
        assert_eq!(
            parse("child --workload cmd_serial").unwrap().mode,
            Mode::Child
        );
        let probe = parse("child --setup-only").unwrap();
        assert!(probe.mode == Mode::Child && probe.setup_only);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--trace 2",
            "--seed x",
            "--seed",
            "--bogus",
            "compare a",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be refused");
        }
    }
}
