//! The observability plane's determinism contract, end to end: an enabled
//! capture exports byte-identically at any worker-pool width, and a
//! disabled (or merely env-enabled) collector never perturbs the paper
//! artifacts that `paper_snapshot` pins.

use harmonia::sim::exec::THREADS_ENV;
use harmonia::sim::TRACE_ENV;
use std::sync::Mutex;

/// Env mutations are process-global; serialize the tests that flip
/// `HARMONIA_THREADS` / `HARMONIA_TRACE` so cargo's parallel test runner
/// can't interleave them.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_env<R>(key: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap();
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

/// Perfetto and text exports are byte-identical whether the campaign
/// fleet runs on one worker or four: lanes are assigned by submission
/// order and the merge sorts on `(time, lane, seq)`, never on thread
/// identity.
#[test]
fn trace_exports_byte_identical_serial_vs_parallel() {
    let capture = || {
        let run = harmonia_bench::trace_run::capture(4);
        (
            run.trace.export_perfetto(),
            run.trace.export_text(),
            run.histogram.clone(),
            run.reports.join("\n"),
        )
    };
    let serial = with_env(THREADS_ENV, Some("1"), capture);
    let parallel = with_env(THREADS_ENV, Some("4"), capture);
    assert_eq!(serial.0, parallel.0, "Perfetto export diverged");
    assert_eq!(serial.1, parallel.1, "text timeline diverged");
    assert_eq!(serial.2, parallel.2, "latency histogram diverged");
    assert_eq!(serial.3, parallel.3, "driver reports diverged");
    // The capture is non-trivial: every lane traced, faults visible.
    assert!(serial.1.contains("cmd-retry"));
    assert!(serial.0.starts_with('{') && serial.0.trim_end().ends_with('}'));
    assert_eq!(serial.3.lines().count(), 4, "one report per scenario");
}

/// Turning `HARMONIA_TRACE` on must not move a single digit in the paper
/// artifacts: collection is observational only, and the no-trace fast
/// path (pinned byte-exactly by the `paper_snapshot` test) stays the
/// behavioral reference.
#[test]
fn enabling_trace_env_never_changes_paper_tables() {
    let render = || {
        [
            harmonia_bench::fig10::fig10a().to_string(),
            harmonia_bench::fig17::fig17d().to_string(),
        ]
        .join("\n")
    };
    let untraced = with_env(TRACE_ENV, None, render);
    let traced = with_env(TRACE_ENV, Some("1"), render);
    assert_eq!(untraced, traced);
}

/// The env knob really gates collection: unset (or "0") leaves the
/// driver's collector detached, any other value arms it.
#[test]
fn trace_env_knob_gates_collection() {
    use harmonia::sim::TraceCollector;
    let off = with_env(TRACE_ENV, None, TraceCollector::from_env);
    assert!(!off.is_enabled());
    let zero = with_env(TRACE_ENV, Some("0"), TraceCollector::from_env);
    assert!(!zero.is_enabled());
    let on = with_env(TRACE_ENV, Some("1"), TraceCollector::from_env);
    assert!(on.is_enabled());
}
