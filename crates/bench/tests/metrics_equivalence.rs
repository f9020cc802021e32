//! Determinism and isolation contracts for the metrics plane.
//!
//! 1. **Thread byte-identity** — the Prometheus and JSON exports (and the
//!    rendered SLO report) of the fault-campaign capture are
//!    byte-identical at 1 and 4 `HARMONIA_THREADS`: registries fill per
//!    lane and merge in seed order, so the scheduler may not move a byte.
//! 2. **Snapshot isolation** — running an enabled metrics capture must
//!    not move a byte of the committed paper snapshot: metrics are
//!    observational, never part of the model.
//! 3. **Post-mortem** — a campaign ending in `DriverError::GaveUp` dumps
//!    the flight recorder, and the dump names the failing command and
//!    carries its retry spans.
//! 4. **Committed report** — the repo-root `SLO_report.txt` (pass and
//!    fail sections) reproduces byte-exactly from a fresh capture.
//!
//! That attaching metrics never moves a driver's own results is pinned
//! by the `Probe`-invariance property in
//! `crates/host/tests/fault_campaigns.rs`.

use harmonia::host::DriverError;
use harmonia::sim::exec::THREADS_ENV;
use harmonia_bench::metrics_run;
use std::sync::Mutex;

/// Env mutations are process-global; serialize the tests that set
/// `HARMONIA_THREADS` against cargo's parallel test runner. The others
/// only read it, and their output is thread-count independent by
/// contract.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at a `HARMONIA_THREADS` width, restoring the prior value.
fn with_threads<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prior = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, threads);
    let out = f();
    match prior {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

/// One full capture rendered into every export the plane offers.
fn exports() -> (String, String, String) {
    let run = metrics_run::capture(4);
    (
        run.snapshot.export_prometheus(),
        run.snapshot.export_json(),
        metrics_run::render_slo_artifact(&run),
    )
}

#[test]
fn exports_are_byte_identical_at_one_and_four_threads() {
    let at = |threads: &str| with_threads(threads, exports);
    let baseline = at("1");
    assert!(baseline.0.contains("harmonia_cmd_acked_total"));
    assert_eq!(at("4"), baseline, "metrics exports moved at threads=4");
}

/// No env knob arms a registry any more, so "enabling metrics" here means
/// running an enabled capture in the same process, at either pool width,
/// right before rendering the paper sweep.
#[test]
fn enabling_metrics_leaves_the_paper_snapshot_untouched() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../paper_output.txt"
    ));
    for threads in ["1", "4"] {
        let rendered = with_threads(threads, || {
            let run = metrics_run::capture(2);
            assert!(run.snapshot.counter("harmonia_cmd_issued_total") > 0);
            harmonia_bench::all_tables()
                .iter()
                .map(|t| format!("{t}\n"))
                .collect::<String>()
        });
        assert_eq!(
            rendered, committed,
            "an enabled metrics capture moved the paper snapshot at threads={threads}"
        );
    }
}

#[test]
fn gave_up_campaign_dumps_the_failing_commands_retries() {
    let (err, dump) = metrics_run::post_mortem_campaign();
    let DriverError::GaveUp { attempts, .. } = err else {
        panic!("a permanently down link must end in GaveUp, got {err}");
    };
    assert!(dump.starts_with("post-mortem: gave up on cmd 0x"));
    assert!(dump.contains(&format!("after {attempts} attempt(s)")));
    assert!(dump.contains("flight recorder: last"));
    // The ring holds the whole retry ladder: issue, timeout and retry
    // spans for every burned attempt.
    assert!(dump.contains("cmd-issue"), "issue spans missing:\n{dump}");
    assert!(dump.contains("cmd-timeout"), "timeouts missing:\n{dump}");
    assert!(dump.contains("cmd-retry"), "retry spans missing:\n{dump}");
    assert_eq!(
        dump.matches("cmd-retry").count() as u32,
        attempts - 1,
        "one retry span per burned attempt:\n{dump}"
    );
}

#[test]
fn committed_slo_report_is_fresh() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../SLO_report.txt"
    ));
    assert!(committed.contains("PASS cmd-latency-p99"));
    assert!(committed.contains("FAIL cmd-latency-p99-tight"));
    assert!(committed.contains("slo: 3/3 objectives met"));
    assert!(committed.contains("slo: 0/2 objectives met"));
    let fresh = metrics_run::render_slo_artifact(&metrics_run::capture(4));
    assert_eq!(
        fresh, committed,
        "SLO_report.txt is stale; regenerate with:\n\
         cargo run --bin metrics -- --slo > SLO_report.txt"
    );
}
