//! Determinism and isolation contracts for the metrics plane.
//!
//! 1. **Snapshot isolation** — running an enabled metrics capture must
//!    not move a byte of the committed paper snapshot: metrics are
//!    observational, never part of the model.
//! 2. **Post-mortem** — a campaign ending in `DriverError::GaveUp` dumps
//!    the flight recorder, and the dump names the failing command and
//!    carries its retry spans.
//! 3. **Committed report** — the repo-root `SLO_report.txt` (pass and
//!    fail sections) reproduces byte-exactly from a fresh capture.
//!
//! That attaching metrics never moves a driver's own results is pinned
//! by the `Probe`-invariance property in
//! `crates/host/tests/all/fault_campaigns.rs`.

use harmonia::host::DriverError;
use harmonia_bench::metrics_run;

/// No env knob arms a registry any more, so "enabling metrics" here means
/// running an enabled capture in the same process right before rendering
/// the paper sweep.
#[test]
fn enabling_metrics_leaves_the_paper_snapshot_untouched() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../paper_output.txt"
    ));
    let run = metrics_run::capture(2);
    assert!(run.snapshot.counter("harmonia_cmd_issued_total") > 0);
    let rendered: String = harmonia_bench::all_tables()
        .iter()
        .map(|t| format!("{t}\n"))
        .collect();
    assert_eq!(
        rendered, committed,
        "an enabled metrics capture moved the paper snapshot"
    );
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
    let committed = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../SLO_report.txt"));
    assert!(committed.contains("PASS cmd-latency-p99"));
    assert!(committed.contains("FAIL cmd-latency-p99-tight"));
    assert!(committed.contains("slo: 3/3 objectives met"));
    assert!(committed.contains("slo: 0/2 objectives met"));
    let fresh = metrics_run::render_slo_artifact(&metrics_run::capture(4));
    assert_eq!(
        fresh, committed,
        "SLO_report.txt is stale; regenerate with:\n\
         cargo run -p harmonia-bench -- metrics --slo > SLO_report.txt"
    );
}
