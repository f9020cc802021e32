//! The observability plane's determinism contract, end to end: an enabled
//! capture exports byte-identically on every run, and running one never
//! perturbs the paper artifacts that `paper_snapshot` pins. That
//! an attached collector never perturbs a driver's own results is pinned
//! by the `Probe`-invariance property in
//! `crates/host/tests/all/fault_campaigns.rs`.

use harmonia_testkit::fnv1a;

/// Perfetto and text exports are byte-identical on every run: lanes are
/// assigned by submission order and the merge sorts on
/// `(time, lane, seq)`.
#[test]
fn trace_exports_are_reproducible() {
    let capture = || {
        let run = harmonia_bench::metrics_run::capture(4);
        (
            run.trace.export_perfetto(),
            run.trace.export_text(),
            run.histogram.clone(),
            run.reports.join("\n"),
        )
    };
    let first = capture();
    let second = capture();
    assert_eq!(first.0, second.0, "Perfetto export diverged");
    assert_eq!(first.1, second.1, "text timeline diverged");
    assert_eq!(first.2, second.2, "latency histogram diverged");
    assert_eq!(first.3, second.3, "driver reports diverged");
    // The capture is non-trivial: every lane traced, faults visible.
    assert!(first.1.contains("cmd-retry"));
    assert!(first.0.starts_with('{') && first.0.trim_end().ends_with('}'));
    assert_eq!(first.3.lines().count(), 4, "one report per scenario");
}

/// The exports themselves are pinned, not only compared run to run: a
/// change that reorders every run's events the same way shows here.
#[test]
fn trace_exports_are_pinned() {
    let run = harmonia_bench::metrics_run::capture(4);
    let pin = |s: &str| (s.lines().count(), fnv1a(s));
    assert_eq!(
        pin(&run.trace.export_perfetto()),
        (326, 0x5aac_a02f_fc74_3bd2),
        "Perfetto export"
    );
    assert_eq!(
        pin(&run.trace.export_text()),
        (324, 0x949b_641b_3251_a899),
        "text timeline"
    );
}

/// The serial transport's give-up post-mortem is pinned byte for byte.
#[test]
fn post_mortem_dump_is_pinned() {
    let (_, dump) = harmonia_bench::metrics_run::post_mortem_campaign();
    assert_eq!(
        (dump.lines().count(), fnv1a(&dump)),
        (17, 0xaa61_2c60_eee2_9d8a),
        "post-mortem:\n{dump}"
    );
}

/// Enabling collection must not move a single digit in the paper
/// artifacts. No env knob arms a collector any more, so "enabling" here
/// means running a traced capture in the same process, between two
/// renders: collection is observational only, shares no state with the
/// model, and the untraced tables stay byte-exact with the committed
/// snapshot.
#[test]
fn a_traced_capture_never_changes_paper_tables() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../paper_output.txt"
    ));
    let render = || {
        [
            harmonia_bench::fig10::fig10a().to_string(),
            harmonia_bench::fig17::fig17d().to_string(),
        ]
    };
    let untraced = render();
    let run = harmonia_bench::metrics_run::capture(2);
    assert!(!run.trace.is_empty(), "the capture collected nothing");
    let traced = render();
    assert_eq!(untraced, traced);
    for table in &traced {
        assert!(
            committed.contains(table.as_str()),
            "table left the snapshot:\n{table}"
        );
    }
}
