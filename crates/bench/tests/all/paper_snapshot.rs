//! Pins the full paper reproduction to the committed snapshot.
//!
//! `paper_output.txt` at the repo root is the regression baseline: any
//! change to models, benchmarks or the fault plane that shifts a single
//! byte of the evaluation output fails here. In particular the no-op
//! fault plan (`FaultPlan::none()`) must keep every artifact bit-exact —
//! `harmonia paper` takes the faultless paths throughout.
//!
//! `all_tables` fans the tables out across threads (the workspace's only
//! parallel loop); the serial loop over `generators()` must render the
//! same bytes.

use harmonia::metrics::Table;

fn assert_matches_snapshot(tables: &[Table]) {
    let rendered: String = tables.iter().map(|t| format!("{t}\n")).collect();
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../paper_output.txt"
    ));
    if rendered != committed {
        let drift = rendered
            .lines()
            .zip(committed.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        panic!(
            "paper output drifted from the committed snapshot \
             (first diff at line {:?}); if intentional, regenerate with:\n\
             cargo run -p harmonia-bench -- paper > paper_output.txt",
            drift.map(|(i, (a, b))| format!("{}: {a:?} != {b:?}", i + 1))
        );
    }
}

#[test]
fn all_tables_match_committed_snapshot() {
    assert_matches_snapshot(&harmonia_bench::all_tables());
}

#[test]
fn serial_generator_loop_matches_committed_snapshot() {
    let tables: Vec<Table> = harmonia_bench::generators()
        .into_iter()
        .flat_map(|(_, tables)| tables.iter().map(|table| table()))
        .collect();
    assert_matches_snapshot(&tables);
}
