//! The `harmonia` command line: one generator prints its tables as the
//! full sweep does, and bad input is a usage error (exit 2), never a
//! silent default or a panic. The full sweep itself is pinned by
//! `paper_snapshot`.

use std::process::{Command, Output};

fn harmonia(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_harmonia"));
    cmd.args(args)
        .env_remove("HARMONIA_FLEET_DEVICES")
        .env_remove("HARMONIA_FLEET_POLICY");
    for (name, value) in env {
        cmd.env(name, value);
    }
    cmd.output().expect("the harmonia binary runs")
}

#[test]
fn paper_tables_prints_the_tables_section_of_the_snapshot() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../paper_output.txt"
    ));
    let start = committed.find("== Table 1 ").expect("snapshot has Table 1");
    let end = committed
        .find("== Ablation ")
        .expect("snapshot has the ablations");
    let out = harmonia(&["paper", "tables"], &[]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), &committed[start..end]);
}

#[test]
fn bad_subcommand_flag_or_generator_is_a_usage_error() {
    let bad: [&[&str]; 6] = [
        &[],
        &["mystery"],
        &["metrics", "--jsn"],
        &["trace", "--txet"],
        &["fleet", "--slo", "--report"],
        &["paper", "fig03", "fig99"],
    ];
    for args in bad {
        let out = harmonia(args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: harmonia"), "{args:?}: {stderr}");
    }
}

#[test]
fn infeasible_or_garbled_fleet_knobs_are_an_error_not_a_panic() {
    for knob in [
        ("HARMONIA_FLEET_DEVICES", "1"),
        ("HARMONIA_FLEET_POLICY", "mystery"),
    ] {
        let out = harmonia(&["fleet"], &[knob]);
        assert_eq!(out.status.code(), Some(2), "{knob:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("fleet: "), "{knob:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{knob:?}: {stderr}");
    }
}
