//! The benchmark's output fingerprints, checked in tier-1: the fleet day
//! and the two command campaigns that `benchmark/src/workloads.rs` runs,
//! built by the `harmonia_bench` builders the components bench times,
//! hashed as the benchmark hashes them, and byte-checked against the
//! committed `benchmark/reference/*.txt`. A change that moves what the
//! benchmark measures fails here, not only in `benchmark/run.sh smoke`.

use harmonia::sim::{MetricsRegistry, Probe};
use harmonia_bench::cmdpath::{cmd_campaign, CMD_BATCH, CMD_COUNT};
use harmonia_bench::fleet::fleet_day;
use harmonia_testkit::fnv1a;

/// The seed the references were recorded at.
const SEED: u64 = 7;

/// Fault plans a command campaign rotates through.
const CMD_VARIANTS: usize = 8;

/// A reference file as the benchmark renders it: one `<variant> <hex>`
/// line per variant under a two-line header.
fn reference(name: &str, fingerprints: &[u64]) -> String {
    let mut out = format!(
        "# {name}: FNV-1a 64 fingerprint of each op variant's output at seed {SEED}.\n\
         # Rewrite with `benchmark/run.sh --record`.\n"
    );
    for (v, fp) in fingerprints.iter().enumerate() {
        out.push_str(&format!("{v} {fp:016x}\n"));
    }
    out
}

/// One command campaign's fingerprint: its report and clock, then every
/// acked tag little-endian, once every read was acked.
fn cmd_fingerprint(variant: usize, batch: usize, probe: Probe) -> u64 {
    let (drv, results) = cmd_campaign(SEED, variant, batch, probe);
    let report = drv.report();
    let n = CMD_COUNT as u64;
    assert!(
        results.len() == CMD_COUNT && results.iter().all(Result::is_ok),
        "variant {variant}: every read must be acked"
    );
    assert_eq!((report.issued, report.acked), (n, n), "{report}");
    assert_eq!(drv.acked_log().len(), CMD_COUNT);
    let mut bytes = format!("{report:?} clock_ps={}", drv.clock_ps()).into_bytes();
    for tag in drv.acked_log() {
        bytes.extend_from_slice(&tag.to_le_bytes());
    }
    fnv1a(bytes)
}

#[test]
fn fleet_day_matches_the_benchmark_reference() {
    let report = fleet_day(SEED).run();
    let acc = report.accounting;
    assert!(acc.exact() && acc.pending == 0, "{acc:?}");
    let registry = MetricsRegistry::enabled();
    report.publish_metrics(&registry);
    let text = report.render() + &registry.snapshot().export_prometheus();
    assert_eq!(
        reference("fleet_day", &[fnv1a(text)]),
        include_str!("../../../../benchmark/reference/fleet_day.txt")
    );
}

#[test]
fn cmd_batched_matches_the_benchmark_reference() {
    let fps: Vec<u64> = (0..CMD_VARIANTS)
        .map(|v| cmd_fingerprint(v, CMD_BATCH, Probe::enabled()))
        .collect();
    assert_eq!(
        reference("cmd_batched", &fps),
        include_str!("../../../../benchmark/reference/cmd_batched.txt")
    );
}

#[test]
fn cmd_serial_matches_the_benchmark_reference() {
    let fps: Vec<u64> = (0..CMD_VARIANTS)
        .map(|v| cmd_fingerprint(v, 1, Probe::disabled()))
        .collect();
    assert_eq!(
        reference("cmd_serial", &fps),
        include_str!("../../../../benchmark/reference/cmd_serial.txt")
    );
}
