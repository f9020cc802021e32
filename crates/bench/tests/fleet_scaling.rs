//! Placement-quality contracts for the cluster-scale fleet sweep.
//!
//! 1. **Live bound** — re-running the sweep in-process, best-fit must
//!    hold the fleet p99 inside one control tick and rebalance within a
//!    few ticks of the peak-hour kill, while the spec-blind random
//!    baseline must blow the tail by ≥ 2× at every fleet size.
//! 2. **Committed artifact** — the repo-root `BENCH_fleet.json` (all
//!    simulated, hence byte-stable) shows the same split; drift means
//!    the artifact was not regenerated after a fleet change.
//! 3. **Snapshot isolation** — setting the fleet knobs
//!    (`HARMONIA_FLEET_DEVICES` / `HARMONIA_FLEET_POLICY`) must not
//!    move a byte of the committed paper snapshot at 1 or 4 threads:
//!    the paper generators never consult them.

use harmonia::fleet::{FLEET_DEVICES_ENV, FLEET_POLICY_ENV, TICK_PS};
use harmonia::sim::exec::THREADS_ENV;
use harmonia_bench::fleet;
use std::sync::Mutex;

/// Env mutations are process-global; serialize against cargo's parallel
/// test runner (this file's own lock — other test binaries run in other
/// processes).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_env<R>(pairs: &[(&str, Option<&str>)], f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap();
    let priors: Vec<_> = pairs
        .iter()
        .map(|(k, _)| (*k, std::env::var(k).ok()))
        .collect();
    let set = |key: &str, value: Option<&str>| match value {
        Some(v) => std::env::set_var(key, v),
        None => std::env::remove_var(key),
    };
    for (k, v) in pairs {
        set(k, *v);
    }
    let out = f();
    for (k, v) in priors {
        set(k, v.as_deref());
    }
    out
}

#[test]
fn best_fit_beats_random_at_every_fleet_size_live() {
    use harmonia::fleet::PlacementPolicy;
    for &devices in &fleet::DEVICES {
        let best = fleet::run_point(PlacementPolicy::BestFit, devices);
        let random = fleet::run_point(PlacementPolicy::Random, devices);
        assert_eq!(best.executed, best.injected, "best-fit/{devices}: drained");
        assert_eq!(random.executed, random.injected, "random/{devices}: drained");
        assert!(
            best.p99_ps <= TICK_PS,
            "best-fit/{devices}: p99 {} ps spills past one tick ({TICK_PS} ps)",
            best.p99_ps
        );
        assert!(
            random.p99_ps >= 2 * best.p99_ps,
            "random/{devices}: p99 {} ps does not show the spec-blind tail \
             (best-fit holds {} ps)",
            random.p99_ps,
            best.p99_ps
        );
        assert!(
            best.rebalance_ticks <= 8,
            "best-fit/{devices}: rebalance took {} ticks",
            best.rebalance_ticks
        );
        assert!(
            random.rebalance_ticks > best.rebalance_ticks,
            "random/{devices}: rebalance {} ticks should exceed best-fit's {}",
            random.rebalance_ticks,
            best.rebalance_ticks
        );
    }
}

#[test]
fn committed_bench_shows_the_same_placement_split() {
    let committed = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json"));
    for &devices in &fleet::DEVICES {
        let best = fleet::field_from_json(committed, &format!("bestfit/devices={devices}"), "p99_ps")
            .expect("committed artifact carries the bestfit point");
        let random = fleet::field_from_json(committed, &format!("random/devices={devices}"), "p99_ps")
            .expect("committed artifact carries the random point");
        assert!(
            best <= TICK_PS,
            "committed bestfit/devices={devices} p99 {best} breaks the tick bound"
        );
        assert!(
            random >= 2 * best,
            "committed random/devices={devices} p99 {random} shows no blow-up over {best}"
        );
    }
    // The committed numbers are simulated, so a fresh sweep must
    // reproduce them exactly; drift means the artifact is stale.
    let fresh = fleet::sweep();
    let rendered = fleet::sweep_json(&fresh);
    assert_eq!(
        rendered, committed,
        "BENCH_fleet.json is stale; regenerate with:\n\
         cargo bench --bench fleet && cp target/testkit-bench/BENCH_fleet.json ."
    );
}

#[test]
fn paper_snapshot_is_byte_identical_with_fleet_knobs_set() {
    let committed = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../paper_output.txt"));
    for threads in ["1", "4"] {
        let rendered = with_env(
            &[
                (FLEET_DEVICES_ENV, Some("64")),
                (FLEET_POLICY_ENV, Some("random")),
                (THREADS_ENV, Some(threads)),
            ],
            || {
                harmonia_bench::all_tables()
                    .iter()
                    .map(|t| format!("{t}\n"))
                    .collect::<String>()
            },
        );
        assert_eq!(
            rendered, committed,
            "fleet knobs moved the paper snapshot at threads={threads}"
        );
    }
}
