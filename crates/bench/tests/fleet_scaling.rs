//! Placement-quality contracts for the cluster-scale fleet sweep.
//!
//! 1. **Live bound** — in a fresh sweep, best-fit must hold the fleet p99
//!    inside one control tick and rebalance within a few ticks of the
//!    peak-hour kill, while the spec-blind random baseline must blow the
//!    tail by ≥ 2× at every fleet size.
//! 2. **Committed artifact** — the repo-root `BENCH_fleet.json` (all
//!    simulated, hence byte-stable) equals a fresh sweep and shows the
//!    same split; drift means the artifact was not regenerated after a
//!    fleet change.
//!
//! The tests share one fresh sweep, so each point is simulated once per
//! test binary.

use std::sync::OnceLock;

use harmonia::fleet::TICK_PS;
use harmonia_bench::fleet::{self, FleetPoint};
use harmonia_bench::json_field;
use harmonia_testkit::bench::assert_committed;

fn sweep() -> &'static [FleetPoint] {
    static SWEEP: OnceLock<Vec<FleetPoint>> = OnceLock::new();
    SWEEP.get_or_init(fleet::sweep)
}

fn point(policy: &str, devices: usize) -> &'static FleetPoint {
    sweep()
        .iter()
        .find(|p| (p.policy, p.devices) == (policy, devices))
        .expect("the sweep carries both policies at every size")
}

#[test]
fn best_fit_beats_random_at_every_fleet_size_live() {
    for &devices in &fleet::DEVICES {
        let best = point("bestfit", devices);
        let random = point("random", devices);
        assert_eq!(best.executed, best.injected, "best-fit/{devices}: drained");
        assert_eq!(
            random.executed, random.injected,
            "random/{devices}: drained"
        );
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
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fleet.json"
    ));
    // The committed numbers are simulated, so a fresh sweep must
    // reproduce them exactly. Checked first: drift means the artifact is
    // stale, and the fresh rendering is left in target/testkit-bench/.
    assert_committed("BENCH_fleet.json", committed, &fleet::sweep_json(sweep()));
    for &devices in &fleet::DEVICES {
        let best = json_field::<u64>(committed, &format!("bestfit/devices={devices}"), "p99_ps")
            .expect("committed artifact carries the bestfit point");
        let random = json_field::<u64>(committed, &format!("random/devices={devices}"), "p99_ps")
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
}
