//! Noisy-neighbor isolation contracts for the multi-tenant scheduler.
//!
//! 1. **Live bound** — in a fresh sweep, weighted-fair must hold the
//!    victim's p99 at ≤ 2× its solo baseline at every tenant count, while
//!    round-robin must exceed that bound (the victim waits out whole
//!    aggressor slices).
//! 2. **Committed artifact** — the repo-root `BENCH_tenancy.json` (all
//!    simulated, hence byte-stable) equals a fresh sweep and shows the
//!    same split; drift means the artifact was not regenerated after a
//!    tenancy change.
//!
//! The tests share one fresh sweep, so each point is simulated once per
//! test binary.

use std::sync::OnceLock;

use harmonia_bench::tenancy::{self, TenancyPoint};
use harmonia_testkit::bench::assert_committed;

fn sweep() -> &'static [TenancyPoint] {
    static SWEEP: OnceLock<Vec<TenancyPoint>> = OnceLock::new();
    SWEEP.get_or_init(tenancy::sweep)
}

fn point(policy: &str, tenants: usize) -> &'static TenancyPoint {
    sweep()
        .iter()
        .find(|p| (p.policy, p.tenants) == (policy, tenants))
        .expect("the sweep carries both policies at every tenant count")
}

#[test]
fn wfq_bounds_victim_p99_where_round_robin_does_not_live() {
    for &tenants in &tenancy::TENANTS {
        let wfq = point("wfq", tenants);
        assert!(
            wfq.p99_ratio <= 2.0,
            "wfq/tenants={tenants}: victim p99 {} ps is {:.2}x solo {} ps",
            wfq.victim_p99_ps,
            wfq.p99_ratio,
            wfq.victim_solo_p99_ps
        );
        let rr = point("rr", tenants);
        assert!(
            rr.p99_ratio > 2.0,
            "rr/tenants={tenants}: round-robin unexpectedly held the victim \
             at {:.2}x solo — the noisy-neighbor scenario lost its teeth",
            rr.p99_ratio
        );
        // The flood must be held back by quota enforcement, not by
        // aggressors politely draining first.
        assert!(
            wfq.quota_exhausted > 0,
            "wfq/tenants={tenants}: no quota hits"
        );
        assert!(
            rr.quota_exhausted > 0,
            "rr/tenants={tenants}: no quota hits"
        );
    }
}

#[test]
fn committed_bench_shows_the_same_isolation_split() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_tenancy.json"
    ));
    // The committed numbers are simulated, so a fresh sweep must
    // reproduce them exactly. Checked first: drift means the artifact is
    // stale, and the fresh rendering is left in target/testkit-bench/.
    assert_committed(
        "BENCH_tenancy.json",
        committed,
        &tenancy::sweep_json(sweep()),
    );
    for &tenants in &tenancy::TENANTS {
        let wfq = tenancy::ratio_from_json(committed, &format!("wfq/tenants={tenants}"))
            .expect("committed artifact carries the wfq point");
        let rr = tenancy::ratio_from_json(committed, &format!("rr/tenants={tenants}"))
            .expect("committed artifact carries the rr point");
        assert!(
            wfq <= 2.0,
            "committed wfq/tenants={tenants} ratio {wfq:.2} breaks the bound"
        );
        assert!(
            rr > 2.0,
            "committed rr/tenants={tenants} ratio {rr:.2} shows no interference"
        );
    }
}
