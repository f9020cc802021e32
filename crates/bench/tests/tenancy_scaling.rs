//! Noisy-neighbor isolation contracts for the multi-tenant scheduler.
//!
//! 1. **Live bound** — re-running the sweep in-process, weighted-fair
//!    must hold the victim's p99 at ≤ 2× its solo baseline at every
//!    tenant count, while round-robin must exceed that bound (the
//!    victim waits out whole aggressor slices).
//! 2. **Committed artifact** — the repo-root `BENCH_tenancy.json` (all
//!    simulated, hence byte-stable) shows the same split; drift means
//!    the artifact was not regenerated after a tenancy change.

use harmonia::shell::sched::TenantPolicy;
use harmonia_bench::tenancy;
use harmonia_testkit::bench::assert_committed;

#[test]
fn wfq_bounds_victim_p99_where_round_robin_does_not_live() {
    for &tenants in &tenancy::TENANTS {
        let wfq = tenancy::run_point(TenantPolicy::WeightedFair, tenants);
        assert!(
            wfq.p99_ratio <= 2.0,
            "wfq/tenants={tenants}: victim p99 {} ps is {:.2}x solo {} ps",
            wfq.victim_p99_ps,
            wfq.p99_ratio,
            wfq.victim_solo_p99_ps
        );
        let rr = tenancy::run_point(TenantPolicy::RoundRobin, tenants);
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
    let fresh = tenancy::sweep_json(&tenancy::sweep());
    assert_committed("BENCH_tenancy.json", committed, &fresh);
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
