//! Noisy-neighbor isolation contracts for the multi-tenant scheduler.
//!
//! 1. **Live bound** — re-running the sweep in-process, weighted-fair
//!    must hold the victim's p99 at ≤ 2× its solo baseline at every
//!    tenant count, while round-robin must exceed that bound (the
//!    victim waits out whole aggressor slices).
//! 2. **Committed artifact** — the repo-root `BENCH_tenancy.json` (all
//!    simulated, hence byte-stable) shows the same split; drift means
//!    the artifact was not regenerated after a tenancy change.
//! 3. **Snapshot isolation** — enabling the tenancy knobs
//!    (`HARMONIA_TENANT_POLICY` / `HARMONIA_TENANT_SLICE_PS`) must not
//!    move a byte of the committed paper snapshot at 1 or 4 threads:
//!    the paper generators never consult them.

use harmonia::shell::sched::{TenantPolicy, TENANT_POLICY_ENV, TENANT_SLICE_ENV};
use harmonia::sim::exec::THREADS_ENV;
use harmonia_bench::tenancy;
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
        assert!(wfq.quota_exhausted > 0, "wfq/tenants={tenants}: no quota hits");
        assert!(rr.quota_exhausted > 0, "rr/tenants={tenants}: no quota hits");
    }
}

#[test]
fn committed_bench_shows_the_same_isolation_split() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_tenancy.json"
    ));
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
    // The committed numbers are simulated, so a fresh sweep must
    // reproduce them exactly; drift means the artifact is stale.
    let fresh = tenancy::sweep();
    let rendered = tenancy::sweep_json(&fresh);
    assert_eq!(
        rendered, committed,
        "BENCH_tenancy.json is stale; regenerate with:\n\
         cargo bench --bench tenancy && cp target/testkit-bench/BENCH_tenancy.json ."
    );
}

#[test]
fn paper_snapshot_is_byte_identical_with_tenancy_enabled() {
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../paper_output.txt"
    ));
    for threads in ["1", "4"] {
        let rendered = with_env(
            &[
                (TENANT_POLICY_ENV, Some("wfq")),
                (TENANT_SLICE_ENV, Some("1000000")),
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
            "tenancy knobs moved the paper snapshot at threads={threads}"
        );
    }
}
