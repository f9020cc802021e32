//! Fault campaigns and fairness contracts for the multi-tenant host
//! driver.
//!
//! 1. **Weighted shares** — over an all-backlogged window, WFQ grants
//!    every tenant its `w_i/Σw` share of slices within one slice of
//!    exact; round-robin splits the same window evenly.
//! 2. **No starvation** — under either policy, a flooding aggressor
//!    cannot keep a small victim from draining: the victim completes
//!    everything and the aggressor's excess trips kernel quota
//!    enforcement instead of monopolizing the control path.
//! 3. **Campaign convergence** — under the eight-seed fault campaigns
//!    (link flap + credit stall + 5% background drop/corrupt/irq-lost)
//!    every tenant's work converges to completed with exact accounting,
//!    and each seed's full observable state is reproducible run-to-run.
//! 4. **Thread byte-identity** — the rendered driver state is identical
//!    at `HARMONIA_THREADS` 1 and 4: nothing in the tenancy stack may
//!    consult the thread knob.
//! 5. **Env plumbing** — `HARMONIA_TENANT_POLICY` /
//!    `HARMONIA_TENANT_SLICE_PS` select the scheduler configuration
//!    through `TenantScheduler::from_env`.

use harmonia_cmd::{CommandCode, UnifiedControlKernel};
use harmonia_host::batch::CmdSpec;
use harmonia_host::{DmaEngine, TenantHostDriver};
use harmonia_hw::device::catalog;
use harmonia_hw::ip::PcieDmaIp;
use harmonia_hw::resource::ResourceUsage;
use harmonia_hw::Vendor;
use harmonia_shell::pr::{MultiTenantRegion, TenantRole};
use harmonia_shell::sched::{
    TenantPolicy, TenantScheduler, DEFAULT_TENANT_SLICE_PS, TENANT_POLICY_ENV, TENANT_SLICE_ENV,
};
use harmonia_shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
use harmonia_sim::exec::THREADS_ENV;
use harmonia_sim::{FaultKind, FaultPlan, FaultRates};
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

fn shell_parts() -> (TailoredShell, DmaEngine, UnifiedControlKernel) {
    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("tenant-campaign")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build();
    let shell = TailoredShell::tailor(&unified, &role).unwrap();
    let mut kernel = UnifiedControlKernel::new(64);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
    let (gen, lanes) = dev.pcie().unwrap();
    let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
    (shell, engine, kernel)
}

fn scheduler(policy: TenantPolicy, weights: &[u64], shell: &TailoredShell) -> TenantScheduler {
    let region =
        MultiTenantRegion::partition(shell, catalog::device_a().capacity(), 1, 1024);
    let mut sched = TenantScheduler::new(region, 0, policy, DEFAULT_TENANT_SLICE_PS).unwrap();
    let logic = ResourceUsage::new(50_000, 80_000, 100, 20, 100);
    for (i, &w) in weights.iter().enumerate() {
        sched
            .register(TenantRole::new(format!("t{i}"), logic, 8), w)
            .unwrap();
    }
    sched
}

fn driver(policy: TenantPolicy, weights: &[u64]) -> TenantHostDriver {
    let (shell, engine, kernel) = shell_parts();
    TenantHostDriver::new(scheduler(policy, weights, &shell), engine, kernel)
}

fn health_reads(n: usize) -> Vec<CmdSpec> {
    (0..n)
        .map(|_| (0u8, 0u8, CommandCode::HealthRead, Vec::new()))
        .collect()
}

/// The parallel-equivalence campaign plan scaled to tenant slices: a link
/// flap across the first fifteen 2 ms slices, a credit stall after it,
/// and 5% background drop/corrupt/irq-lost rates from `seed`.
fn campaign_plan(seed: u64) -> FaultPlan {
    FaultPlan::new()
        .at(0, FaultKind::LinkDown)
        .at(30_000_000_000, FaultKind::LinkUp)
        .at(50_000_000_000, FaultKind::PcieCreditStall { beats: 1_000 })
        .with_rates(
            seed,
            FaultRates {
                cmd_drop: 0.05,
                cmd_corrupt: 0.05,
                irq_lost: 0.05,
                ecc: 0.0,
            },
        )
}

/// Everything observable about a finished run, as one comparable string.
fn render(tag: &str, d: &TenantHostDriver, tenants: usize) -> String {
    let stats: Vec<String> = (0..tenants)
        .map(|t| format!("t{t}={:?} p99={}", d.stats(t), d.latency(t).p99()))
        .collect();
    format!(
        "{tag} clock={} slices={} quota={} switches={} reconfig_ps={} [{}]",
        d.clock_ps(),
        d.slices_run(),
        d.quota_hits(),
        d.scheduler().switches(),
        d.scheduler().region().total_reconfig_ps(),
        stats.join(" ")
    )
}

#[test]
fn wfq_shares_track_weights_within_one_slice_while_backlogged() {
    let weights = [4u64, 2, 1];
    let total: u64 = weights.iter().sum();
    let rounds = 6 * total;
    let mut d = driver(TenantPolicy::WeightedFair, &weights);
    // Deep backlogs so nobody drains inside the measured window: tenant
    // 0 can receive at most 24 slices x 256 budgeted commands.
    for t in 0..weights.len() {
        d.enqueue(t, health_reads(10_000));
    }
    assert_eq!(d.run(rounds), rounds);
    for (i, &w) in weights.iter().enumerate() {
        let got = d.stats(i).slices as i128;
        let diff = got * total as i128 - (rounds * w) as i128;
        assert!(
            diff.abs() <= total as i128,
            "tenant {i} (w={w}) got {got}/{rounds} slices, diff {diff}"
        );
    }
}

#[test]
fn round_robin_splits_the_same_window_evenly() {
    let weights = [4u64, 2, 1]; // RR must ignore these.
    let rounds = 42;
    let mut d = driver(TenantPolicy::RoundRobin, &weights);
    for t in 0..weights.len() {
        d.enqueue(t, health_reads(10_000));
    }
    assert_eq!(d.run(rounds), rounds);
    for i in 0..weights.len() {
        assert_eq!(d.stats(i).slices, rounds / 3, "RR must be weight-blind");
    }
}

#[test]
fn no_starvation_under_either_policy() {
    for policy in [TenantPolicy::RoundRobin, TenantPolicy::WeightedFair] {
        let mut d = driver(policy, &[4, 1]);
        d.enqueue(0, health_reads(50)); // victim
        d.enqueue(1, health_reads(5000)); // aggressor
        d.run(u64::MAX);
        assert!(d.idle(), "{policy:?}: all work must drain");
        assert_eq!(d.stats(0).completed, 50, "{policy:?}: victim starved");
        assert_eq!(d.stats(1).completed, 5000);
        assert!(d.stats(0).slices >= 1);
        assert!(
            d.quota_hits() > 0,
            "{policy:?}: the aggressor must trip quota enforcement, not \
             monopolize the kernel"
        );
    }
}

#[test]
fn eight_seed_campaigns_converge_with_exact_accounting() {
    for policy in [TenantPolicy::RoundRobin, TenantPolicy::WeightedFair] {
        let mut any_background_fault = false;
        for seed in 0..8u64 {
            let run = || {
                let mut d = driver(policy, &[4, 2, 1]);
                d.set_fault_injector(campaign_plan(seed).injector());
                for t in 0..3 {
                    d.enqueue(t, health_reads(60));
                }
                d.run(u64::MAX);
                assert!(d.idle(), "{policy:?} seed {seed}: work must converge");
                for t in 0..3 {
                    let s = d.stats(t);
                    assert_eq!(
                        s.completed, 60,
                        "{policy:?} seed {seed}: tenant {t} lost commands"
                    );
                    assert_eq!(s.errors, 0, "{policy:?} seed {seed}: phantom errors");
                }
                // The t=0 link-down burns the first slice; every seed
                // must record that as a retried timeout.
                let recoveries: u64 =
                    (0..3).map(|t| d.stats(t).nacks + d.stats(t).timeouts).sum();
                assert!(recoveries > 0, "{policy:?} seed {seed}: no faults fired");
                assert!(
                    d.clock_ps() >= 30_000_000_000,
                    "{policy:?} seed {seed}: converged before the link returned"
                );
                (render(&format!("seed={seed}"), &d, 3), recoveries)
            };
            let (first, recoveries) = run();
            let (second, _) = run();
            assert_eq!(first, second, "{policy:?} seed {seed}: not reproducible");
            // Link-down alone accounts for 3 front-of-ring retries; more
            // means the seeded background rates actually fired.
            if recoveries > 3 {
                any_background_fault = true;
            }
        }
        assert!(
            any_background_fault,
            "{policy:?}: eight seeds of 5% rates never fired a background fault"
        );
    }
}

#[test]
fn rendered_state_is_byte_identical_at_one_and_four_threads() {
    for policy in [TenantPolicy::RoundRobin, TenantPolicy::WeightedFair] {
        let run = || {
            let mut d = driver(policy, &[4, 2, 1]);
            d.set_fault_injector(campaign_plan(3).injector());
            for t in 0..3 {
                d.enqueue(t, health_reads(80));
            }
            d.run(u64::MAX);
            render(policy.name(), &d, 3)
        };
        let serial = with_env(&[(THREADS_ENV, Some("1"))], run);
        let parallel = with_env(&[(THREADS_ENV, Some("4"))], run);
        assert_eq!(parallel, serial, "{policy:?} diverged at threads=4");
    }
}

#[test]
fn env_knobs_select_policy_and_slice_length() {
    let (shell, _engine, _kernel) = shell_parts();
    let build = || {
        let region =
            MultiTenantRegion::partition(&shell, catalog::device_a().capacity(), 1, 1024);
        TenantScheduler::from_env(region, 0).unwrap()
    };
    let wfq = with_env(
        &[
            (TENANT_POLICY_ENV, Some("wfq")),
            (TENANT_SLICE_ENV, Some("123456789")),
        ],
        build,
    );
    assert_eq!(wfq.policy(), TenantPolicy::WeightedFair);
    assert_eq!(wfq.slice_ps(), 123_456_789);
    let defaulted = with_env(
        &[(TENANT_POLICY_ENV, None), (TENANT_SLICE_ENV, None)],
        build,
    );
    assert_eq!(defaulted.policy(), TenantPolicy::RoundRobin);
    assert_eq!(defaulted.slice_ps(), DEFAULT_TENANT_SLICE_PS);
}
