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
//!    and each seed's full observable state is reproducible run-to-run
//!    and pinned to recorded FNV-1a hashes.
//! 4. **Exactly once** — under lost completion interrupts, with four
//!    round-robin or eight weighted-fair tenants sharing the kernel, every
//!    enqueued `ModuleInit` runs exactly once: each retry replays from its
//!    ring's window, however many other tenants' commands ran between.

use crate::common::parts;
use harmonia_cmd::CommandCode;
use harmonia_host::batch::CmdSpec;
use harmonia_host::TenantHostDriver;
use harmonia_hw::device::catalog;
use harmonia_hw::resource::ResourceUsage;
use harmonia_shell::pr::{MultiTenantRegion, TenantRole};
use harmonia_shell::rbb::RbbKind;
use harmonia_shell::sched::{TenantPolicy, TenantScheduler, DEFAULT_TENANT_SLICE_PS};
use harmonia_shell::TailoredShell;
use harmonia_sim::{FaultKind, FaultPlan, FaultRates};
use harmonia_testkit::fnv1a;

fn scheduler(policy: TenantPolicy, weights: &[u64], shell: &TailoredShell) -> TenantScheduler {
    let region = MultiTenantRegion::partition(shell, catalog::device_a().capacity(), 1, 1024);
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
    let (engine, kernel, shell) = parts();
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

/// FNV-1a of each seed's `render`, round-robin then weighted-fair.
const CAMPAIGN_RENDERS: [[u64; 8]; 2] = [
    [
        0xb596_a75f_5ee0_2c3d,
        0x52aa_ec97_34cb_6d34,
        0xd58f_baa9_fc91_a5ca,
        0x9e72_1ca4_b11a_2f72,
        0x35e9_859d_c528_d0b1,
        0x6358_5bf3_eb6a_3290,
        0xbe70_812e_523d_1bbb,
        0xd60d_1947_6c25_b606,
    ],
    [
        0xac53_aae5_af6c_bda3,
        0x9376_b275_77d5_532b,
        0x0d50_aab3_aae8_0f27,
        0xaeb9_7ce9_52a1_ca34,
        0x92e7_117a_e090_1844,
        0xac67_8ce6_f55b_0d14,
        0x2236_9c53_63ce_62d8,
        0x6f24_ca4c_5788_5214,
    ],
];

#[test]
fn eight_seed_campaigns_converge_with_exact_accounting() {
    for (pins, policy) in CAMPAIGN_RENDERS
        .iter()
        .zip([TenantPolicy::RoundRobin, TenantPolicy::WeightedFair])
    {
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
                let recoveries: u64 = (0..3).map(|t| d.stats(t).nacks + d.stats(t).timeouts).sum();
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
            assert_eq!(
                fnv1a(&first),
                pins[seed as usize],
                "{policy:?} seed {seed}: {first}"
            );
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

/// `ModuleInit`s run the vendor init program, so a retry that ran again
/// instead of replaying would show in `commands_executed`.
fn module_inits(n: usize) -> Vec<CmdSpec> {
    (0..n)
        .map(|_| {
            (
                RbbKind::Network.id(),
                0u8,
                CommandCode::ModuleInit,
                Vec::new(),
            )
        })
        .collect()
}

#[test]
fn every_tenant_command_runs_exactly_once_under_lost_interrupts() {
    const PER_TENANT: usize = 400;
    let irq_lost = FaultRates {
        cmd_drop: 0.0,
        cmd_corrupt: 0.0,
        irq_lost: 0.05,
        ecc: 0.0,
    };
    for (policy, tenants) in [
        (TenantPolicy::RoundRobin, 4),
        (TenantPolicy::WeightedFair, 8),
    ] {
        let weights: Vec<u64> = (1..=tenants).collect();
        for seed in 0..4 {
            let mut d = driver(policy, &weights);
            d.set_fault_injector(FaultPlan::new().with_rates(seed, irq_lost).injector());
            for t in 0..weights.len() {
                d.enqueue(t, module_inits(PER_TENANT));
            }
            d.run(u64::MAX);
            assert!(d.idle(), "{policy:?} seed {seed}: work must converge");
            let timeouts: u64 = (0..weights.len()).map(|t| d.stats(t).timeouts).sum();
            for t in 0..weights.len() {
                let s = d.stats(t);
                assert_eq!(
                    (s.completed, s.errors),
                    (PER_TENANT as u64, 0),
                    "{policy:?} seed {seed} t{t}"
                );
            }
            let enqueued = (PER_TENANT * weights.len()) as u64;
            assert_eq!(
                d.kernel().commands_executed(),
                enqueued,
                "{policy:?} seed {seed}: a retried command ran twice"
            );
            assert_eq!(d.kernel().replays(), timeouts, "{policy:?} seed {seed}");
        }
    }
}
