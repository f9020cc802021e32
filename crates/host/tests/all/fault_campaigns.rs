//! Fault-scenario campaigns over the resilient command driver.
//!
//! Four contracts, exercised under randomized fault plans:
//!
//! 1. **Convergence** — any finite fault plan drives every issued command
//!    to *acked* or *reported-failed*, on the serial and the ring
//!    transport; no panics, no lost accounting;
//! 2. **Ordering** — retries never reorder responses within one `SrcId`;
//! 3. **Transparency** — a plan that never fires produces `DriverReport`s
//!    byte-identical to a driver with no plan, with identical clocks and
//!    latency accounting;
//! 4. **Observation** — attaching `Probe::enabled()` (trace, metrics and
//!    flight recorder) never moves a simulated result on either
//!    transport.

use crate::common::{parts, spec};
use harmonia_cmd::{CommandCode, UnifiedControlKernel};
use harmonia_host::{CommandDriver, DmaEngine, DriverError};
use harmonia_shell::rbb::RbbKind;
use harmonia_shell::TailoredShell;
use harmonia_sim::{FaultKind, FaultPlan, FaultRates, Probe};
use harmonia_testkit::prelude::*;

fn driver() -> (CommandDriver, TailoredShell) {
    driver_with(CommandDriver::new)
}

fn driver_with(
    build: impl FnOnce(DmaEngine, UnifiedControlKernel) -> CommandDriver,
) -> (CommandDriver, TailoredShell) {
    let (engine, kernel, shell) = parts();
    (build(engine, kernel), shell)
}

fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::LinkDown),
        Just(FaultKind::LinkUp),
        (1u64..2_000).prop_map(|beats| FaultKind::PcieCreditStall { beats }),
        Just(FaultKind::EccError),
        Just(FaultKind::CmdDrop),
        Just(FaultKind::CmdCorrupt),
        Just(FaultKind::IrqLost),
    ]
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        collection::vec((0u64..2_000_000_000, arb_fault_kind()), 0..12),
        any::<u64>(),
        (0u32..4, 0u32..4, 0u32..4),
    )
        .prop_map(|(events, seed, (drop_pct, corrupt_pct, irq_pct))| {
            let mut plan = FaultPlan::new();
            for (at, kind) in events {
                plan = plan.at(at, kind);
            }
            plan.with_rates(
                seed,
                FaultRates {
                    cmd_drop: f64::from(drop_pct) / 100.0,
                    cmd_corrupt: f64::from(corrupt_pct) / 100.0,
                    irq_lost: f64::from(irq_pct) / 100.0,
                    ecc: 0.0,
                },
            )
        })
}

forall! {
    /// (1) + (2): every campaign converges with exact accounting, and the
    /// ack log (idempotency tags in completion order) stays strictly
    /// increasing — retries never reorder responses within a `SrcId`.
    #[test]
    fn finite_fault_campaigns_converge(
        plan in arb_plan(),
        cmds in collection::vec(0u8..4, 1..24),
    ) {
        let (mut drv, _shell) = driver();
        drv.set_fault_injector(plan.injector());
        let (mut oks, mut gave_ups) = (0u64, 0u64);
        for c in cmds {
            let res = match c {
                0 => drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new()),
                1 => drv.cmd_resilient(RbbKind::Network, 0, CommandCode::StatsRead, Vec::new()),
                2 => drv.cmd_resilient(RbbKind::Network, 0, CommandCode::ModuleStatusRead, Vec::new()),
                _ => drv.cmd_resilient(RbbKind::Host, 0, CommandCode::ModuleInit, Vec::new()),
            };
            match res {
                Ok(_) => oks += 1,
                Err(DriverError::GaveUp { .. }) => gave_ups += 1,
                Err(other) => prop_assert!(false, "non-converging error: {other}"),
            }
        }
        let r = drv.report();
        prop_assert!(r.converged(), "{r}");
        prop_assert_eq!(r.issued, oks + gave_ups);
        prop_assert_eq!(r.acked, oks);
        prop_assert_eq!(r.gave_up, gave_ups);
        prop_assert_eq!(r.acked, drv.acked_log().len() as u64);
        prop_assert!(
            drv.acked_log().windows(2).all(|w| w[0] < w[1]),
            "retries reordered responses: {:?}",
            drv.acked_log()
        );
    }

    /// (1) on the ring transport: under the same plans, batched
    /// submission converges with exact accounting, acks each idempotency
    /// tag at most once (completion order may interleave across rounds),
    /// and gives up only after spending the whole retry budget.
    #[test]
    fn batched_fault_campaigns_converge(
        plan in arb_plan(),
        cmds in collection::vec(0u8..4, 1..24),
        batch in 2usize..=16,
    ) {
        let (mut drv, _shell) =
            driver_with(|engine, kernel| CommandDriver::with_depth(engine, kernel, batch, 64));
        drv.set_fault_injector(plan.injector());
        let specs = cmds.into_iter().map(spec).collect();
        let max_attempts = drv.policy().max_retries + 1;
        let (mut oks, mut gave_ups, mut kernel_errors) = (0u64, 0u64, 0u64);
        for res in drv.submit(specs) {
            match res {
                Ok(_) => oks += 1,
                Err(DriverError::GaveUp { attempts, .. }) => {
                    prop_assert_eq!(attempts, max_attempts);
                    gave_ups += 1;
                }
                Err(DriverError::Kernel(_)) => kernel_errors += 1,
            }
        }
        let r = drv.report();
        prop_assert!(r.converged(), "{r}");
        prop_assert_eq!(r.issued, oks + gave_ups + kernel_errors);
        prop_assert_eq!(r.acked, oks);
        prop_assert_eq!(r.acked, drv.acked_log().len() as u64);
        let mut tags = drv.acked_log().to_vec();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), drv.acked_log().len(), "duplicate ack tags");
    }

    /// (3): an armed plan whose only event never fires during the run is
    /// indistinguishable from no plan at all — same responses,
    /// byte-identical report, identical clock, latency accounting, issue
    /// script and ack log. Consulting the fault plane costs nothing.
    #[test]
    fn silent_fault_plan_matches_no_plan_byte_for_byte(
        cmds in collection::vec(0u8..4, 1..16),
    ) {
        let (mut bare, _s1) = driver();
        let (mut armed, _s2) = driver();
        let silent = FaultPlan::new().at(u64::MAX, FaultKind::LinkDown).injector();
        prop_assert!(silent.is_active());
        armed.set_fault_injector(silent);
        for c in cmds {
            let (rbb, inst, code, data) = spec(c);
            let a = bare.cmd_raw_resilient(rbb, inst, code, data.clone()).unwrap();
            let b = armed.cmd_raw_resilient(rbb, inst, code, data).unwrap();
            prop_assert_eq!(a.data, b.data);
        }
        prop_assert_eq!(bare.report(), armed.report());
        prop_assert_eq!(
            format!("{}", bare.report()).into_bytes(),
            format!("{}", armed.report()).into_bytes()
        );
        prop_assert_eq!(bare.total_latency_ps(), armed.total_latency_ps());
        prop_assert_eq!(bare.clock_ps(), armed.clock_ps());
        prop_assert_eq!(bare.issued(), armed.issued());
        prop_assert_eq!(bare.acked_log(), armed.acked_log());
    }

    /// (4): under the same plan and command mix, on the serial transport
    /// (batch 1) and the ring transport, a driver with every probe plane
    /// on returns the same results, `DriverReport`, ack log and clock as
    /// one with every plane off.
    #[test]
    fn attaching_a_probe_never_moves_a_result(
        plan in arb_plan(),
        cmds in collection::vec(0u8..4, 1..24),
        batch in prop_oneof![Just(1usize), 2usize..=16],
    ) {
        let run = |probe: &Probe| {
            let (mut drv, _shell) =
                driver_with(|engine, kernel| CommandDriver::with_depth(engine, kernel, batch, 64));
            drv.set_probe(probe.clone());
            drv.set_fault_injector(plan.clone().injector());
            let results = drv.submit(cmds.iter().copied().map(spec).collect());
            (results, drv.report().clone(), drv.acked_log().to_vec(), drv.clock_ps())
        };
        let on = Probe::enabled();
        let observed = run(&on);
        prop_assert_eq!(run(&Probe::disabled()), observed);
        // The enabled probe really was attached to the whole path.
        let snap = on.metrics.snapshot();
        prop_assert_eq!(snap.counter("harmonia_cmd_issued_total"), cmds.len() as u64);
        prop_assert!(!on.trace.is_empty());
        prop_assert!(!on.flight.is_empty());
    }
}

/// The acceptance scenario: a seeded campaign mixing four scheduled fault
/// types with background fault rates completes the full bring-up +
/// monitoring workflow with zero panics and a non-empty report.
#[test]
fn seeded_multi_fault_campaign_completes() {
    let (mut drv, mut shell) = driver();
    let plan = FaultPlan::new()
        .at(0, FaultKind::LinkDown)
        .at(40_000_000, FaultKind::LinkUp)
        .at(60_000_000, FaultKind::PcieCreditStall { beats: 2_000 })
        .at(80_000_000, FaultKind::CmdCorrupt)
        .at(100_000_000, FaultKind::IrqLost)
        .with_rates(
            0x00C0_FFEE,
            FaultRates {
                cmd_drop: 0.05,
                cmd_corrupt: 0.05,
                irq_lost: 0.05,
                ecc: 0.0,
            },
        );
    drv.set_fault_injector(plan.injector());
    drv.init_shell_resilient(&mut shell).unwrap();
    for _ in 0..40 {
        match drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new()) {
            Ok(_) | Err(DriverError::GaveUp { .. }) => {}
            Err(e) => panic!("campaign must converge, got {e}"),
        }
    }
    let _ = drv.read_all_stats_resilient(&shell).unwrap();
    let r = drv.report().clone();
    assert!(r.converged(), "{r}");
    assert!(r.issued >= 44, "{r}");
    assert!(
        r.retries + r.timeouts + r.nacks > 0,
        "the campaign injected nothing observable: {r}"
    );
}
