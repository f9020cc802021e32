//! Run-to-run reproducibility, end to end: seeded fault campaigns render
//! the same transcripts on every run, and a failing property stops on the
//! same seed, minimal counterexample and shrink tape every time.

use harmonia_testkit::runner::{Config, Outcome, Runner, DEFAULT_SHRINK_BUDGET};

/// One self-contained fault campaign: a seeded plan mixing scheduled
/// link-flap + credit-stall events with background drop/corrupt/irq-lost
/// rates, driven through the resilient bring-up + monitoring workflow.
/// Returns a rendered transcript (driver report, ack order) for
/// byte-exact comparison.
fn fault_campaign(seed: u64) -> String {
    use harmonia::cmd::{CommandCode, UnifiedControlKernel};
    use harmonia::host::{CommandDriver, DmaEngine, DriverError};
    use harmonia::hw::device::catalog;
    use harmonia::hw::ip::PcieDmaIp;
    use harmonia::hw::Vendor;
    use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
    use harmonia::sim::{FaultKind, FaultPlan, FaultRates};

    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("campaign")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build();
    let mut shell = TailoredShell::tailor(&unified, &role).unwrap();
    let mut kernel = UnifiedControlKernel::new(64);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
    let (gen, lanes) = dev.pcie().unwrap();
    let mut drv = CommandDriver::new(
        DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes)),
        kernel,
    );
    let plan = FaultPlan::new()
        .at(0, FaultKind::LinkDown)
        .at(30_000_000, FaultKind::LinkUp)
        .at(50_000_000, FaultKind::PcieCreditStall { beats: 1_000 })
        .with_rates(
            seed,
            FaultRates {
                cmd_drop: 0.05,
                cmd_corrupt: 0.05,
                irq_lost: 0.05,
                ecc: 0.0,
            },
        );
    drv.set_fault_injector(plan.injector());
    drv.init_shell_resilient(&mut shell).unwrap();
    for _ in 0..16 {
        match drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new()) {
            Ok(_) | Err(DriverError::GaveUp { .. }) => {}
            Err(e) => panic!("campaign must converge, got {e}"),
        }
    }
    let _ = drv.read_all_stats_resilient(&shell).unwrap();
    assert!(drv.report().converged(), "seed {seed}: {}", drv.report());
    format!("seed={seed} {} acked={:?}", drv.report(), drv.acked_log())
}

/// All eight seeded campaigns, one transcript per line.
fn fault_campaigns() -> String {
    (0u64..8).map(fault_campaign).collect::<Vec<_>>().join("\n")
}

/// The same seeded fault plans produce byte-identical driver reports on
/// every run.
#[test]
fn fault_campaign_reports_are_reproducible() {
    assert_eq!(fault_campaigns(), fault_campaigns());
}

/// The campaigns actually exercised the fault plane, not a degenerate
/// no-op: the scheduled link-down alone forces retries on the first
/// bring-up command.
#[test]
fn fault_campaign_reports_exercise_the_fault_plane() {
    let transcript = fault_campaigns();
    assert_eq!(transcript.lines().count(), 8, "one transcript per seed");
    assert!(transcript.contains("retries="), "{transcript}");
    assert!(
        !transcript.contains("retries=0 timeouts=0 nacks=0 gave-up=0"),
        "no campaign observed any fault:\n{transcript}"
    );
}

/// A property that fails on a slice of the input space: every run must
/// stop on the same failing seed, minimal counterexample, and shrink tape.
#[test]
fn forall_failure_reproduces_identically() {
    let outcome = || {
        let runner = Runner::new("equivalence_probe").with_config(Config {
            cases: 64,
            seed: 0xDEC0DE,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            persist: false,
        });
        let outcome = runner.run(
            |src| src.draw_below(10_001),
            |&v| {
                if v >= 7_000 {
                    Err(harmonia_testkit::runner::CaseError::fail("too large"))
                } else {
                    Ok(())
                }
            },
        );
        match outcome {
            Outcome::Failed {
                minimal,
                tape,
                seed,
                error,
                ..
            } => (minimal, tape, seed, error),
            Outcome::Passed { .. } => panic!("probe property must fail"),
        }
    };
    let first = outcome();
    assert_eq!(first, outcome());
    assert_eq!(first.0, 7_000, "shrinker should reach the boundary");
}
