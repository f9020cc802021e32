//! The execution layer's determinism contract, end to end: every paper
//! artifact must render byte-identically whether the worker pool runs
//! serial or wide, and property failures must reproduce the same seed at
//! any thread count.

use harmonia::sim::exec::THREADS_ENV;
use harmonia_testkit::runner::{Config, Outcome, Runner, DEFAULT_SHRINK_BUDGET};
use std::sync::Mutex;

/// Env mutations are process-global; serialize the tests that flip
/// `HARMONIA_THREADS` so cargo's parallel test runner can't interleave
/// them.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap();
    let prior = std::env::var(THREADS_ENV).ok();
    match value {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    let out = f();
    match prior {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

fn rendered_at(threads: &str, table: impl Fn() -> harmonia::metrics::Table) -> String {
    with_threads(Some(threads), || table().to_string())
}

#[test]
fn fig10a_byte_identical_serial_vs_parallel() {
    let serial = rendered_at("1", harmonia_bench::fig10::fig10a);
    let parallel = rendered_at("4", harmonia_bench::fig10::fig10a);
    assert_eq!(serial, parallel);
}

#[test]
fn fig17d_byte_identical_serial_vs_parallel() {
    let serial = rendered_at("1", harmonia_bench::fig17::fig17d);
    let parallel = rendered_at("4", harmonia_bench::fig17::fig17d);
    assert_eq!(serial, parallel);
}

#[test]
fn fig18_byte_identical_serial_vs_parallel() {
    let render = || {
        harmonia_bench::fig18::generate()
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = with_threads(Some("1"), render);
    let parallel = with_threads(Some("4"), render);
    assert_eq!(serial, parallel);
}

/// The full paper regeneration is byte-identical at 1 and 4 threads, and
/// the 4-thread render equals the committed `paper_output.txt`.
#[test]
fn full_paper_output_byte_identical_serial_vs_parallel() {
    let render = || {
        harmonia_bench::all_tables()
            .iter()
            .map(|t| format!("{t}\n"))
            .collect::<String>()
    };
    let serial = with_threads(Some("1"), render);
    let parallel = with_threads(Some("4"), render);
    assert_eq!(serial, parallel);
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../paper_output.txt"
    ));
    assert_eq!(
        parallel, committed,
        "4-thread render drifted from the committed snapshot"
    );
}

/// One self-contained fault campaign: a seeded plan mixing scheduled
/// link-flap + credit-stall events with background drop/corrupt/irq-lost
/// rates, driven through the resilient bring-up + monitoring workflow.
/// Returns a rendered transcript (driver report, ack order, fault
/// counters) for byte-exact comparison.
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
    let inj = plan.injector();
    drv.set_fault_injector(inj.clone());
    drv.init_shell_resilient(&mut shell).unwrap();
    for _ in 0..16 {
        match drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new()) {
            Ok(_) | Err(DriverError::GaveUp { .. }) => {}
            Err(e) => panic!("campaign must converge, got {e}"),
        }
    }
    let _ = drv.read_all_stats_resilient(&shell).unwrap();
    assert!(drv.report().converged(), "seed {seed}: {}", drv.report());
    format!(
        "seed={seed} {} acked={:?} {}",
        drv.report(),
        drv.acked_log(),
        inj.report()
    )
}

/// The same seeded fault plans produce byte-identical driver reports no
/// matter how wide the worker pool runs the campaign fleet.
#[test]
fn fault_campaign_reports_byte_identical_serial_vs_parallel() {
    let run = || harmonia::sim::exec::par_map(0u64..8, fault_campaign).join("\n");
    let serial = with_threads(Some("1"), run);
    let parallel = with_threads(Some("4"), run);
    assert_eq!(serial, parallel);
    assert_eq!(serial.lines().count(), 8, "one transcript per seed");
    // The campaigns actually exercised the fault plane: the scheduled
    // link-down alone forces retries on the first bring-up command.
    assert!(serial.contains("retries="), "{serial}");
    assert!(
        !serial.contains("retries=0 timeouts=0 nacks=0 gave-up=0"),
        "no campaign observed any fault:\n{serial}"
    );
}

/// A property that fails on a slice of the input space, run at several
/// thread counts: each run must stop on the same failing seed, minimal
/// counterexample, and shrink tape (no env needed — `Config.threads`
/// drives the pool directly).
#[test]
fn forall_failure_reproduces_identically_at_any_thread_count() {
    let outcome_at = |threads: usize| {
        let runner = Runner::new("equivalence_probe").with_config(Config {
            cases: 64,
            seed: 0xDEC0DE,
            shrink_budget: DEFAULT_SHRINK_BUDGET,
            persist: false,
            threads,
        });
        let outcome = runner.run_parallel(
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
    let serial = outcome_at(1);
    for threads in [2, 4, 8] {
        assert_eq!(serial, outcome_at(threads), "divergence at {threads} threads");
    }
    assert_eq!(serial.0, 7_000, "shrinker should reach the boundary");
}
