//! The simulation engine's determinism contract, end to end: every paper
//! artifact, trace export and fault-campaign transcript must render
//! byte-identically at any worker-pool width.
//!
//! The simulator has a single engine, the cycle-stepped `MultiClock`
//! (pinned to `paper_output.txt` by `paper_snapshot`), so the matrix
//! below has one engine point and walks the pool widths {1, 2, 4},
//! asserting byte equality of everything the repo publishes.

use harmonia::sim::exec::THREADS_ENV;
use std::sync::Mutex;

/// Env mutations are process-global; serialize the tests that flip
/// `HARMONIA_THREADS` so cargo's parallel test runner can't interleave
/// them.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the pool width pinned, restoring the prior value after.
fn with_threads<R>(threads: &str, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap();
    let prior = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, threads);
    let out = f();
    match prior {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

/// The comparison matrix: serial, narrow and wide pool widths. The first
/// entry is the reference everything else must match.
const WIDTHS: [&str; 3] = ["1", "2", "4"];

/// Renders `f` at every matrix point and asserts all outputs are
/// byte-identical, returning the common value.
fn assert_matrix_identical<R: PartialEq + std::fmt::Debug>(
    what: &str,
    f: impl Fn() -> R,
) -> R {
    let reference = with_threads(WIDTHS[0], &f);
    for threads in &WIDTHS[1..] {
        let got = with_threads(threads, &f);
        assert_eq!(reference, got, "{what} diverged at threads={threads}");
    }
    reference
}

/// The full paper regeneration — every figure and table — is
/// byte-identical across the pool-width matrix *and* equal to the
/// committed `paper_output.txt` snapshot, so the worker-pool knob can
/// never move a digit of the evaluation.
#[test]
fn paper_tables_byte_identical_across_engines_and_threads() {
    let rendered = assert_matrix_identical("paper tables", || {
        harmonia_bench::all_tables()
            .iter()
            .map(|t| format!("{t}\n"))
            .collect::<String>()
    });
    let committed = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../paper_output.txt"
    ));
    assert_eq!(
        rendered, committed,
        "matrix output drifted from the committed snapshot"
    );
}

/// The observability plane exports byte-identically at every pool width:
/// Perfetto JSON, text timeline, merged latency histogram and the driver
/// report transcript all survive the matrix untouched.
#[test]
fn trace_exports_byte_identical_across_engines_and_threads() {
    let (perfetto, text, _histogram, reports) =
        assert_matrix_identical("trace capture", || {
            let run = harmonia_bench::trace_run::capture(4);
            (
                run.trace.export_perfetto(),
                run.trace.export_text(),
                run.histogram.clone(),
                run.reports.join("\n"),
            )
        });
    // The capture is non-trivial: lanes traced, faults visible,
    // well-formed export.
    assert!(text.contains("cmd-retry"), "link flap must force retries");
    assert!(perfetto.starts_with('{') && perfetto.trim_end().ends_with('}'));
    assert_eq!(reports.lines().count(), 4, "one report per scenario");
}

/// One self-contained fault campaign: a seeded plan mixing scheduled
/// link-flap + credit-stall events with background drop/corrupt/irq-lost
/// rates, driven through the resilient bring-up + monitoring workflow.
/// Returns a rendered transcript for byte-exact comparison.
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
    let role = RoleSpec::builder("engine-campaign")
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

/// Seeded fault-campaign reports are byte-identical across the pool-width
/// matrix: the fault plane consults in the same order at any width.
#[test]
fn fault_campaign_reports_byte_identical_across_engines_and_threads() {
    let transcript = assert_matrix_identical("fault campaigns", || {
        harmonia::sim::exec::par_map(0u64..8, fault_campaign).join("\n")
    });
    assert_eq!(transcript.lines().count(), 8, "one transcript per seed");
    // The campaigns exercised the fault plane, not a degenerate no-op.
    assert!(transcript.contains("retries="), "{transcript}");
    assert!(
        !transcript.contains("retries=0 timeouts=0 nacks=0 gave-up=0"),
        "no campaign observed any fault:\n{transcript}"
    );
}
