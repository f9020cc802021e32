//! Capture a deterministic timeline of an L4-LB deployment under faults.
//!
//! Brings a tailored Layer-4 LB shell up through the resilient command
//! driver while a fault plan flaps the PCIe link, pushes a burst of frames
//! through the 100G MAC, then sweeps module statistics. The capture is
//! exported as Chrome/Perfetto trace-event JSON (load it at
//! <https://ui.perfetto.dev>) next to a plain-text timeline head and the
//! command-latency histogram.
//!
//! ```sh
//! cargo run --example trace_capture
//! ```

use harmonia::cmd::UnifiedControlKernel;
use harmonia::host::{CommandDriver, DmaEngine};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::{MacIp, PcieDmaIp};
use harmonia::hw::Vendor;
use harmonia::shell::{RoleSpec, TailoredShell, UnifiedShell};
use harmonia::sim::{FaultKind, FaultPlan, FaultRates, Probe};

fn main() {
    // Shell side: a 100G Layer-4 LB role tailored onto device A.
    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("l4lb")
        .network_gbps(100)
        .queues(64)
        .build();
    let mut shell = TailoredShell::tailor(&unified, &role).expect("role fits device A");
    let mut kernel = UnifiedControlKernel::new(64);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));

    // Host side: resilient driver with every probe plane on and a fault plan
    // that flaps the link mid-bring-up and drops a few percent of
    // commands.
    let (gen, lanes) = dev.pcie().expect("device A has PCIe");
    let mut driver = CommandDriver::new(
        DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes)),
        kernel,
    );
    let probe = Probe::enabled();
    driver.set_probe(probe.clone());
    let injector = FaultPlan::new()
        .at(0, FaultKind::LinkDown)
        .at(30_000_000, FaultKind::LinkUp)
        .with_rates(
            42,
            FaultRates {
                cmd_drop: 0.05,
                ..FaultRates::default()
            },
        )
        .injector();
    driver.set_fault_injector(injector.clone());
    driver
        .init_shell_resilient(&mut shell)
        .expect("bring-up converges under the plan");

    // Datapath: a burst of frames through the 100G MAC while the fault
    // plan is still live; lost frames land on the timeline too.
    let mac = MacIp::new(Vendor::Xilinx, 100);
    let mut now = driver.clock_ps();
    let mut carried = 0u32;
    for i in 0..32u32 {
        let bytes = if i % 3 == 0 { 1500 } else { 64 };
        if mac.rx_frame(bytes, now, &injector, &probe).is_some() {
            carried += 1;
        }
        now += 672_000; // ~1500 B at 100G wire pacing between arrivals
    }

    // Monitoring sweep: every module's statistics plus board health.
    let stats = driver
        .read_all_stats_resilient(&shell)
        .expect("monitoring sweep succeeds");

    let timeline = probe.trace.take();
    let perfetto = timeline.export_perfetto();
    let out = std::path::Path::new("target").join("trace_capture.json");
    if std::fs::write(&out, &perfetto).is_ok() {
        println!(
            "perfetto trace:     {} ({} bytes)",
            out.display(),
            perfetto.len()
        );
    }
    println!("driver report:      {}", driver.report());
    println!("mac frames carried: {carried}/32");
    println!("stats words read:   {}", stats.len());
    println!();
    println!("timeline head:");
    for line in timeline.export_text().lines().take(12) {
        println!("  {line}");
    }
    println!("  … {} events total", timeline.len());
    println!();
    println!("command latency (ps): {}", driver.latency_histogram());
    print!("{}", driver.latency_histogram().render());
}
