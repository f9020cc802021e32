//! Shared capture harness for the observability plane (`trace` binary,
//! `trace_capture` example, equivalence tests).
//!
//! Runs a fleet of seeded fault campaigns — resilient shell bring-up plus
//! a monitoring sweep under a scheduled link flap, a credit stall and
//! background drop/corrupt/irq-lost rates — through
//! [`trace_lanes`], so every campaign records onto its own lane and the
//! merged timeline is byte-identical on every run.

use harmonia::cmd::{CommandCode, UnifiedControlKernel};
use harmonia::host::{CommandDriver, DmaEngine, DriverError};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::Vendor;
use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
use harmonia::sim::{
    trace_lanes, FaultKind, FaultPlan, FaultRates, LogHistogram, Probe, Trace, TraceCollector,
};

/// Everything one capture produces: the merged timeline, the merged
/// command-latency histogram, and one driver-report line per scenario.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// Merged, deterministically ordered timeline across all scenarios.
    pub trace: Trace,
    /// Command-latency histogram summed over every scenario's driver.
    pub histogram: LogHistogram,
    /// `seed=N <driver report>` transcript lines, in seed order.
    pub reports: Vec<String>,
}

/// Captures `scenarios` seeded fault campaigns onto one merged timeline.
///
/// Each seed drives an independent campaign on its own trace lane, and
/// the lanes merge in seed order.
pub fn capture(scenarios: u64) -> TraceRun {
    let seeds: Vec<u64> = (0..scenarios).collect();
    let (outcomes, trace) = trace_lanes(seeds, |&seed, tc| scenario(seed, tc));
    let mut histogram = LogHistogram::new();
    let mut reports = Vec::new();
    for (histo, report) in outcomes {
        histogram.merge(&histo);
        reports.push(report);
    }
    TraceRun {
        trace,
        histogram,
        reports,
    }
}

/// One seeded campaign: bring up a tailored shell resiliently under the
/// fault plan, then poke health and sweep all module statistics. Returns
/// the driver's latency histogram and a one-line report.
fn scenario(seed: u64, tc: &TraceCollector) -> (LogHistogram, String) {
    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("trace-campaign")
        .network_gbps(100)
        .network_ports(1)
        .memory(MemoryDemand::Ddr { channels: 1 })
        .build();
    let mut shell = TailoredShell::tailor(&unified, &role).expect("role fits device A");
    let mut kernel = UnifiedControlKernel::new(64);
    kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
    let (gen, lanes) = dev.pcie().expect("device A has PCIe");
    let mut drv = CommandDriver::new(
        DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes)),
        kernel,
    );
    drv.set_probe(Probe {
        trace: tc.clone(),
        ..Probe::disabled()
    });
    drv.set_fault_injector(
        FaultPlan::new()
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
            )
            .injector(),
    );
    drv.init_shell_resilient(&mut shell)
        .expect("bring-up converges under the plan");
    for _ in 0..8 {
        match drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new()) {
            Ok(_) | Err(DriverError::GaveUp { .. }) => {}
            Err(e) => panic!("campaign must converge, got {e}"),
        }
    }
    let _ = drv
        .read_all_stats_resilient(&shell)
        .expect("monitoring sweep succeeds");
    (
        drv.latency_histogram().clone(),
        format!("seed={seed} {}", drv.report()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_merges_lanes_and_histograms() {
        let run = capture(3);
        assert_eq!(run.reports.len(), 3);
        assert!(!run.trace.is_empty());
        assert!(run.histogram.count() > 0);
        // All three lanes contribute events.
        for lane in 0..3 {
            assert!(
                run.trace.events().iter().any(|e| e.lane == lane),
                "lane {lane} recorded nothing"
            );
        }
        // The fault plan leaves its signature on the timeline.
        let text = run.trace.export_text();
        assert!(text.contains("cmd-retry"), "link flap must force retries");
        assert!(text.contains("cmd-ack"));
    }
}
