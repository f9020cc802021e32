//! Shared capture harness for the metrics plane (`metrics` binary,
//! equivalence tests, the committed `SLO_report.txt`).
//!
//! Runs the same seeded fault-campaign fleet as [`crate::trace_run`] —
//! resilient shell bring-up plus health polls and a monitoring sweep
//! under a scheduled link flap, a credit stall and background
//! drop/corrupt/irq-lost rates — but wired into the metrics plane:
//! every campaign fills its own [`MetricsRegistry`] through
//! [`meter_lanes`], a [`MetricsScraper`] samples each campaign on the
//! simulated timeline, and the merged snapshot feeds the SLO evaluator.
//! Everything is simulated and merge order is pinned, so the exports are
//! byte-identical on every run.

use harmonia::cmd::{CommandCode, UnifiedControlKernel};
use harmonia::host::{CommandDriver, DmaEngine, DriverError};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::Vendor;
use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
use harmonia::sim::metrics::DEFAULT_METRICS_PERIOD_PS;
use harmonia::sim::{
    evaluate_slos, meter_lanes, FaultKind, FaultPlan, FaultRates, MetricsRegistry, MetricsScraper,
    MetricsSnapshot, Probe, Slo, SloObjective, SloReport,
};

/// Everything one capture produces: the merged registry snapshot, one
/// report line per scenario, and both SLO evaluations.
#[derive(Clone, Debug)]
pub struct MetricsRun {
    /// Counters/gauges/histograms merged across every scenario's lane.
    pub snapshot: MetricsSnapshot,
    /// `seed=N <driver report> samples=K` transcript lines, in seed order.
    pub reports: Vec<String>,
    /// The production objectives ([`slos`]) — sized to pass under the
    /// fault campaign.
    pub slo: SloReport,
    /// The aspirational objectives ([`strict_slos`]) — deliberately
    /// tighter than a faulted fleet can meet, so the report always
    /// carries worked FAIL lines too.
    pub strict_slo: SloReport,
}

/// Production service-level objectives for the fault-campaign fleet.
pub fn slos() -> Vec<Slo> {
    vec![
        Slo {
            name: "cmd-latency-p99",
            objective: SloObjective::PercentileMaxPs {
                histogram: "harmonia_cmd_latency_ps",
                percentile: 99.0,
                max_ps: 100_000_000, // 100 µs: room for one full backoff ladder
            },
        },
        Slo {
            name: "replay-ratio",
            objective: SloObjective::RatioMaxPpm {
                numerator: "harmonia_kernel_replays_total",
                denominator: "harmonia_cmd_issued_total",
                max_ppm: 500_000, // half the attempts may be replays
            },
        },
        Slo {
            name: "give-up-ratio",
            objective: SloObjective::RatioMaxPpm {
                numerator: "harmonia_cmd_gave_up_total",
                denominator: "harmonia_cmd_issued_total",
                max_ppm: 100_000, // at most 10% of commands may be abandoned
            },
        },
    ]
}

/// Aspirational objectives: what a fault-free fleet would meet. The
/// committed report keeps these as the worked FAIL example.
pub fn strict_slos() -> Vec<Slo> {
    vec![
        Slo {
            name: "cmd-latency-p99-tight",
            objective: SloObjective::PercentileMaxPs {
                histogram: "harmonia_cmd_latency_ps",
                percentile: 99.0,
                max_ps: 1_000_000, // 1 µs: no retry fits
            },
        },
        Slo {
            name: "replay-ratio-tight",
            objective: SloObjective::RatioMaxPpm {
                numerator: "harmonia_kernel_replays_total",
                denominator: "harmonia_cmd_issued_total",
                max_ppm: 1_000,
            },
        },
    ]
}

/// Captures `scenarios` seeded fault campaigns into one merged snapshot.
///
/// Each seed drives an independent campaign on its own registry lane,
/// and the lanes merge in seed order.
pub fn capture(scenarios: u64) -> MetricsRun {
    let seeds: Vec<u64> = (0..scenarios).collect();
    let (reports, snapshot) = meter_lanes(seeds, |&seed, reg| scenario(seed, reg));
    let slo = evaluate_slos(&snapshot, &slos());
    let strict_slo = evaluate_slos(&snapshot, &strict_slos());
    MetricsRun {
        snapshot,
        reports,
        slo,
        strict_slo,
    }
}

/// Renders the committed `SLO_report.txt` body: the per-seed transcript,
/// then the production (pass) and aspirational (fail) evaluations.
pub fn render_slo_artifact(run: &MetricsRun) -> String {
    let mut out = String::from("harmonia SLO report — seeded fault-campaign fleet\n\n");
    for line in &run.reports {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("\nproduction objectives:\n");
    out.push_str(&run.slo.render());
    out.push_str("\naspirational objectives:\n");
    out.push_str(&run.strict_slo.render());
    out
}

/// One seeded campaign: bring up a tailored shell resiliently under the
/// fault plan, then poke health and sweep all module statistics, with a
/// scraper sampling the registry along the simulated timeline. Returns
/// the one-line report.
fn scenario(seed: u64, reg: &MetricsRegistry) -> String {
    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("metrics-campaign")
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
        metrics: reg.clone(),
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
    let mut scraper = MetricsScraper::new(DEFAULT_METRICS_PERIOD_PS);
    drv.init_shell_resilient(&mut shell)
        .expect("bring-up converges under the plan");
    scraper.tick(reg, drv.clock_ps());
    for _ in 0..8 {
        match drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new()) {
            Ok(_) | Err(DriverError::GaveUp { .. }) => {}
            Err(e) => panic!("campaign must converge, got {e}"),
        }
        scraper.tick(reg, drv.clock_ps());
    }
    let _ = drv
        .read_all_stats_resilient(&shell)
        .expect("monitoring sweep succeeds");
    scraper.tick(reg, drv.clock_ps());
    format!(
        "seed={seed} {} samples={}",
        drv.report(),
        scraper.samples().len()
    )
}

/// A campaign that cannot converge: the link goes down and never comes
/// back, so the driver burns its retry budget and gives up. Returns the
/// terminal error and the flight-recorder post-mortem it triggered —
/// the dump the acceptance tests grep for retry spans.
pub fn post_mortem_campaign() -> (DriverError, String) {
    let dev = catalog::device_a();
    let kernel = UnifiedControlKernel::new(64);
    let (gen, lanes) = dev.pcie().expect("device A has PCIe");
    let mut drv = CommandDriver::new(
        DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes)),
        kernel,
    );
    drv.set_probe(Probe::enabled());
    drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::LinkDown).injector());
    let err = drv
        .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
        .expect_err("a permanently down link must exhaust the retry budget");
    let dump = drv
        .last_post_mortem()
        .expect("giving up with the recorder attached composes a post-mortem")
        .to_string();
    (err, dump)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_merges_lanes_and_evaluates_slos() {
        let run = capture(3);
        assert_eq!(run.reports.len(), 3);
        assert!(!run.snapshot.is_empty());
        assert!(run.snapshot.counter("harmonia_cmd_issued_total") > 0);
        assert!(
            run.snapshot.counter("harmonia_cmd_retries_total") > 0,
            "the link flap must force retries"
        );
        assert!(run.snapshot.histogram("harmonia_cmd_latency_ps").count() > 0);
        assert!(run.slo.pass(), "production objectives sized to pass");
        assert!(!run.strict_slo.pass(), "aspirational objectives must fail");
        let artifact = render_slo_artifact(&run);
        assert!(artifact.contains("PASS cmd-latency-p99"));
        assert!(artifact.contains("FAIL "));
    }

    #[test]
    fn post_mortem_names_the_command_and_its_retries() {
        let (err, dump) = post_mortem_campaign();
        assert!(matches!(err, DriverError::GaveUp { .. }));
        assert!(dump.starts_with("post-mortem: gave up on cmd"));
        assert!(dump.contains("cmd-retry"), "retry spans missing:\n{dump}");
        assert!(dump.contains("cmd-timeout"), "timeouts missing:\n{dump}");
    }
}
