//! The observed fault campaign behind `harmonia trace` and `harmonia metrics`,
//! their equivalence tests and the committed `SLO_report.txt`.
//!
//! Runs a fleet of seeded fault campaigns — resilient shell bring-up plus
//! health polls and a monitoring sweep under a scheduled link flap, a
//! credit stall and background drop/corrupt/irq-lost rates — once each,
//! with one [`Probe`] that carries both observability planes: a
//! [`TraceCollector`] on the campaign's own lane and its own
//! [`MetricsRegistry`], while the scenario counts the scrapes a 10 µs
//! period would take on the simulated timeline. The lanes' traces and
//! registries merge in seed order, and the merged snapshot feeds the SLO
//! evaluator. Everything is simulated and merge order is pinned, so
//! every export is byte-identical on every run.

use harmonia::cmd::{CommandCode, UnifiedControlKernel};
use harmonia::host::{CommandDriver, DmaEngine, DriverError};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::Vendor;
use harmonia::shell::{MemoryDemand, RoleSpec, TailoredShell, UnifiedShell};
use harmonia::sim::metrics::scrapes;
use harmonia::sim::{
    evaluate_slos, FaultKind, FaultPlan, FaultRates, LogHistogram, MetricsRegistry,
    MetricsSnapshot, Picos, Probe, Slo, SloObjective, SloReport, Trace, TraceCollector,
};

/// Scrape period on the simulated clock: 10 µs.
const DEFAULT_METRICS_PERIOD_PS: Picos = 10_000_000;

/// Everything one capture produces: the merged timeline, histogram and
/// registry snapshot, one report per scenario, and both SLO evaluations.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Merged, deterministically ordered timeline across all scenarios.
    pub trace: Trace,
    /// Command-latency histogram summed over every scenario's driver.
    pub histogram: LogHistogram,
    /// Counters/gauges/histograms merged across every scenario's lane.
    pub snapshot: MetricsSnapshot,
    /// `seed=N <driver report>` transcript lines, in seed order.
    pub reports: Vec<String>,
    /// Scrapes each scenario took, in seed order.
    pub samples: Vec<usize>,
    /// The production objectives (`slos`) — sized to pass under the
    /// fault campaign.
    pub slo: SloReport,
    /// The aspirational objectives (`strict_slos`) — deliberately
    /// tighter than a faulted fleet can meet, so the report always
    /// carries worked FAIL lines too.
    pub strict_slo: SloReport,
}

/// Production service-level objectives for the fault-campaign fleet.
pub(crate) fn slos() -> Vec<Slo> {
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
pub(crate) fn strict_slos() -> Vec<Slo> {
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

/// Captures `scenarios` seeded fault campaigns onto one merged timeline
/// and into one merged snapshot.
///
/// Each seed drives an independent campaign on its own trace lane and
/// registry, and the lanes merge in seed order.
pub fn capture(scenarios: u64) -> CampaignRun {
    let mut traces = Vec::new();
    let mut snapshots = Vec::new();
    let mut histogram = LogHistogram::new();
    let mut reports = Vec::new();
    let mut samples = Vec::new();
    for seed in 0..scenarios {
        let probe = Probe {
            trace: TraceCollector::with_lane(seed as u32),
            metrics: MetricsRegistry::enabled(),
            ..Probe::disabled()
        };
        let (histo, report, sampled) = scenario(seed, &probe);
        traces.push(probe.trace.take());
        snapshots.push(probe.metrics.snapshot());
        histogram.merge(&histo);
        reports.push(report);
        samples.push(sampled);
    }
    let snapshot = MetricsSnapshot::merge(snapshots);
    let slo = evaluate_slos(&snapshot, &slos());
    let strict_slo = evaluate_slos(&snapshot, &strict_slos());
    CampaignRun {
        trace: Trace::merge(traces),
        histogram,
        snapshot,
        reports,
        samples,
        slo,
        strict_slo,
    }
}

/// Renders the committed `SLO_report.txt` body: the per-seed transcript,
/// then the production (pass) and aspirational (fail) evaluations.
pub fn render_slo_artifact(run: &CampaignRun) -> String {
    let mut out = String::from("harmonia SLO report — seeded fault-campaign fleet\n\n");
    for (report, samples) in run.reports.iter().zip(&run.samples) {
        out.push_str(&format!("{report} samples={samples}\n"));
    }
    out.push_str("\nproduction objectives:\n");
    out.push_str(&run.slo.render());
    out.push_str("\naspirational objectives:\n");
    out.push_str(&run.strict_slo.render());
    out
}

/// One seeded campaign: bring up a tailored shell resiliently under the
/// fault plan, then poke health and sweep all module statistics.
/// Returns the driver's latency histogram, its `seed=N <driver report>`
/// line and the number of scrapes a 10 µs period takes along the
/// simulated timeline.
fn scenario(seed: u64, probe: &Probe) -> (LogHistogram, String, usize) {
    let dev = catalog::device_a();
    let unified = UnifiedShell::for_device(&dev);
    let role = RoleSpec::builder("observed-campaign")
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
    drv.set_probe(probe.clone());
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
    let mut clocks = vec![drv.clock_ps()];
    for _ in 0..8 {
        match drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new()) {
            Ok(_) | Err(DriverError::GaveUp { .. }) => {}
            Err(e) => panic!("campaign must converge, got {e}"),
        }
        clocks.push(drv.clock_ps());
    }
    let _ = drv
        .read_all_stats_resilient(&shell)
        .expect("monitoring sweep succeeds");
    clocks.push(drv.clock_ps());
    (
        drv.latency_histogram().clone(),
        format!("seed={seed} {}", drv.report()),
        scrapes(&clocks, DEFAULT_METRICS_PERIOD_PS),
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

    #[test]
    fn post_mortem_names_the_command_and_its_retries() {
        let (err, dump) = post_mortem_campaign();
        assert!(matches!(err, DriverError::GaveUp { .. }));
        assert!(dump.starts_with("post-mortem: gave up on cmd"));
        assert!(dump.contains("cmd-retry"), "retry spans missing:\n{dump}");
        assert!(dump.contains("cmd-timeout"), "timeouts missing:\n{dump}");
    }
}
