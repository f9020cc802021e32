//! The four workloads. Each op is one closed-loop call into the product,
//! returning a fingerprint of its output or the invariant it broke.
//!
//! Why these four (see README.md): `paper_sweep` is the headline run and
//! the only one that reaches the cycle-level models; `fleet_day` drives
//! the fleet control plane with no per-cycle simulation; `cmd_batched`
//! and `cmd_serial` push the same faulty command stream through the
//! command path two ways (batched and observed, serial and unobserved), so
//! a gain on one path that costs the other shows up.

use crate::trace::Tracer;
use harmonia::cmd::{CommandCode, UnifiedControlKernel};
use harmonia::fleet::{CampaignReport, FleetController, FleetSpec, PlacementPolicy};
use harmonia::host::batch::{CmdResult, CmdSpec};
use harmonia::host::{BatchedCommandDriver, CommandDriver, DmaEngine, DriverReport, RetryPolicy};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::Vendor;
use harmonia::sim::{
    FaultInjector, FaultPlan, FaultRates, FlightRecorder, MetricsRegistry, TraceCollector,
};
use std::path::PathBuf;

/// Seed the committed references were recorded at.
pub const DEFAULT_SEED: u64 = 7;

/// Workload names, in the order a full run takes them.
pub const NAMES: [&str; 4] = ["paper_sweep", "fleet_day", "cmd_batched", "cmd_serial"];

/// Devices in the fleet campaign.
pub const FLEET_DEVICES: usize = 256;

/// Health reads per command-path campaign.
pub const CMD_COUNT: usize = 4096;

/// Distinct fault plans the command-path ops rotate through (op `i` uses
/// plan seed `seed + i % CMD_FAULT_PLANS`).
pub const CMD_FAULT_PLANS: usize = 8;

/// SQ/CQ ring and kernel buffer depth of the command path.
pub const CMD_DEPTH: usize = 64;

/// Commands per doorbell on the batched path.
pub const CMD_BATCH: usize = 16;

/// One workload: ops that map a variant index to an output fingerprint.
pub trait Workload {
    /// Distinct outputs the ops cycle through for one seed.
    fn variants(&self) -> usize {
        1
    }

    /// Runs one op. `Err` names the invariant the output broke.
    fn op(&mut self, variant: usize, t: &mut Tracer) -> Result<u64, String>;
}

/// Builds a workload, loading its fixtures.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_sweep" => Box::new(PaperSweep::load()?),
        "fleet_day" => Box::new(FleetDay { seed }),
        "cmd_batched" => Box::new(CmdCampaign {
            seed,
            batched: true,
        }),
        "cmd_serial" => Box::new(CmdCampaign {
            seed,
            batched: false,
        }),
        _ => {
            return Err(format!(
                "unknown workload {name:?} (expected one of {NAMES:?})"
            ))
        }
    })
}

/// The committed reference for `name`, if the workload has one.
/// `paper_sweep` has none: its reference is the root `paper_output.txt`.
pub fn reference_path(name: &str) -> Option<PathBuf> {
    (name != "paper_sweep").then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{name}.txt"))
    })
}

/// Parses a reference file: one `<variant> <hex fingerprint>` line per
/// variant, `#` comments allowed.
pub fn parse_reference(text: &str, variants: usize) -> Result<Vec<u64>, String> {
    let mut out = vec![None; variants];
    for line in text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let parsed = line.split_once(' ').and_then(|(v, fp)| {
            Some((
                v.parse::<usize>().ok()?,
                u64::from_str_radix(fp.trim(), 16).ok()?,
            ))
        });
        match parsed {
            Some((v, fp)) if v < variants => out[v] = Some(fp),
            _ => return Err(format!("bad reference line {line:?}")),
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(v, fp)| fp.ok_or(format!("reference has no variant {v}")))
        .collect()
}

/// Renders a reference file for `name`.
pub fn render_reference(name: &str, fingerprints: &[u64]) -> String {
    let mut out = format!(
        "# {name}: FNV-1a 64 fingerprint of each op variant's output at seed {DEFAULT_SEED}.\n\
         # Rewrite with `benchmark/run.sh --record`.\n"
    );
    for (v, fp) in fingerprints.iter().enumerate() {
        out.push_str(&format!("{v} {fp:016x}\n"));
    }
    out
}

/// FNV-1a, 64-bit.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// `harmonia_bench::all_tables()`, rendered as `--bin paper` prints it and
/// byte-compared with the committed `paper_output.txt`.
struct PaperSweep {
    expected: Vec<u8>,
}

impl PaperSweep {
    fn load() -> Result<PaperSweep, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../paper_output.txt");
        let expected = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        Ok(PaperSweep { expected })
    }
}

impl Workload for PaperSweep {
    fn op(&mut self, _variant: usize, t: &mut Tracer) -> Result<u64, String> {
        let tables = t.span("bench.all_tables", |_| harmonia_bench::all_tables());
        let text = t.span("bench.render", |_| {
            harmonia::sim::exec::par_sweep(&tables, |t| format!("{t}\n")).concat()
        });
        if text.as_bytes() != self.expected.as_slice() {
            return Err("rendered tables differ from paper_output.txt".into());
        }
        let mut h = Fnv::new();
        h.write(text.as_bytes());
        Ok(h.finish())
    }
}

/// A best-fit day over 256 devices with a peak-hour kill and a rolling
/// upgrade, exported as `--bin fleet` does.
struct FleetDay {
    seed: u64,
}

/// The fleet op up to its exports: the campaign report and its
/// Prometheus text.
pub fn fleet_campaign(seed: u64, t: &mut Tracer) -> Result<(CampaignReport, String), String> {
    let spec = FleetSpec::new(FLEET_DEVICES, seed, PlacementPolicy::BestFit);
    let mut fleet = t
        .span("fleet.controller.new", |_| FleetController::new(spec))
        .map_err(|e| e.to_string())?;
    let victim = fleet
        .assignments()
        .first()
        .ok_or("placement assigned no device")?
        .device;
    fleet.kill_device(victim, harmonia_bench::fleet::KILL_TICK);
    fleet.schedule_upgrade(100, 2, 16);
    let report = t.span("fleet.controller.run", |_| fleet.run());
    let registry = MetricsRegistry::enabled();
    t.span("fleet.report.publish_metrics", |_| {
        report.publish_metrics(&registry)
    });
    let prom = t.span("sim.metrics.export_prometheus", |_| {
        registry.snapshot().export_prometheus()
    });
    Ok((report, prom))
}

impl Workload for FleetDay {
    fn op(&mut self, _variant: usize, t: &mut Tracer) -> Result<u64, String> {
        let (report, prom) = fleet_campaign(self.seed, t)?;
        let acc = report.accounting;
        if !acc.exact() || acc.pending != 0 {
            return Err(format!("fleet books do not balance: {acc:?}"));
        }
        let text = t.span("fleet.report.render", |_| report.render());
        let mut h = Fnv::new();
        h.write(text.as_bytes());
        h.write(prom.as_bytes());
        Ok(h.finish())
    }
}

/// 4096 health reads under seeded drop/corrupt/irq-lost faults.
struct CmdCampaign {
    seed: u64,
    batched: bool,
}

/// The observability handles a campaign records into.
pub struct Observers {
    pub metrics: MetricsRegistry,
    pub trace: TraceCollector,
    pub flight: FlightRecorder,
}

impl Observers {
    pub fn enabled() -> Observers {
        Observers {
            metrics: MetricsRegistry::enabled(),
            trace: TraceCollector::enabled(),
            flight: FlightRecorder::enabled(),
        }
    }

    pub fn disabled() -> Observers {
        Observers {
            metrics: MetricsRegistry::disabled(),
            trace: TraceCollector::disabled(),
            flight: FlightRecorder::disabled(),
        }
    }
}

/// The fault plan of command-path variant `variant`: 2 % drop, corrupt
/// and irq-lost rates.
pub fn cmd_faults(seed: u64, variant: usize) -> FaultInjector {
    let rates = FaultRates {
        cmd_drop: 0.02,
        cmd_corrupt: 0.02,
        irq_lost: 0.02,
        ecc: 0.0,
    };
    FaultPlan::new()
        .with_rates(seed.wrapping_add(variant as u64), rates)
        .injector()
}

/// The default deadline and backoff with a deeper retry budget: an attempt
/// fails about 6 % of the time, so the default four retries would give up
/// on about one command in a million, and some seeds would then fail the
/// every-command-acked check.
pub fn cmd_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 8,
        ..RetryPolicy::default()
    }
}

/// Device A's PCIe DMA engine.
pub fn dma_engine() -> DmaEngine {
    let (gen, lanes) = catalog::device_a().pcie().expect("device A has PCIe");
    DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes))
}

/// The command stream: [`CMD_COUNT`] device-level health reads.
pub fn health_reads() -> Vec<CmdSpec> {
    (0..CMD_COUNT)
        .map(|_| (0u8, 0u8, CommandCode::HealthRead, Vec::new()))
        .collect()
}

/// One batched campaign (16 per doorbell, depth 64) recording into `obs`.
pub fn batched_campaign(
    seed: u64,
    variant: usize,
    obs: &Observers,
    t: &mut Tracer,
) -> Result<u64, String> {
    let mut drv = BatchedCommandDriver::with_depth(
        dma_engine(),
        UnifiedControlKernel::new(CMD_DEPTH),
        CMD_BATCH,
        CMD_DEPTH,
    );
    drv.set_policy(cmd_policy());
    drv.set_fault_injector(cmd_faults(seed, variant));
    drv.set_metrics_registry(obs.metrics.clone());
    drv.set_trace_collector(obs.trace.clone());
    drv.set_flight_recorder(obs.flight.clone());
    let results = t.span("host.batch.submit", |_| drv.submit(health_reads()));
    check_campaign(drv.report(), &results, drv.acked_log())?;
    Ok(campaign_fingerprint(
        drv.report(),
        drv.clock_ps(),
        drv.acked_log(),
    ))
}

/// The same stream one command per doorbell through `cmd_raw_resilient`,
/// every observability handle disabled.
pub fn serial_campaign(seed: u64, variant: usize, t: &mut Tracer) -> Result<u64, String> {
    let mut drv = CommandDriver::new(dma_engine(), UnifiedControlKernel::new(CMD_DEPTH));
    let off = Observers::disabled();
    drv.set_metrics_registry(off.metrics);
    drv.set_trace_collector(off.trace);
    drv.set_flight_recorder(off.flight);
    drv.set_policy(cmd_policy());
    drv.set_fault_injector(cmd_faults(seed, variant));
    let results: Vec<CmdResult> = t.span("host.cmd_driver.cmd_raw_resilient", |_| {
        health_reads()
            .into_iter()
            .map(|(rbb, inst, code, data)| drv.cmd_raw_resilient(rbb, inst, code, data))
            .collect()
    });
    check_campaign(drv.report(), &results, drv.acked_log())?;
    Ok(campaign_fingerprint(
        drv.report(),
        drv.clock_ps(),
        drv.acked_log(),
    ))
}

fn check_campaign(
    report: &DriverReport,
    results: &[CmdResult],
    acked: &[u32],
) -> Result<(), String> {
    let n = CMD_COUNT as u64;
    let all_ok = results.len() == CMD_COUNT && results.iter().all(Result::is_ok);
    if !all_ok || report.issued != n || report.acked != n || acked.len() != CMD_COUNT {
        return Err(format!("not every command was acked: {report}"));
    }
    Ok(())
}

fn campaign_fingerprint(report: &DriverReport, clock_ps: u64, acked: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{report:?} clock_ps={clock_ps}").as_bytes());
    for tag in acked {
        h.write(&tag.to_le_bytes());
    }
    h.finish()
}

impl Workload for CmdCampaign {
    fn variants(&self) -> usize {
        CMD_FAULT_PLANS
    }

    fn op(&mut self, variant: usize, t: &mut Tracer) -> Result<u64, String> {
        if self.batched {
            batched_campaign(self.seed, variant, &Observers::enabled(), t)
        } else {
            serial_campaign(self.seed, variant, t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips_and_rejects_garbage() {
        let fps = [0x0123_4567_89ab_cdef, 7, u64::MAX];
        let text = render_reference("x", &fps);
        assert_eq!(parse_reference(&text, 3), Ok(fps.to_vec()));
        assert!(parse_reference(&text, 2).is_err(), "variant out of range");
        assert!(parse_reference("0 12\n", 2).is_err(), "missing variant");
        assert!(parse_reference("0 xyz\n", 1).is_err());
    }

    #[test]
    fn fnv_matches_known_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(build("nope", 7).is_err());
    }
}
