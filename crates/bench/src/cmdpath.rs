//! The batched-command-path sweep behind `cargo bench --bench cmdpath`.
//!
//! Sweeps doorbell batch size × submission-queue depth over a fixed
//! stream of device health polls and reports *simulated* throughput:
//! commands per second of modeled time, derived from the driver clock.
//! Simulated metrics are deterministic — the committed
//! `BENCH_cmdpath.json` is byte-stable across machines, unlike the
//! wall-clock artifacts of the other bench groups — which is what lets
//! the `cmdpath_scaling` test pin the batch=16 ≥ 2× batch=1 speedup.

use harmonia::cmd::{CommandCode, UnifiedControlKernel};
use harmonia::host::{CommandDriver, DmaEngine};
use harmonia::hw::device::catalog;
use harmonia::hw::ip::PcieDmaIp;
use harmonia::hw::Vendor;
use harmonia::sim::MetricsRegistry;

/// Doorbell batch sizes the sweep covers (1 = the serial transport).
pub const BATCHES: [usize; 4] = [1, 4, 16, 64];

/// Submission-queue depths the sweep covers. A depth below the batch
/// size caps the effective batch at the ring capacity.
pub const DEPTHS: [usize; 3] = [16, 64, 256];

/// Health polls issued per sweep point.
pub const COMMANDS: usize = 256;

/// One measured (batch, depth) point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdpathPoint {
    /// Configured doorbell batch size.
    pub batch: usize,
    /// Configured SQ/CQ depth.
    pub depth: usize,
    /// Commands submitted (all must ack — the sweep runs faultless).
    pub commands: usize,
    /// Simulated time to drain the stream, ps.
    pub sim_ps: u64,
    /// Commands per second of simulated time.
    pub sim_cmds_per_sec: f64,
    /// DMA doorbells rung (one per command on the batch=1 serial
    /// transport), sourced from the `harmonia_dma_bursts_total` metrics
    /// counter.
    pub doorbells: u64,
    /// Completion interrupts raised after coalescing, sourced from the
    /// `harmonia_irq_interrupts_total` metrics counter.
    pub interrupts: u64,
    /// Completion events per interrupt (`harmonia_irq_events_total` /
    /// `harmonia_irq_interrupts_total`); 0 when nothing interrupted.
    pub irq_coalescing: f64,
}

impl CmdpathPoint {
    /// The `batch=B/depth=D` name this point publishes under.
    pub fn name(&self) -> String {
        format!("batch={}/depth={}", self.batch, self.depth)
    }
}

/// Runs one sweep point: `COMMANDS` health polls through a fresh driver.
pub fn run_point(batch: usize, depth: usize) -> CmdpathPoint {
    let dev = catalog::device_a();
    let (gen, lanes) = dev.pcie().unwrap();
    let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
    let kernel = UnifiedControlKernel::new(64);
    let mut drv = CommandDriver::with_depth(engine, kernel, batch, depth);
    let reg = MetricsRegistry::enabled();
    drv.set_metrics_registry(reg.clone());
    let cmds = (0..COMMANDS)
        .map(|_| (0u8, 0u8, CommandCode::HealthRead, Vec::new()))
        .collect();
    let results = drv.submit(cmds);
    assert!(
        results.iter().all(|r| r.is_ok()),
        "faultless sweep must ack everything"
    );
    let sim_ps = drv.clock_ps();
    let snap = reg.snapshot();
    let doorbells = snap.counter("harmonia_dma_bursts_total");
    debug_assert_eq!(doorbells, drv.engine_ref().doorbells());
    let events = snap.counter("harmonia_irq_events_total");
    let interrupts = snap.counter("harmonia_irq_interrupts_total");
    CmdpathPoint {
        batch,
        depth,
        commands: COMMANDS,
        sim_ps,
        sim_cmds_per_sec: COMMANDS as f64 / (sim_ps as f64 * 1e-12),
        doorbells,
        interrupts,
        irq_coalescing: if interrupts == 0 {
            0.0
        } else {
            events as f64 / interrupts as f64
        },
    }
}

/// The full batch × depth sweep, in declaration order.
pub fn sweep() -> Vec<CmdpathPoint> {
    let grid: Vec<(usize, usize)> = BATCHES
        .iter()
        .flat_map(|&b| DEPTHS.iter().map(move |&d| (b, d)))
        .collect();
    harmonia::sim::exec::par_map(grid, |(b, d)| run_point(b, d))
}

/// Renders the sweep as the `BENCH_cmdpath.json` artifact body.
///
/// Hand-rolled like the testkit bench harness's `group_json`; all values
/// are simulated and therefore byte-stable.
pub fn sweep_json(points: &[CmdpathPoint]) -> String {
    let mut out = String::from("{\n  \"group\": \"cmdpath\",\n");
    out.push_str("  \"unit\": \"simulated\",\n");
    out.push_str(&format!("  \"commands_per_point\": {COMMANDS},\n"));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"batch\": {}, \"depth\": {}, \
             \"sim_ps\": {}, \"sim_cmds_per_sec\": {:.1}, \
             \"doorbells\": {}, \"interrupts\": {}, \
             \"irq_coalescing\": {:.2}}}{}\n",
            p.name(),
            p.batch,
            p.depth,
            p.sim_ps,
            p.sim_cmds_per_sec,
            p.doorbells,
            p.interrupts,
            p.irq_coalescing,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `sim_cmds_per_sec` for one named point out of a rendered (or
/// committed) `BENCH_cmdpath.json`. Used by the scaling regression test
/// against the repo-root artifact.
pub fn rate_from_json(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let field = "\"sim_cmds_per_sec\": ";
    let start = line.find(field)? + field.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_rates() {
        let points = vec![run_point(1, 16), run_point(16, 16)];
        let json = sweep_json(&points);
        for p in &points {
            let got = rate_from_json(&json, &p.name()).unwrap();
            assert!((got - p.sim_cmds_per_sec).abs() < 0.1, "{got} vs {p:?}");
        }
        assert_eq!(rate_from_json(&json, "batch=9/depth=9"), None);
    }

    #[test]
    fn serial_point_rings_one_doorbell_per_command() {
        let p = run_point(1, 64);
        // batch=1 is the serial transport: one DMA send and one
        // immediate completion interrupt per command.
        assert_eq!(p.doorbells, COMMANDS as u64);
        assert_eq!(p.interrupts, COMMANDS as u64);
        assert_eq!(p.irq_coalescing, 1.0);
    }

    #[test]
    fn batched_point_coalesces_completions() {
        let p = run_point(16, 64);
        // One completion event per command; the moderator batches them
        // at the doorbell batch size.
        assert!(p.interrupts > 0);
        assert!(
            (p.irq_coalescing - 16.0).abs() < 1e-9,
            "coalescing {} should match the batch",
            p.irq_coalescing
        );
    }
}
