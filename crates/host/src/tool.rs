//! Standalone control tool.
//!
//! Production servers host several controllers concurrently — applications,
//! the BMC and standalone operations tools (§3.3.3) — which is why command
//! execution is centralized in the FPGA-side kernel rather than any one
//! host process. This tool is the operations-side controller: board health,
//! statistics snapshots and module resets, all over the same command
//! interface with its own `SrcID`.

use crate::cmd_driver::CommandDriver;
use crate::dma::DmaEngine;
use harmonia_cmd::{CommandCode, KernelError, SrcId, UnifiedControlKernel};
use harmonia_shell::TailoredShell;
use harmonia_sim::{LogHistogram, MetricsRegistry, MetricsSnapshot, Probe, Trace, TraceCollector};
use std::fmt;

/// A board-health snapshot.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// FPGA junction temperature, °C.
    pub temp_fpga_c: u32,
    /// Board ambient temperature, °C.
    pub temp_board_c: u32,
    /// Core voltage, millivolts.
    pub vccint_mv: u32,
    /// 12 V rail, millivolts.
    pub vcc12_mv: u32,
}

impl fmt::Display for HealthSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fpga {}°C, board {}°C, vccint {} mV, 12V rail {} mV",
            self.temp_fpga_c, self.temp_board_c, self.vccint_mv, self.vcc12_mv
        )
    }
}

/// The standalone operations tool.
#[derive(Debug)]
pub struct ControlTool {
    driver: CommandDriver,
}

impl ControlTool {
    /// Connects the tool to a kernel through a DMA engine.
    pub fn connect(engine: DmaEngine, kernel: UnifiedControlKernel) -> Self {
        ControlTool {
            driver: CommandDriver::with_src(SrcId::CtrlTool, engine, kernel),
        }
    }

    /// Reads the board health block.
    ///
    /// # Errors
    ///
    /// Kernel-side failures.
    pub fn health(&mut self) -> Result<HealthSnapshot, KernelError> {
        let resp = self
            .driver
            .cmd_raw(0, 0, CommandCode::HealthRead, Vec::new())?;
        let [t1, t2, v1, v2] = resp.data[..] else {
            return Err(KernelError::BadPayload {
                expected: "4-word health block",
            });
        };
        Ok(HealthSnapshot {
            temp_fpga_c: t1,
            temp_board_c: t2,
            vccint_mv: v1,
            vcc12_mv: v2,
        })
    }

    /// Reads every module's statistics and the board health.
    ///
    /// # Errors
    ///
    /// Kernel-side failures.
    pub fn stats_snapshot(&mut self, shell: &TailoredShell) -> Result<Vec<u32>, KernelError> {
        self.driver.read_all_stats(shell)
    }

    /// Resets one module.
    ///
    /// # Errors
    ///
    /// Kernel-side failures.
    pub fn reset_module(&mut self, rbb_id: u8, instance: u8) -> Result<(), KernelError> {
        self.driver
            .cmd_raw(rbb_id, instance, CommandCode::ModuleReset, Vec::new())
            .map(|_| ())
    }

    /// The underlying driver (for inspection in tests/benches).
    pub fn driver(&self) -> &CommandDriver {
        &self.driver
    }

    /// Mutable driver access (fault injectors, probes, policy).
    pub fn driver_mut(&mut self) -> &mut CommandDriver {
        &mut self.driver
    }

    /// Runs the monitoring sweep with the driver's probe edited by
    /// `attach`, then restores the prior probe (also when the sweep
    /// fails).
    fn sweep_with(
        &mut self,
        shell: &TailoredShell,
        attach: impl FnOnce(&mut Probe),
    ) -> Result<(), KernelError> {
        let prior = self.driver.probe().clone();
        let mut probe = prior.clone();
        attach(&mut probe);
        self.driver.set_probe(probe);
        let swept = self.stats_snapshot(shell);
        self.driver.set_probe(prior);
        swept.map(|_| ())
    }

    /// The `trace` subcommand: runs a full monitoring sweep (every
    /// module's statistics plus board health) with tracing forced on and
    /// returns the captured [`Trace`] alongside the command-latency
    /// histogram. Export with [`Trace::export_perfetto`] or
    /// [`Trace::export_text`].
    ///
    /// # Errors
    ///
    /// Kernel-side failures.
    pub fn capture_trace(
        &mut self,
        shell: &TailoredShell,
    ) -> Result<(Trace, LogHistogram), KernelError> {
        let trace = TraceCollector::enabled();
        self.sweep_with(shell, |probe| probe.trace = trace.clone())?;
        Ok((trace.take(), self.driver.latency_histogram().clone()))
    }

    /// The `metrics` subcommand: runs the same monitoring sweep with
    /// metrics forced on and returns the registry snapshot. Export with
    /// [`MetricsSnapshot::export_prometheus`] or
    /// [`MetricsSnapshot::export_json`].
    ///
    /// # Errors
    ///
    /// Kernel-side failures.
    pub fn capture_metrics(
        &mut self,
        shell: &TailoredShell,
    ) -> Result<MetricsSnapshot, KernelError> {
        let metrics = MetricsRegistry::enabled();
        self.sweep_with(shell, |probe| probe.metrics = metrics.clone())?;
        Ok(metrics.snapshot())
    }

    /// The `flight-dump` subcommand: renders the driver's flight-recorder
    /// ring on demand (not just post-mortem). With the recorder disabled
    /// the dump says so rather than returning an empty string.
    pub fn flight_dump(&self) -> String {
        self.driver.probe().flight.dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_hw::ip::PcieDmaIp;
    use harmonia_hw::Vendor;
    use harmonia_shell::{RoleSpec, TailoredShell, UnifiedShell};

    fn tool_and_shell() -> (ControlTool, TailoredShell) {
        let dev = catalog::device_a();
        let unified = UnifiedShell::for_device(&dev);
        let role = RoleSpec::builder("ops").network_gbps(100).build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        let mut kernel = UnifiedControlKernel::new(32);
        kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
        let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8));
        (ControlTool::connect(engine, kernel), shell)
    }

    #[test]
    fn health_snapshot_reads_sensors() {
        let (mut tool, _) = tool_and_shell();
        let h = tool.health().unwrap();
        assert_eq!(h.temp_fpga_c, 41);
        assert_eq!(h.vcc12_mv, 12_010);
        assert!(h.to_string().contains("41°C"));
    }

    #[test]
    fn stats_snapshot_covers_all_modules() {
        let (mut tool, shell) = tool_and_shell();
        let stats = tool.stats_snapshot(&shell).unwrap();
        // 2 network (28 each) + host (32) + health (4).
        assert_eq!(stats.len(), 2 * 28 + 32 + 4);
    }

    #[test]
    fn reset_module_round_trip() {
        let (mut tool, _) = tool_and_shell();
        tool.reset_module(1, 0).unwrap();
        assert!(tool.reset_module(2, 0).is_err()); // no memory module
    }

    #[test]
    fn capture_trace_covers_the_monitoring_sweep() {
        let (mut tool, shell) = tool_and_shell();
        let (trace, histo) = tool.capture_trace(&shell).unwrap();
        // 3 StatsRead + 1 HealthRead, each an issue + delivery + exec + ack.
        assert_eq!(histo.count(), 4);
        // Each command contributes at least issue + exec + ack.
        assert!(trace.len() >= 12, "only {} events", trace.len());
        assert!(trace.export_perfetto().contains("\"kernel-exec\""));
        assert!(trace.export_text().contains("cmd-ack"));
        // The tool's own collector detaches afterwards: the prior probe
        // is back.
        assert!(!tool.driver().probe().trace.is_enabled());
    }

    #[test]
    fn capture_metrics_counts_the_monitoring_sweep() {
        let (mut tool, shell) = tool_and_shell();
        let snap = tool.capture_metrics(&shell).unwrap();
        // 3 StatsRead + 1 HealthRead, all acked.
        assert_eq!(snap.counter("harmonia_cmd_issued_total"), 4);
        assert_eq!(snap.counter("harmonia_cmd_acked_total"), 4);
        assert_eq!(snap.counter("harmonia_kernel_cmds_executed_total"), 4);
        assert_eq!(snap.counter("harmonia_dma_cmds_total"), 4);
        assert_eq!(snap.histogram("harmonia_cmd_latency_ps").count(), 4);
        assert!(snap.export_prometheus().contains("harmonia_cmd_acked_total 4"));
        // The forced registry detaches afterwards: the prior probe is
        // back.
        assert!(!tool.driver().probe().metrics.is_enabled());
    }

    #[test]
    fn flight_dump_reports_disabled_without_metrics() {
        let (mut tool, _) = tool_and_shell();
        assert!(!tool.driver().probe().flight.is_enabled());
        assert!(tool.flight_dump().contains("disabled"));
        tool.driver_mut().set_probe(Probe::enabled());
        tool.driver_mut()
            .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
            .unwrap();
        let dump = tool.flight_dump();
        assert!(dump.starts_with("flight recorder: last"), "{dump}");
        assert!(dump.contains("cmd-ack"), "{dump}");
    }

    #[test]
    fn tool_identifies_as_ctrl_tool() {
        let (tool, _) = tool_and_shell();
        assert_eq!(tool.driver().src(), SrcId::CtrlTool);
    }
}
