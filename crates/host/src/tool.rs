//! Standalone control tool.
//!
//! Production servers host several controllers concurrently — applications,
//! the BMC and standalone operations tools (§3.3.3) — which is why command
//! execution is centralized in the FPGA-side kernel rather than any one
//! host process. This tool is the operations-side controller: it reads
//! board health and issues any other command through its driver, over the
//! same command interface with its own `SrcID`.

use crate::cmd_driver::CommandDriver;
use crate::dma::DmaEngine;
use crate::resilience::DriverError;
use harmonia_cmd::{CommandCode, KernelError, SrcId, UnifiedControlKernel};
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

impl HealthSnapshot {
    /// Parses a `HealthRead` response block, for the tool and the BMC
    /// alike: anything but four words is a [`KernelError::BadPayload`].
    pub(crate) fn parse(data: &[u32]) -> Result<HealthSnapshot, DriverError> {
        let [temp_fpga_c, temp_board_c, vccint_mv, vcc12_mv] = data[..] else {
            return Err(DriverError::Kernel(KernelError::BadPayload {
                expected: "4-word health block",
            }));
        };
        Ok(HealthSnapshot {
            temp_fpga_c,
            temp_board_c,
            vccint_mv,
            vcc12_mv,
        })
    }
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
    /// See [`CommandDriver::cmd_resilient`]; a short health block is a
    /// [`KernelError::BadPayload`].
    pub fn health(&mut self) -> Result<HealthSnapshot, DriverError> {
        let resp = self
            .driver
            .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())?;
        HealthSnapshot::parse(&resp.data)
    }

    /// The underlying driver (for inspection in tests/benches).
    pub fn driver(&self) -> &CommandDriver {
        &self.driver
    }

    /// Mutable driver access (fault injectors, probes, policy).
    pub fn driver_mut(&mut self) -> &mut CommandDriver {
        &mut self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_hw::ip::PcieDmaIp;
    use harmonia_hw::Vendor;
    use harmonia_shell::{RoleSpec, TailoredShell, UnifiedShell};
    use harmonia_sim::{MetricsRegistry, Probe, TraceCollector};

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
    fn short_health_block_is_bad_payload() {
        assert!(matches!(
            HealthSnapshot::parse(&[41, 35, 850]),
            Err(DriverError::Kernel(KernelError::BadPayload { .. }))
        ));
    }

    #[test]
    fn stats_snapshot_covers_all_modules() {
        let (mut tool, shell) = tool_and_shell();
        let stats = tool.driver_mut().read_all_stats_resilient(&shell).unwrap();
        // 2 network (28 each) + host (32) + health (4).
        assert_eq!(stats.len(), 2 * 28 + 32 + 4);
    }

    #[test]
    fn reset_module_round_trip() {
        let (mut tool, _) = tool_and_shell();
        let mut reset = |rbb_id| {
            tool.driver_mut()
                .cmd_raw_resilient(rbb_id, 0, CommandCode::ModuleReset, Vec::new())
        };
        reset(1).unwrap();
        assert!(reset(2).is_err()); // no memory module
    }

    #[test]
    fn capture_trace_covers_the_monitoring_sweep() {
        let (mut tool, shell) = tool_and_shell();
        let collector = TraceCollector::enabled();
        tool.driver_mut().set_probe(Probe {
            trace: collector.clone(),
            ..Probe::disabled()
        });
        tool.driver_mut().read_all_stats_resilient(&shell).unwrap();
        let trace = collector.take();
        // 3 StatsRead + 1 HealthRead, each an issue + delivery + exec + ack.
        assert_eq!(tool.driver().latency_histogram().count(), 4);
        // Each command contributes at least issue + exec + ack.
        assert!(trace.len() >= 12, "only {} events", trace.len());
        assert!(trace.export_perfetto().contains("\"kernel-exec\""));
        assert!(trace.export_text().contains("cmd-ack"));
    }

    #[test]
    fn capture_metrics_counts_the_monitoring_sweep() {
        let (mut tool, shell) = tool_and_shell();
        let metrics = MetricsRegistry::enabled();
        tool.driver_mut().set_probe(Probe {
            metrics: metrics.clone(),
            ..Probe::disabled()
        });
        tool.driver_mut().read_all_stats_resilient(&shell).unwrap();
        let snap = metrics.snapshot();
        // 3 StatsRead + 1 HealthRead, all acked.
        assert_eq!(snap.counter("harmonia_cmd_issued_total"), 4);
        assert_eq!(snap.counter("harmonia_cmd_acked_total"), 4);
        assert_eq!(snap.counter("harmonia_kernel_cmds_executed_total"), 4);
        assert_eq!(snap.counter("harmonia_dma_cmds_total"), 4);
        assert_eq!(snap.histogram("harmonia_cmd_latency_ps").count(), 4);
        assert!(snap.export_prometheus().contains("harmonia_cmd_acked_total 4"));
    }

    #[test]
    fn flight_dump_reports_disabled_without_metrics() {
        let (mut tool, _) = tool_and_shell();
        assert!(!tool.driver().probe().flight.is_enabled());
        assert!(tool.driver().probe().flight.dump().contains("disabled"));
        tool.driver_mut().set_probe(Probe::enabled());
        tool.driver_mut()
            .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
            .unwrap();
        let dump = tool.driver().probe().flight.dump();
        assert!(dump.starts_with("flight recorder: last"), "{dump}");
        assert!(dump.contains("cmd-ack"), "{dump}");
    }

    #[test]
    fn tool_identifies_as_ctrl_tool() {
        let (tool, _) = tool_and_shell();
        assert_eq!(tool.driver().src(), SrcId::CtrlTool);
    }
}
