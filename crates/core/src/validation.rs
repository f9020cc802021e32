//! Stage 3 of the lifecycle (§4): integration testing.
//!
//! "Testers perform rigorous integration testing to cover every component
//! in the system, ensuring that each part is thoroughly validated before
//! online deployment." This module runs that gate against a live
//! [`Deployment`]: board-level pattern tests, control
//! path exercises over every module, datapath smoke checks and the
//! Harmonia overhead budget.

use crate::framework::Deployment;
use harmonia_apps::BoardTest;
use harmonia_cmd::CommandCode;
use harmonia_shell::rbb::RbbKind;
use std::fmt;

/// One validation check's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Check name.
    pub name: String,
    /// Whether it passed.
    pub passed: bool,
    /// Human-readable detail.
    pub detail: String,
}

/// The integration-test report for a deployment.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    checks: Vec<Check>,
}

impl ValidationReport {
    /// Whether every check passed (empty reports do not pass).
    #[cfg(test)]
    fn release_ready(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// The individual checks.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    fn push(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "[{}] {:<28} {}",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            )?;
        }
        Ok(())
    }
}

/// Runs the Stage 3 integration-test gate on a deployment.
pub fn validate(deployment: &mut Deployment) -> ValidationReport {
    let mut report = ValidationReport::default();

    // 1. Board-level peripheral tests.
    let board = BoardTest::new(0xB0A2D).run(deployment.device());
    report.push(
        "board-peripherals",
        board.all_passed(),
        format!("{} stages", board.stages().len()),
    );

    // 2. Control path: health + per-module status/stats round trips.
    let health_ok = deployment
        .driver_mut()
        .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
        .map(|r| r.data.len() == 4)
        .unwrap_or(false);
    report.push("board-health", health_ok, "4-word health block");

    let module_specs: Vec<(u8, u8)> = deployment.shell().modules().collect();
    let mut stats_words = 0usize;
    let mut control_ok = true;
    for (rbb_id, inst) in &module_specs {
        match deployment.driver_mut().cmd_raw_resilient(
            *rbb_id,
            *inst,
            CommandCode::StatsRead,
            Vec::new(),
        ) {
            Ok(resp) => stats_words += resp.data.len(),
            Err(_) => control_ok = false,
        }
        if deployment
            .driver_mut()
            .cmd_raw_resilient(*rbb_id, *inst, CommandCode::ModuleStatusRead, Vec::new())
            .is_err()
        {
            control_ok = false;
        }
    }
    report.push(
        "module-control",
        control_ok,
        format!(
            "{} modules, {stats_words} monitor words",
            module_specs.len()
        ),
    );

    // 3. Reset/re-init cycle on every module (dynamic-configuration check).
    let mut reinit_ok = true;
    for (rbb_id, inst) in &module_specs {
        for code in [CommandCode::ModuleReset, CommandCode::ModuleInit] {
            if deployment
                .driver_mut()
                .cmd_raw_resilient(*rbb_id, *inst, code, Vec::new())
                .is_err()
            {
                reinit_ok = false;
            }
        }
    }
    report.push("reset-reinit-cycle", reinit_ok, "all modules");

    // 4. Table path on the network modules, if present.
    let has_network = module_specs
        .iter()
        .any(|(id, _)| *id == RbbKind::Network.id());
    if has_network {
        let wr = deployment.driver_mut().cmd_raw_resilient(
            RbbKind::Network.id(),
            0,
            CommandCode::TableWrite,
            vec![0, 0x1234, 0x5678],
        );
        let rd = deployment.driver_mut().cmd_raw_resilient(
            RbbKind::Network.id(),
            0,
            CommandCode::TableRead,
            vec![0],
        );
        let ok = wr.is_ok() && rd.map(|r| r.data == vec![0x1234, 0x5678]).unwrap_or(false);
        report.push("table-round-trip", ok, "entry 0 write/read");
    }

    // 5. Overhead budget (Figure 16 gate).
    let pct = deployment.overhead_percent();
    report.push(
        "harmonia-overhead",
        pct < 1.5,
        format!("{pct:.2}% of device"),
    );

    // 6. Shell fits with role headroom.
    let fits = deployment
        .shell_resources()
        .retargeted_for(deployment.device().capacity())
        .fits_in(deployment.device().capacity());
    report.push("resource-budget", fits, "shell within device capacity");

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Harmonia;
    use harmonia_hw::device::catalog;
    use harmonia_shell::{MemoryDemand, RoleSpec};

    #[test]
    fn healthy_deployment_is_release_ready() {
        let role = RoleSpec::builder("stage3")
            .network_gbps(100)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build();
        let mut d = Harmonia::deploy(&catalog::device_a(), &role).unwrap();
        let report = validate(&mut d);
        assert!(report.release_ready(), "\n{report}");
        assert!(report.checks().len() >= 6);
    }

    #[test]
    fn validation_runs_on_every_catalog_device() {
        let role = RoleSpec::builder("stage3").network_gbps(100).build();
        for dev in catalog::all() {
            let mut d = Harmonia::deploy(&dev, &role).unwrap();
            let report = validate(&mut d);
            assert!(report.release_ready(), "{}:\n{report}", dev.name());
        }
    }

    #[test]
    fn empty_report_is_not_ready() {
        assert!(!ValidationReport::default().release_ready());
    }

    #[test]
    fn report_display_lists_checks() {
        let role = RoleSpec::builder("s").network_gbps(100).build();
        let mut d = Harmonia::deploy(&catalog::device_d(), &role).unwrap();
        let text = validate(&mut d).to_string();
        assert!(text.contains("board-peripherals"));
        assert!(text.contains("PASS"));
    }
}
