//! Cross-platform migration analysis (Figure 13).
//!
//! §5.2: "We evaluate the changes made to the … software for initializing
//! all hardware modules while transitioning from device C to device D",
//! comparing the register interface against the command interface. A
//! modification is one script line added or removed under an LCS alignment
//! ([`harmonia_metrics::lcs_diff`]).

use crate::cmd_driver::{command_script, IssuedCommand};
use crate::reg_driver::RegisterDriver;
use harmonia_hw::device::FpgaDevice;
use harmonia_metrics::lcs_diff;
use harmonia_shell::{RoleSpec, TailorError, TailoredShell, UnifiedShell};
use std::fmt;

/// Modification counts for one application migration.
///
/// ```
/// use harmonia_host::migration::{migration_report, MigrationReport};
/// use harmonia_hw::device::catalog;
/// use harmonia_shell::RoleSpec;
///
/// let role = RoleSpec::builder("l4lb").network_gbps(100).queues(64).build();
/// let report: MigrationReport =
///     migration_report(&catalog::device_c(), &role, &catalog::device_d(), &role).unwrap();
/// // The command interface needs far fewer changes than raw registers —
/// // the Figure 13 claim the fleet migration cost matrix is built on.
/// assert!(report.cmd_modifications <= report.reg_modifications);
/// assert!(report.reduction_factor() >= 1.0);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct MigrationReport {
    /// Register-interface script lines changed.
    pub reg_modifications: usize,
    /// Command-interface commands changed.
    pub cmd_modifications: usize,
}

impl MigrationReport {
    /// The reduction factor (register ÷ command modifications).
    ///
    /// When the command script needs no change at all, the reduction is
    /// reported against a single unavoidable re-deploy step, matching how
    /// the paper reports a finite factor.
    pub fn reduction_factor(&self) -> f64 {
        self.reg_modifications as f64 / self.cmd_modifications.max(1) as f64
    }
}

impl fmt::Display for MigrationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} register vs {} command modifications ({:.0}x)",
            self.reg_modifications,
            self.cmd_modifications,
            self.reduction_factor()
        )
    }
}

/// Command-interface modifications between two deployments' command
/// scripts (see [`command_script`]): lines added or removed under an LCS
/// alignment. The one rule behind both
/// [`MigrationReport::cmd_modifications`] and callers that diff cached
/// scripts without re-tailoring.
pub fn cmd_modifications(script_from: &[IssuedCommand], script_to: &[IssuedCommand]) -> usize {
    lcs_diff(script_from, script_to)
}

/// Tailors `role` onto a device, producing the shell the software talks to.
fn deploy(device: &FpgaDevice, role: &RoleSpec) -> Result<TailoredShell, TailorError> {
    let unified = UnifiedShell::for_device(device);
    TailoredShell::tailor(&unified, role)
}

/// Computes the modification counts for migrating an application from one
/// device (running `role_from`) to another (running `role_to` — roles may
/// legitimately differ when the target offers capabilities the source
/// lacked, e.g. picking up a DDR channel on device D).
///
/// # Errors
///
/// Propagates tailoring failures on either device.
pub fn migration_report(
    from_device: &FpgaDevice,
    role_from: &RoleSpec,
    to_device: &FpgaDevice,
    role_to: &RoleSpec,
) -> Result<MigrationReport, TailorError> {
    let shell_from = deploy(from_device, role_from)?;
    let shell_to = deploy(to_device, role_to)?;

    let reg_from = RegisterDriver::full_init_script(from_device, &shell_from);
    let reg_to = RegisterDriver::full_init_script(to_device, &shell_to);
    let mon_from = RegisterDriver::monitoring_script(&shell_from);
    let mon_to = RegisterDriver::monitoring_script(&shell_to);

    Ok(MigrationReport {
        reg_modifications: lcs_diff(&reg_from, &reg_to) + lcs_diff(&mon_from, &mon_to),
        cmd_modifications: cmd_modifications(
            &command_script(&shell_from),
            &command_script(&shell_to),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_shell::MemoryDemand;

    /// The paper's Host Network migration: device C → device D, picking up
    /// the DDR channel device D offers for flow tables.
    fn host_network_roles() -> (RoleSpec, RoleSpec) {
        let on_c = RoleSpec::builder("host-network")
            .network_gbps(100)
            .queues(256)
            .build();
        let on_d = RoleSpec::builder("host-network")
            .network_gbps(100)
            .queues(256)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build();
        (on_c, on_d)
    }

    #[test]
    fn c_to_d_reduction_in_fig13_band() {
        let (rc, rd) = host_network_roles();
        let report =
            migration_report(&catalog::device_c(), &rc, &catalog::device_d(), &rd).unwrap();
        assert!(
            report.cmd_modifications <= 8,
            "command mods {} not 'a handful'",
            report.cmd_modifications
        );
        assert!(
            report.reg_modifications > 50,
            "register mods {} implausibly small",
            report.reg_modifications
        );
        let x = report.reduction_factor();
        assert!(
            (30.0..=200.0).contains(&x),
            "reduction {x:.0}x far outside the Figure 13 band"
        );
    }

    #[test]
    fn identical_deployment_needs_no_changes() {
        let role = RoleSpec::builder("same").network_gbps(100).build();
        let report =
            migration_report(&catalog::device_a(), &role, &catalog::device_a(), &role).unwrap();
        assert_eq!(report.reg_modifications, 0);
        assert_eq!(report.cmd_modifications, 0);
        assert_eq!(report.reduction_factor(), 0.0);
    }

    #[test]
    fn cross_vendor_migration_changes_more_than_cross_chip() {
        let role = RoleSpec::builder("r").network_gbps(100).build();
        let a = catalog::device_a();
        let b = catalog::device_b();
        let c = catalog::device_c();
        let xchip = migration_report(&a, &role, &b, &role).unwrap();
        let xvendor = migration_report(&a, &role, &c, &role).unwrap();
        assert!(
            xvendor.reg_modifications > xchip.reg_modifications,
            "cross-vendor {} <= cross-chip {}",
            xvendor.reg_modifications,
            xchip.reg_modifications
        );
    }

    #[test]
    fn command_side_stays_stable_when_composition_matches() {
        // Same module composition on both devices → the command stream is
        // untouched even across vendors.
        let role = RoleSpec::builder("r").network_gbps(100).build();
        let report =
            migration_report(&catalog::device_a(), &role, &catalog::device_c(), &role).unwrap();
        assert_eq!(report.cmd_modifications, 0);
        assert!(report.reg_modifications > 0);
    }

    #[test]
    fn report_display() {
        let r = MigrationReport {
            reg_modifications: 420,
            cmd_modifications: 4,
        };
        assert!(r.to_string().contains("105x"));
    }
}
