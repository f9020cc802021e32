//! Board management controller (BMC).
//!
//! §3.3.3 motivates the in-FPGA control kernel with the observation that
//! production servers carry *multiple* controllers — applications, the BMC
//! and standalone tools. This module is the BMC: it polls board health
//! through the same command interface (with its own `SrcID`), tracks
//! sensor history, raises threshold alarms, and can fence a module when a
//! sensor goes critical.

use crate::cmd_driver::CommandDriver;
use crate::dma::DmaEngine;
use crate::resilience::DriverError;
use crate::tool::HealthSnapshot;
use harmonia_cmd::{CommandCode, SrcId, UnifiedControlKernel};
use std::fmt;

/// BMC alarm thresholds.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BmcPolicy {
    /// Warning threshold for the FPGA junction temperature, °C.
    pub temp_warn_c: u32,
    /// Critical threshold — the BMC fences the board above this.
    pub temp_crit_c: u32,
    /// Acceptable VCCINT range, millivolts.
    pub vccint_range_mv: (u32, u32),
}

impl Default for BmcPolicy {
    fn default() -> Self {
        BmcPolicy {
            temp_warn_c: 85,
            temp_crit_c: 100,
            vccint_range_mv: (810, 890),
        }
    }
}

/// Severity classification of a sample.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BmcStatus {
    /// All sensors nominal.
    Healthy,
    /// Temperature above the warning threshold.
    TempWarning,
    /// Temperature above the critical threshold (board fenced).
    TempCritical,
    /// Core voltage outside its window.
    VoltageFault,
}

impl fmt::Display for BmcStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BmcStatus::Healthy => "healthy",
            BmcStatus::TempWarning => "temp-warning",
            BmcStatus::TempCritical => "TEMP-CRITICAL",
            BmcStatus::VoltageFault => "voltage-fault",
        };
        f.write_str(s)
    }
}

/// The board management controller.
#[derive(Debug)]
pub struct BmcController {
    driver: CommandDriver,
    policy: BmcPolicy,
    history: Vec<(HealthSnapshot, BmcStatus)>,
    fenced: bool,
}

impl BmcController {
    /// Connects a BMC to a control kernel.
    pub fn connect(engine: DmaEngine, kernel: UnifiedControlKernel, policy: BmcPolicy) -> Self {
        BmcController {
            driver: CommandDriver::with_src(SrcId::Bmc, engine, kernel),
            policy,
            history: Vec::new(),
            fenced: false,
        }
    }

    /// The alarm policy.
    pub fn policy(&self) -> BmcPolicy {
        self.policy
    }

    /// Whether the BMC has fenced the board.
    #[cfg(test)]
    fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// The sample history.
    pub fn history(&self) -> &[(HealthSnapshot, BmcStatus)] {
        &self.history
    }

    fn classify(&self, s: &HealthSnapshot) -> BmcStatus {
        if s.temp_fpga_c >= self.policy.temp_crit_c {
            BmcStatus::TempCritical
        } else if s.vccint_mv < self.policy.vccint_range_mv.0
            || s.vccint_mv > self.policy.vccint_range_mv.1
        {
            BmcStatus::VoltageFault
        } else if s.temp_fpga_c >= self.policy.temp_warn_c {
            BmcStatus::TempWarning
        } else {
            BmcStatus::Healthy
        }
    }

    /// Polls health once; on a critical temperature, fences the board by
    /// resetting every registered module class (best effort).
    ///
    /// # Errors
    ///
    /// Propagates command failures from the health read itself,
    /// and a health block of other than four words as
    /// [`KernelError::BadPayload`](harmonia_cmd::KernelError::BadPayload).
    pub fn poll(&mut self) -> Result<BmcStatus, DriverError> {
        let resp = self
            .driver
            .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())?;
        let sample = HealthSnapshot::parse(&resp.data)?;
        let status = self.classify(&sample);
        self.history.push((sample, status));
        if status == BmcStatus::TempCritical && !self.fenced {
            self.fenced = true;
            // Fence: reset whatever modules exist; absent ones just error
            // and are skipped (the BMC does not know the shell layout).
            for rbb_id in 1..=3u8 {
                for inst in 0..2u8 {
                    let _ = self.driver.cmd_raw_resilient(
                        rbb_id,
                        inst,
                        CommandCode::ModuleReset,
                        Vec::new(),
                    );
                }
            }
        }
        Ok(status)
    }

    /// Mutable kernel access for sensor injection in tests/benches.
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

    fn bmc() -> BmcController {
        let dev = catalog::device_a();
        let unified = UnifiedShell::for_device(&dev);
        let role = RoleSpec::builder("bmc-test").network_gbps(100).build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        let mut kernel = UnifiedControlKernel::new(32);
        kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
        let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8));
        BmcController::connect(engine, kernel, BmcPolicy::default())
    }

    #[test]
    fn nominal_sensors_are_healthy() {
        let mut b = bmc();
        assert_eq!(b.poll().unwrap(), BmcStatus::Healthy);
        assert!(!b.is_fenced());
        assert_eq!(b.history().len(), 1);
    }

    #[test]
    fn warning_then_critical_fences_once() {
        let mut b = bmc();
        b.driver_mut().kernel_mut().update_sensors(88, 40, 850);
        assert_eq!(b.poll().unwrap(), BmcStatus::TempWarning);
        assert!(!b.is_fenced());
        b.driver_mut().kernel_mut().update_sensors(104, 45, 850);
        assert_eq!(b.poll().unwrap(), BmcStatus::TempCritical);
        assert!(b.is_fenced());
        // Stays fenced.
        assert_eq!(b.poll().unwrap(), BmcStatus::TempCritical);
        assert!(b.is_fenced());
        b.driver_mut().kernel_mut().update_sensors(60, 40, 850);
        assert_eq!(b.poll().unwrap(), BmcStatus::Healthy);
    }

    #[test]
    fn voltage_fault_detected() {
        let mut b = bmc();
        b.driver_mut().kernel_mut().update_sensors(50, 40, 780);
        assert_eq!(b.poll().unwrap(), BmcStatus::VoltageFault);
        b.driver_mut().kernel_mut().update_sensors(50, 40, 905);
        assert_eq!(b.poll().unwrap(), BmcStatus::VoltageFault);
    }

    #[test]
    fn history_accumulates_in_order() {
        let mut b = bmc();
        for temp in [41, 70, 90] {
            b.driver_mut().kernel_mut().update_sensors(temp, 35, 850);
            b.poll().unwrap();
        }
        let temps: Vec<u32> = b.history().iter().map(|(s, _)| s.temp_fpga_c).collect();
        assert_eq!(temps, vec![41, 70, 90]);
        assert_eq!(b.history()[2].1, BmcStatus::TempWarning);
    }
}
