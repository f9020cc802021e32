//! The deployment lifecycle (§4).
//!
//! Stage 2–4 of the paper's application lifecycle, automated: generate the
//! platform adapters for the target device, rigidly inspect vendor
//! dependencies, build and tailor the shell, wrap the vendor instances,
//! attach the unified control kernel, and initialize every module over the
//! command interface.

use harmonia_cmd::UnifiedControlKernel;
use harmonia_host::{CommandDriver, DmaEngine, DriverError};
use harmonia_hw::device::FpgaDevice;
use harmonia_hw::ip::PcieDmaIp;
use harmonia_hw::resource::ResourceUsage;
use harmonia_platform::adapter::vendor::Version;
use harmonia_platform::{CompatError, DeviceAdapter, InterfaceWrapper, ModuleDeps, VendorAdapter};
use harmonia_shell::{RoleSpec, TailorError, TailoredShell, UnifiedShell};
use std::error::Error;
use std::fmt;

/// Failures of the deployment pipeline.
#[derive(Debug)]
pub enum DeployError {
    /// Vendor-dependency inspection failed.
    Compat(Vec<CompatError>),
    /// Shell tailoring failed (missing capability, capacity, …).
    Tailor(TailorError),
    /// Module initialization over the command interface failed.
    Init(DriverError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Compat(errs) => {
                write!(f, "dependency inspection failed: ")?;
                for e in errs {
                    write!(f, "[{e}] ")?;
                }
                Ok(())
            }
            DeployError::Tailor(e) => write!(f, "tailoring failed: {e}"),
            DeployError::Init(e) => write!(f, "initialization failed: {e}"),
        }
    }
}

impl Error for DeployError {}

impl From<TailorError> for DeployError {
    fn from(e: TailorError) -> Self {
        DeployError::Tailor(e)
    }
}

impl From<DriverError> for DeployError {
    fn from(e: DriverError) -> Self {
        DeployError::Init(e)
    }
}

/// The framework entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Harmonia;

impl Harmonia {
    /// Runs the full deployment lifecycle of a role onto a device.
    ///
    /// # Errors
    ///
    /// Any stage can fail: vendor-dependency conflicts, tailoring
    /// (capability/capacity) or module initialization.
    pub fn deploy(device: &FpgaDevice, role: &RoleSpec) -> Result<Deployment, DeployError> {
        // Stage 2a: platform adapters for the new device (§3.2).
        let mut device_adapter = DeviceAdapter::generate(device);
        let vendor_adapter = VendorAdapter::generate(device.die_vendor());

        // Stage 2b: unified shell from RBBs, tailored to the role (§3.3.2).
        let unified = UnifiedShell::for_device(device);
        let mut shell = TailoredShell::tailor(&unified, role)?;

        // Dynamic resource group: on-demand clock and pin mappings for the
        // retained modules (§3.2 — "I/O pins and clock mappings configured
        // on-demand"), then the adapter's rigid validation.
        {
            let dyn_map = device_adapter.dynamic_mut();
            let mut pin = 0u32;
            for (i, rbb) in shell.rbbs().iter().enumerate() {
                let name = format!("{}_{i}", rbb.kind().to_string().to_lowercase());
                // Differential reference clock pair per module.
                dyn_map.map_pin(format!("{name}_refclk_p"), pin);
                dyn_map.map_pin(format!("{name}_refclk_n"), pin + 1);
                pin += 2;
                // Core clock source: index 0 is the common 100 MHz ref.
                dyn_map.map_clock(name, 0);
            }
        }
        debug_assert!(
            device_adapter.validate().is_ok(),
            "generated dynamic mapping must validate"
        );

        // Project implementation: dependency inspection before compilation
        // (§4) — every retained instance declares its toolchain needs.
        let deps: Vec<ModuleDeps> = shell
            .rbbs()
            .iter()
            .map(|rbb| {
                let ip = rbb.instance();
                ModuleDeps::new(ip.instance_name())
                    .require(ip.vendor().cad_tool(), Version::new(min_tool_major(ip.vendor()), 0, 0))
                    .require("ip-catalog", Version::new(catalog_major(ip.vendor()), 0, 0))
            })
            .collect();
        vendor_adapter
            .inspect(&deps)
            .map_err(DeployError::Compat)?;

        // Stage 2c: wrap every instance into the unified interfaces and
        // account the overhead (§3.2, Figure 16).
        let wrapper_resources: ResourceUsage = shell
            .rbbs()
            .iter()
            .map(|rbb| InterfaceWrapper::wrap(rbb.instance(), role.user_width_bits()).resources())
            .sum();

        // Stage 2d: unified control kernel + command driver (§3.3.3).
        let mut kernel = UnifiedControlKernel::new(64);
        kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
        let (gen, lanes) = device.pcie().unwrap_or((4, 8));
        let engine = DmaEngine::new(PcieDmaIp::new(device.die_vendor(), gen, lanes));
        let mut driver = CommandDriver::new(engine, kernel);

        // Stage 4: hardware initialization through the command interface.
        let initialized = driver.init_shell_resilient(&mut shell)? == shell.rbbs().len();

        Ok(Deployment {
            device: device.clone(),
            device_adapter,
            vendor_adapter,
            shell,
            driver,
            wrapper_resources,
            initialized,
        })
    }
}

fn min_tool_major(vendor: harmonia_hw::Vendor) -> u32 {
    match vendor.cad_tool() {
        "vivado" => 2023,
        _ => 23,
    }
}

fn catalog_major(vendor: harmonia_hw::Vendor) -> u32 {
    match vendor {
        harmonia_hw::Vendor::Intel => 23,
        _ => 4,
    }
}

/// A live deployment: tailored shell, adapters and an initialized control
/// path.
#[derive(Debug)]
pub struct Deployment {
    device: FpgaDevice,
    device_adapter: DeviceAdapter,
    vendor_adapter: VendorAdapter,
    shell: TailoredShell,
    driver: CommandDriver,
    wrapper_resources: ResourceUsage,
    initialized: bool,
}

impl Deployment {
    /// The target device.
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The generated device adapter.
    pub fn device_adapter(&self) -> &DeviceAdapter {
        &self.device_adapter
    }

    /// The generated vendor adapter.
    pub fn vendor_adapter(&self) -> &VendorAdapter {
        &self.vendor_adapter
    }

    /// The role-specific shell.
    pub fn shell(&self) -> &TailoredShell {
        &self.shell
    }

    /// The command driver bound to the deployment's control kernel.
    pub fn driver_mut(&mut self) -> &mut CommandDriver {
        &mut self.driver
    }

    /// Whether every module initialized (none degraded).
    pub fn initialized(&self) -> bool {
        self.initialized
    }

    /// The shell's resource usage (RBBs + management).
    pub fn shell_resources(&self) -> ResourceUsage {
        self.shell.resources()
    }

    /// Harmonia's own overhead: interface wrappers plus the control kernel
    /// (the Figure 16 quantities).
    pub fn harmonia_overhead(&self) -> ResourceUsage {
        self.wrapper_resources + UnifiedControlKernel::resources()
    }

    /// Harmonia's overhead as a percentage of the device (max over kinds).
    pub fn overhead_percent(&self) -> f64 {
        self.harmonia_overhead()
            .max_percent_of(self.device.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_shell::MemoryDemand;

    fn role() -> RoleSpec {
        RoleSpec::builder("test-role")
            .network_gbps(100)
            .queues(64)
            .build()
    }

    #[test]
    fn deploys_on_every_catalog_device() {
        for dev in catalog::all() {
            let d = Harmonia::deploy(&dev, &role())
                .unwrap_or_else(|e| panic!("{}: {e}", dev.name()));
            assert!(d.initialized());
            assert!(d
                .shell_resources()
                .retargeted_for(dev.capacity())
                .fits_in(dev.capacity()));
        }
    }

    #[test]
    fn overhead_below_paper_bound_everywhere() {
        for dev in catalog::all() {
            let d = Harmonia::deploy(&dev, &role()).unwrap();
            let pct = d.overhead_percent();
            assert!(pct < 1.2, "{}: overhead {pct:.2}%", dev.name());
        }
    }

    #[test]
    fn capability_mismatch_is_a_tailor_error() {
        let hbm_role = RoleSpec::builder("needs-hbm")
            .memory(MemoryDemand::Hbm)
            .build();
        let err = Harmonia::deploy(&catalog::device_c(), &hbm_role).unwrap_err();
        assert!(matches!(err, DeployError::Tailor(_)));
        assert!(err.to_string().contains("tailoring"));
    }

    #[test]
    fn driver_is_usable_after_deploy() {
        let mut d = Harmonia::deploy(&catalog::device_a(), &role()).unwrap();
        let shell_rbbs = d.shell().rbbs().len();
        // Initialization already ran once per module.
        assert_eq!(d.driver_mut().issued().len(), shell_rbbs);
        let health = d
            .driver_mut()
            .cmd_raw_resilient(0, 0, harmonia_cmd::CommandCode::HealthRead, Vec::new())
            .unwrap();
        assert_eq!(health.data.len(), 4);
    }

    #[test]
    fn adapters_reflect_device() {
        let d = Harmonia::deploy(&catalog::device_d(), &role()).unwrap();
        assert_eq!(d.device_adapter().device_name(), "Device D");
        assert!(d
            .vendor_adapter()
            .environment()
            .contains_key("quartus"));
    }
}
