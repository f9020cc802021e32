//! Project implementation (§4, Stage 2): the automated integration
//! toolchain.
//!
//! "Firstly, Harmonia loads the vendor adapter and checks the dependencies
//! between modules and environments. After ensuring that there are no
//! dependency conflicts, Harmonia completes platform configurations and
//! invokes corresponding CAD tools for compilation. Finally, the FPGA
//! executable bitstream and software are packaged together into a
//! consolidated project file."
//!
//! The CAD invocation is modelled by a compile-time estimator (placement
//! effort scales with utilization) and a content-derived bitstream id, so
//! identical inputs reproduce identical bundles.

use harmonia_hw::device::FpgaDevice;
use harmonia_hw::resource::ResourceUsage;
use harmonia_platform::{CompatError, DeviceAdapter, ModuleDeps, VendorAdapter, Version};
use harmonia_shell::{RoleSpec, TailorError, TailoredShell, UnifiedShell};
use std::error::Error;
use std::fmt;

/// A consolidated project file: bitstream + software manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProjectBundle {
    /// Project name (role name).
    pub name: String,
    /// Target device name.
    pub device: String,
    /// CAD tool that produced the bitstream.
    pub cad_tool: String,
    /// Content-derived bitstream identifier (deterministic).
    pub bitstream_id: u64,
    /// Estimated compile wall-clock in minutes.
    pub compile_minutes: u32,
    /// Software components packaged alongside the bitstream.
    pub software_manifest: Vec<String>,
}

impl fmt::Display for ProjectBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} [{:016x}] via {} ({} min compile, {} sw components)",
            self.name,
            self.device,
            self.bitstream_id,
            self.cad_tool,
            self.compile_minutes,
            self.software_manifest.len()
        )
    }
}

/// Project-implementation failures.
#[derive(Debug)]
pub enum ProjectError {
    /// Tailoring failed.
    Tailor(TailorError),
    /// Dependency inspection found conflicts.
    Compat(Vec<CompatError>),
}

impl fmt::Display for ProjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectError::Tailor(e) => write!(f, "tailoring: {e}"),
            ProjectError::Compat(es) => write!(f, "{} dependency conflicts", es.len()),
        }
    }
}

impl Error for ProjectError {}

impl From<TailorError> for ProjectError {
    fn from(e: TailorError) -> Self {
        ProjectError::Tailor(e)
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Estimates place-and-route wall-clock from device size and utilization:
/// effort grows superlinearly as the design fills the part.
fn compile_minutes(shell: &ResourceUsage, role: &ResourceUsage, capacity: &ResourceUsage) -> u32 {
    let used = (*shell + *role).retargeted_for(capacity);
    let util = used.max_percent_of(capacity) / 100.0;
    let base = (capacity.lut / 40_000) as f64; // bigger dies route longer
    let effort = 1.0 + 4.0 * util * util;
    (base * effort).ceil() as u32
}

/// Builds the consolidated project file for a role on a device.
///
/// # Errors
///
/// Tailoring or dependency-inspection failures abort the build before any
/// "compilation" happens, exactly like the production flow.
pub fn build_project(device: &FpgaDevice, role: &RoleSpec) -> Result<ProjectBundle, ProjectError> {
    // 1. Load adapters and inspect dependencies.
    let vendor_adapter = VendorAdapter::generate(device.die_vendor());
    let _device_adapter = DeviceAdapter::generate(device);
    let unified = UnifiedShell::for_device(device);
    let shell = TailoredShell::tailor(&unified, role)?;
    let deps: Vec<ModuleDeps> = shell
        .rbbs()
        .iter()
        .map(|rbb| {
            ModuleDeps::new(rbb.instance().instance_name()).require(
                rbb.instance().vendor().cad_tool(),
                Version::new(
                    if rbb.instance().vendor().cad_tool() == "vivado" {
                        2023
                    } else {
                        23
                    },
                    0,
                    0,
                ),
            )
        })
        .collect();
    vendor_adapter
        .inspect(&deps)
        .map_err(ProjectError::Compat)?;

    // 2. "Compile": derive the bitstream id from everything that shapes
    //    the netlist, and estimate the P&R effort.
    let mut id = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut id, device.part().as_bytes());
    fnv1a(&mut id, role.name().as_bytes());
    for rbb in shell.rbbs() {
        fnv1a(&mut id, rbb.instance().instance_name().as_bytes());
        for c in rbb.components() {
            fnv1a(&mut id, c.name.as_bytes());
            fnv1a(&mut id, &c.loc.to_le_bytes());
        }
    }
    let minutes = compile_minutes(&shell.resources(), role.role_resources(), device.capacity());

    // 3. Package bitstream + software.
    let mut software = vec![
        "harmonia-driver".to_string(),
        "cmd-interface-lib".to_string(),
        "ctrl-tool".to_string(),
    ];
    for rbb in shell.rbbs() {
        software.push(format!("{}-runtime", rbb.kind().to_string().to_lowercase()));
    }
    software.sort();
    software.dedup();

    Ok(ProjectBundle {
        name: role.name().to_string(),
        device: device.name().to_string(),
        cad_tool: device.die_vendor().cad_tool().to_string(),
        bitstream_id: id,
        compile_minutes: minutes,
        software_manifest: software,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_shell::MemoryDemand;

    fn role() -> RoleSpec {
        RoleSpec::builder("pkg-test")
            .network_gbps(100)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build()
    }

    #[test]
    fn builds_are_deterministic() {
        let a = build_project(&catalog::device_a(), &role()).unwrap();
        let b = build_project(&catalog::device_a(), &role()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.cad_tool, "vivado");
    }

    #[test]
    fn different_devices_produce_different_bitstreams() {
        let a = build_project(&catalog::device_a(), &role()).unwrap();
        let d = build_project(&catalog::device_d(), &role()).unwrap();
        assert_ne!(a.bitstream_id, d.bitstream_id);
        assert_eq!(d.cad_tool, "quartus");
    }

    #[test]
    fn compile_time_scales_with_utilization() {
        let small = RoleSpec::builder("small")
            .network_gbps(25)
            .network_ports(1)
            .role_resources(ResourceUsage::new(10_000, 10_000, 10, 0, 0))
            .build();
        let big = RoleSpec::builder("big")
            .network_gbps(100)
            .memory(MemoryDemand::Hbm)
            .role_resources(ResourceUsage::new(400_000, 500_000, 400, 100, 2_000))
            .build();
        let ps = build_project(&catalog::device_a(), &small).unwrap();
        let pb = build_project(&catalog::device_a(), &big).unwrap();
        assert!(pb.compile_minutes > ps.compile_minutes);
        // Sanity: hours not days, minutes not seconds.
        assert!((5..600).contains(&ps.compile_minutes));
    }

    #[test]
    fn software_manifest_follows_shell_composition() {
        let p = build_project(&catalog::device_a(), &role()).unwrap();
        assert!(p.software_manifest.iter().any(|s| s == "network-runtime"));
        assert!(p.software_manifest.iter().any(|s| s == "memory-runtime"));
        assert!(p.software_manifest.iter().any(|s| s == "host-runtime"));
        assert!(p.software_manifest.iter().any(|s| s == "harmonia-driver"));
    }

    #[test]
    fn capability_failure_aborts_before_compile() {
        let bad = RoleSpec::builder("x").memory(MemoryDemand::Hbm).build();
        let err = build_project(&catalog::device_c(), &bad).unwrap_err();
        assert!(matches!(err, ProjectError::Tailor(_)));
    }

    #[test]
    fn bundle_display() {
        let p = build_project(&catalog::device_b(), &role()).unwrap();
        let s = p.to_string();
        assert!(s.contains("Device B") && s.contains("vivado"));
    }
}
