//! The unified shell abstraction (§3.3.1).
//!
//! [`UnifiedShell::for_device`] instantiates every RBB a device's
//! peripherals support — at their maximum performance points — plus the
//! shell-management logic (health monitoring, dynamic configuration, board
//! I/O). It is deliberately one-size-fits-all: Figure 11's point is that
//! this unified shell costs more resources than a role needs, which is
//! what hierarchical tailoring then recovers.

use crate::rbb::{
    HostRbb, LogicComponent, LogicPart, MemoryRbb, MigrationKind, NetworkRbb, Portability, Rbb,
    RbbKind,
};
use harmonia_hw::device::{FpgaDevice, Peripheral};
use harmonia_hw::resource::ResourceUsage;
use harmonia_metrics::config::ConfigInventory;
use harmonia_metrics::workload::{ModuleWorkload, Origin};

/// Shell-management logic present in every shell instance: the §2.1
/// production-shell functionality that is not tied to one RBB.
pub(crate) fn management_components() -> Vec<LogicComponent> {
    vec![
        LogicComponent {
            name: "health-monitor",
            part: LogicPart::Monitoring,
            portability: Portability::Universal,
            loc: 1_800,
            resources: ResourceUsage::new(2_600, 3_900, 4, 0, 0),
        },
        LogicComponent {
            name: "dynamic-config",
            part: LogicPart::Control,
            portability: Portability::VendorBound,
            loc: 1_400,
            resources: ResourceUsage::new(2_000, 2_800, 6, 0, 0),
        },
        LogicComponent {
            name: "board-io",
            part: LogicPart::InstanceGlue,
            portability: Portability::ChipBound,
            loc: 800,
            resources: ResourceUsage::new(1_100, 1_600, 0, 0, 0),
        },
        LogicComponent {
            name: "sensor-bus",
            part: LogicPart::Control,
            portability: Portability::VendorBound,
            loc: 600,
            resources: ResourceUsage::new(800, 1_200, 0, 0, 0),
        },
    ]
}

/// The DDR a shell can use on a device: the number of DDR3/DDR4 channels
/// and the generation they run at (oldest wins when mixed; legacy boards
/// still carry DDR3). Only those two generations have a controller model,
/// so channels of any other generation are not counted, and a device with
/// none of them offers no DDR (`None`).
pub(crate) fn usable_ddr(device: &FpgaDevice) -> Option<(u32, u8)> {
    let gens = device.peripherals().iter().filter_map(|p| match *p {
        Peripheral::Ddr { gen, .. } if gen == 3 || gen == 4 => Some(gen),
        _ => None,
    });
    let (channels, oldest) = gens.fold((0, u8::MAX), |(n, old), gen| (n + 1, old.min(gen)));
    (channels > 0).then_some((channels, oldest))
}

/// The one-size-fits-all shell for a device.
#[derive(Debug)]
pub struct UnifiedShell {
    device: FpgaDevice,
    rbbs: Vec<Box<dyn Rbb>>,
    mgmt: Vec<LogicComponent>,
}

impl UnifiedShell {
    /// Builds the unified shell for a device: one Network RBB per network
    /// cage at the cage's full speed, Memory RBBs covering every DRAM kind
    /// present, and the Host RBB at the device's PCIe performance point.
    pub fn for_device(device: &FpgaDevice) -> Self {
        let die = device.die_vendor();
        let mut rbbs: Vec<Box<dyn Rbb>> = Vec::new();
        for p in device.peripherals() {
            match *p {
                Peripheral::Qsfp { gbps } | Peripheral::Dsfp { gbps } => {
                    rbbs.push(Box::new(NetworkRbb::with_speed(die, gbps, HostRbb::QUEUES)));
                }
                _ => {}
            }
        }
        if let Some((channels, gen)) = usable_ddr(device) {
            rbbs.push(Box::new(MemoryRbb::ddr(die, gen, channels)));
        }
        if device.has_hbm() {
            rbbs.push(Box::new(MemoryRbb::hbm(die)));
        }
        if let Some((gen, lanes)) = device.pcie() {
            rbbs.push(Box::new(HostRbb::with_link(die, gen, lanes)));
        }
        UnifiedShell {
            device: device.clone(),
            rbbs,
            mgmt: management_components(),
        }
    }

    /// The device this shell was built for.
    pub(crate) fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The device's name.
    pub(crate) fn device_name(&self) -> &str {
        self.device.name()
    }

    /// The shell's RBBs.
    pub fn rbbs(&self) -> &[Box<dyn Rbb>] {
        &self.rbbs
    }

    /// RBBs of one kind.
    pub fn rbbs_of(&self, kind: RbbKind) -> impl Iterator<Item = &dyn Rbb> + '_ {
        self.rbbs
            .iter()
            .filter(move |r| r.kind() == kind)
            .map(|r| r.as_ref())
    }

    /// Total shell resources: every RBB plus management logic.
    pub fn resources(&self) -> ResourceUsage {
        let rbb: ResourceUsage = self.rbbs.iter().map(|r| r.resources()).sum();
        let mgmt: ResourceUsage = self.mgmt.iter().map(|c| c.resources).sum();
        rbb + mgmt
    }

    /// The shell's development-workload inventory under a migration.
    pub fn workload(&self, migration: MigrationKind) -> ModuleWorkload {
        let mut w: ModuleWorkload = self.rbbs.iter().map(|r| r.workload(migration)).sum();
        for c in &self.mgmt {
            let origin = if c.portability.reused_under(migration) {
                Origin::Reused
            } else {
                Origin::Handcraft
            };
            w.add(c.name, c.loc, origin);
        }
        w
    }

    /// The merged configuration inventory across all RBBs.
    pub fn config_inventory(&self) -> ConfigInventory {
        let mut inv = ConfigInventory::new(format!("{}-unified-shell", self.device_name()));
        for r in &self.rbbs {
            inv.merge(&r.config_inventory());
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;

    #[test]
    fn device_a_gets_every_rbb_kind() {
        let shell = UnifiedShell::for_device(&catalog::device_a());
        assert_eq!(shell.rbbs_of(RbbKind::Network).count(), 2); // 2 cages
        assert_eq!(shell.rbbs_of(RbbKind::Memory).count(), 2); // DDR + HBM
        assert_eq!(shell.rbbs_of(RbbKind::Host).count(), 1);
    }

    #[test]
    fn device_c_has_no_memory_rbb() {
        let shell = UnifiedShell::for_device(&catalog::device_c());
        assert_eq!(shell.rbbs_of(RbbKind::Memory).count(), 0);
        assert_eq!(shell.rbbs_of(RbbKind::Network).count(), 2);
    }

    #[test]
    fn unified_shell_fits_every_catalog_device() {
        for dev in catalog::all() {
            let shell = UnifiedShell::for_device(&dev);
            assert!(
                shell
                    .resources()
                    .retargeted_for(dev.capacity())
                    .fits_in(dev.capacity()),
                "{}: shell does not fit",
                dev.name()
            );
            // A production shell is a significant but minority share.
            let pct = shell
                .resources()
                .percent_of(dev.capacity(), harmonia_hw::ResourceKind::Lut);
            assert!(pct > 5.0 && pct < 50.0, "{}: LUT {pct:.1}%", dev.name());
        }
    }

    #[test]
    fn shell_reuse_fraction_in_band_across_devices() {
        // Figure 15: applications show 70–80 % shell reuse across FPGAs;
        // the unified shell's own cross-migration reuse must sit in a
        // compatible range.
        let shell = UnifiedShell::for_device(&catalog::device_a());
        let xv = shell.workload(MigrationKind::CrossVendor).reuse_fraction();
        let xc = shell.workload(MigrationKind::CrossChip).reuse_fraction();
        assert!((0.64..0.80).contains(&xv), "cross-vendor {xv:.3}");
        assert!((0.80..0.95).contains(&xc), "cross-chip {xc:.3}");
    }

    #[test]
    fn config_inventory_merges_all_rbbs() {
        let shell = UnifiedShell::for_device(&catalog::device_d());
        let inv = shell.config_inventory();
        // 2 network + 1 memory + 1 host RBB, each with ≥20 items.
        assert!(inv.total() > 80, "only {} items", inv.total());
        assert!(inv.role_oriented() >= 12);
    }
}
