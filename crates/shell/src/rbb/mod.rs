//! The Reusable Building Block (RBB) abstraction (§3.3.1).
//!
//! Each RBB = a **specific instance** (a vendor IP selected to match the
//! role's performance demands) + **reusable logic** (ex-functions for
//! performance/feature enhancement, plus control and monitoring logic).
//! The reusable logic is what survives migration across FPGA generations;
//! the instance and a thin layer of glue are what gets swapped.
//!
//! The paper's Figure 14 measures exactly this split, so every logic
//! component declares its [`Portability`]: universal components survive any
//! migration, vendor-bound components are redeveloped when the die vendor
//! changes, chip-bound components whenever the chip changes.

pub mod host;
pub mod memory;
pub mod network;
pub mod rdma;

pub use host::HostRbb;
pub use memory::MemoryRbb;
pub use network::NetworkRbb;
pub use rdma::{RdmaConfig, RdmaEngine};

use harmonia_hw::device::FpgaDevice;
use harmonia_hw::ip::VendorIp;
use harmonia_hw::regfile::RegisterFile;
use harmonia_hw::resource::ResourceUsage;
use harmonia_metrics::config::ConfigInventory;
use harmonia_metrics::workload::{ModuleWorkload, Origin};
use std::fmt;

/// The RBB categories of §3.3.1.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RbbKind {
    /// Packet/flow network processing.
    Network,
    /// External memory (DDR/HBM).
    Memory,
    /// Host connectivity via PCIe DMA.
    Host,
}

impl RbbKind {
    /// All RBB kinds.
    pub const ALL: [RbbKind; 3] = [RbbKind::Network, RbbKind::Memory, RbbKind::Host];

    /// The RBB id used in command packets (Figure 9's `RBB ID` field).
    pub fn id(self) -> u8 {
        match self {
            RbbKind::Network => 1,
            RbbKind::Memory => 2,
            RbbKind::Host => 3,
        }
    }

    /// Parses a command-packet RBB id.
    pub fn from_id(id: u8) -> Option<RbbKind> {
        match id {
            1 => Some(RbbKind::Network),
            2 => Some(RbbKind::Memory),
            3 => Some(RbbKind::Host),
            _ => None,
        }
    }
}

impl fmt::Display for RbbKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RbbKind::Network => "Network",
            RbbKind::Memory => "Memory",
            RbbKind::Host => "Host",
        };
        f.write_str(s)
    }
}

/// Numbers `rbbs` per kind in attach order: the `n`-th RBB of a kind is
/// instance `n` of its RBB id — the address the control kernel registers
/// it under and every command targets.
pub fn instances<'a>(
    rbbs: impl IntoIterator<Item = &'a dyn Rbb>,
) -> impl Iterator<Item = (&'a dyn Rbb, u8)> {
    let mut next = [0u8; 256];
    rbbs.into_iter().map(move |rbb| {
        let n = &mut next[usize::from(rbb.kind().id())];
        let instance = *n;
        *n += 1;
        (rbb, instance)
    })
}

/// How a migration between two devices is classified.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MigrationKind {
    /// Same chip family and vendor — nothing is redeveloped.
    SamePlatform,
    /// Same die vendor, different chip family/peripherals (devices A↔B).
    CrossChip,
    /// Different die vendor (devices A↔C): toolchain, protocols and IP
    /// catalogs all change.
    CrossVendor,
}

impl MigrationKind {
    /// Classifies the migration between two devices.
    pub fn between(from: &FpgaDevice, to: &FpgaDevice) -> MigrationKind {
        if from.die_vendor() != to.die_vendor() {
            MigrationKind::CrossVendor
        } else if from.family() != to.family() || from.part() != to.part() {
            MigrationKind::CrossChip
        } else {
            MigrationKind::SamePlatform
        }
    }
}

impl fmt::Display for MigrationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MigrationKind::SamePlatform => "same-platform",
            MigrationKind::CrossChip => "cross-chip",
            MigrationKind::CrossVendor => "cross-vendor",
        };
        f.write_str(s)
    }
}

/// How far a logic component travels across platforms unchanged.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Portability {
    /// Pure algorithmic logic on unified interfaces: reused everywhere
    /// (ex-functions, statistic cores, CDC).
    Universal,
    /// Depends on vendor conventions (control sequencing, monitor probes):
    /// redeveloped on cross-vendor migrations.
    VendorBound,
    /// Depends on the exact chip/board (instance glue, PHY hookup):
    /// redeveloped on any chip change.
    ChipBound,
}

impl Portability {
    /// Whether a component with this portability is reused under the given
    /// migration.
    pub fn reused_under(self, migration: MigrationKind) -> bool {
        match migration {
            MigrationKind::SamePlatform => true,
            MigrationKind::CrossChip => self != Portability::ChipBound,
            MigrationKind::CrossVendor => self == Portability::Universal,
        }
    }
}

/// One component of an RBB's reusable logic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogicComponent {
    /// Component name.
    pub name: &'static str,
    /// Which reusable-logic part it belongs to (ex-function, control, …).
    pub part: LogicPart,
    /// Portability class.
    pub portability: Portability,
    /// Hardware-logic lines of code.
    pub loc: u64,
    /// Resource footprint.
    pub resources: ResourceUsage,
}

/// The reusable-logic taxonomy of Figure 6.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum LogicPart {
    /// Performance/feature enhancement (packet filter, hot cache, …).
    ExFunction,
    /// Initialization and runtime control.
    Control,
    /// Real-time statistics.
    Monitoring,
    /// Parameterized clock-domain crossing.
    Cdc,
    /// Instance-specific glue.
    InstanceGlue,
}

/// Object-safe surface shared by the three RBBs.
///
/// `Send + Sync` lets shells holding boxed RBBs be swept across the
/// `harmonia_sim::exec` worker pool.
pub trait Rbb: fmt::Debug + Send + Sync {
    /// The RBB category.
    fn kind(&self) -> RbbKind;

    /// The selected vendor-IP instance.
    fn instance(&self) -> &dyn VendorIp;

    /// The reusable-logic component inventory.
    fn components(&self) -> &[LogicComponent];

    /// A fresh register file covering the RBB's control and monitoring
    /// registers (monitor counters are hardware-set).
    fn register_file(&self) -> RegisterFile;

    /// The RBB's full configuration inventory with the shell-/role-oriented
    /// split used by property-level tailoring.
    fn config_inventory(&self) -> ConfigInventory;

    /// For Host RBBs: the queue count advertised to the role (drives how
    /// many queue contexts host software programs). `None` elsewhere.
    fn host_queue_hint(&self) -> Option<u16> {
        None
    }

    /// Total resources: instance + wrapper + reusable logic.
    fn resources(&self) -> ResourceUsage {
        let logic: ResourceUsage = self.components().iter().map(|c| c.resources).sum();
        self.instance().resources() + logic
    }

    /// The development-workload inventory for a migration: the vendor IP
    /// itself is script-generated/off-the-shelf, and each logic component
    /// lands as reused or handcraft per its portability.
    fn workload(&self, migration: MigrationKind) -> ModuleWorkload {
        let mut w = ModuleWorkload::new(format!("{}-rbb", self.kind()));
        // Off-the-shelf IP + generated constraints are excluded, as in the
        // paper's methodology.
        w.add("vendor-instance", 4_000, Origin::ScriptGenerated);
        for c in self.components() {
            let origin = if c.portability.reused_under(migration) {
                Origin::Reused
            } else {
                Origin::Handcraft
            };
            w.add(c.name, c.loc, origin);
        }
        w
    }
}

/// Sums the resources of a set of RBBs.
pub fn total_resources<'a, I: IntoIterator<Item = &'a dyn Rbb>>(rbbs: I) -> ResourceUsage {
    rbbs.into_iter().map(|r| r.resources()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;

    #[test]
    fn migration_classification_matches_fig14_setup() {
        let a = catalog::device_a();
        let b = catalog::device_b();
        let c = catalog::device_c();
        // Devices A & B: cross chip families (§5.3).
        assert_eq!(MigrationKind::between(&a, &b), MigrationKind::CrossChip);
        // Devices A & C: cross vendors.
        assert_eq!(MigrationKind::between(&a, &c), MigrationKind::CrossVendor);
        assert_eq!(MigrationKind::between(&a, &a), MigrationKind::SamePlatform);
    }

    #[test]
    fn portability_rules() {
        use MigrationKind::*;
        use Portability::*;
        assert!(Universal.reused_under(CrossVendor));
        assert!(VendorBound.reused_under(CrossChip));
        assert!(!VendorBound.reused_under(CrossVendor));
        assert!(!ChipBound.reused_under(CrossChip));
        assert!(ChipBound.reused_under(SamePlatform));
    }

    #[test]
    fn rbb_ids_round_trip() {
        for kind in RbbKind::ALL {
            assert_eq!(RbbKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(RbbKind::from_id(0), None);
        assert_eq!(RbbKind::from_id(9), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(RbbKind::Network.to_string(), "Network");
        assert_eq!(MigrationKind::CrossVendor.to_string(), "cross-vendor");
    }
}
