//! Framework identities, capability classes (Table 1) and device support
//! (Table 3).

use harmonia_hw::device::FpgaDevice;
use harmonia_hw::Vendor;
use std::fmt;

/// The frameworks compared in §5.4.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Framework {
    /// Xilinx Vitis (commercial).
    Vitis,
    /// Intel oneAPI / OFS (commercial).
    OneApi,
    /// Coyote (open-source FPGA OS).
    Coyote,
    /// This paper's framework.
    Harmonia,
}

impl Framework {
    /// All frameworks, in the paper's comparison order.
    pub const ALL: [Framework; 4] = [
        Framework::Vitis,
        Framework::OneApi,
        Framework::Coyote,
        Framework::Harmonia,
    ];

    /// The baselines (everything but Harmonia).
    pub const BASELINES: [Framework; 3] = [Framework::Vitis, Framework::OneApi, Framework::Coyote];

    /// Whether the framework supports a device (Table 3): Vitis covers
    /// Xilinx parts, Coyote only Xilinx Alveo-class boards, oneAPI only
    /// Intel parts; none of them supports in-house custom boards, whose
    /// shells require redesign under their monolithic structure.
    pub fn supports(self, device: &FpgaDevice) -> bool {
        match self {
            Framework::Vitis => device.vendor() == Vendor::Xilinx,
            Framework::OneApi => device.vendor() == Vendor::Intel,
            Framework::Coyote => {
                device.vendor() == Vendor::Xilinx && device.die_vendor() == Vendor::Xilinx
            }
            Framework::Harmonia => true,
        }
    }
}

impl fmt::Display for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Framework::Vitis => "Vitis",
            Framework::OneApi => "oneAPI",
            Framework::Coyote => "Coyote",
            Framework::Harmonia => "Harmonia",
        };
        f.write_str(s)
    }
}

/// A Table 1 capability level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Capability {
    /// Fully provided.
    Yes,
    /// Not provided.
    No,
    /// Provided but "requires laborious development workloads or ad-hoc
    /// modifications" on cross-vendor FPGAs (the table's △).
    Laborious,
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Capability::Yes => "yes",
            Capability::No => "no",
            Capability::Laborious => "laborious",
        };
        f.write_str(s)
    }
}

/// One framework class's row of Table 1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CapabilityMatrix {
    /// Handles heterogeneous FPGAs at all.
    pub heterogeneity: Capability,
    /// Provides a unified shell across devices.
    pub unified_shell: Capability,
    /// Roles port with minimal modification.
    pub portable_role: Capability,
    /// Host interface consistent across devices.
    pub consistent_host_if: Capability,
}

impl CapabilityMatrix {
    /// The Table 1 row for a framework (classing Vitis/oneAPI as the
    /// commercial-framework row and Coyote as the FPGA-OS row).
    pub fn of(framework: Framework) -> CapabilityMatrix {
        use Capability::*;
        match framework {
            Framework::Vitis | Framework::OneApi => CapabilityMatrix {
                heterogeneity: Yes,
                unified_shell: Laborious,
                portable_role: Yes,
                consistent_host_if: Laborious,
            },
            Framework::Coyote => CapabilityMatrix {
                heterogeneity: Yes,
                unified_shell: Laborious,
                portable_role: Yes,
                consistent_host_if: Laborious,
            },
            Framework::Harmonia => CapabilityMatrix {
                heterogeneity: Yes,
                unified_shell: Yes,
                portable_role: Yes,
                consistent_host_if: Yes,
            },
        }
    }

    /// Whether every capability is fully provided.
    #[cfg(test)]
    fn is_comprehensive(&self) -> bool {
        [
            self.heterogeneity,
            self.unified_shell,
            self.portable_role,
            self.consistent_host_if,
        ]
        .iter()
        .all(|c| *c == Capability::Yes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;

    #[test]
    fn table3_support_matrix() {
        let a = catalog::device_a(); // Xilinx
        let b = catalog::device_b(); // in-house (Xilinx die)
        let c = catalog::device_c(); // in-house (Intel die)
        let d = catalog::device_d(); // Intel

        assert!(Framework::Vitis.supports(&a));
        assert!(!Framework::Vitis.supports(&b)); // custom board
        assert!(!Framework::Vitis.supports(&d));

        assert!(Framework::OneApi.supports(&d));
        assert!(!Framework::OneApi.supports(&a));
        assert!(!Framework::OneApi.supports(&c)); // custom board

        assert!(Framework::Coyote.supports(&a));
        assert!(!Framework::Coyote.supports(&c));

        for dev in catalog::all() {
            assert!(Framework::Harmonia.supports(&dev), "{}", dev.name());
        }
    }

    #[test]
    fn only_harmonia_is_comprehensive() {
        for f in Framework::ALL {
            let m = CapabilityMatrix::of(f);
            assert_eq!(m.is_comprehensive(), f == Framework::Harmonia);
        }
    }

    #[test]
    fn every_baseline_misses_in_house_devices() {
        let b = catalog::device_b();
        let c = catalog::device_c();
        for f in Framework::BASELINES {
            assert!(!f.supports(&b) || !f.supports(&c));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Framework::OneApi.to_string(), "oneAPI");
        assert_eq!(Capability::Laborious.to_string(), "laborious");
    }
}
