//! FPGA vendors, chip families and process nodes.
//!
//! §3.3.1 of the paper characterizes an "FPGA generation" by vendor, chip
//! family (process node) and device peripherals, and lists the families
//! Harmonia supports in production. This module encodes that taxonomy.

use std::fmt;

/// An FPGA silicon vendor.
///
/// The paper's deployment mixes commercially available Xilinx and Intel
/// parts with customized in-house devices ordered for supply-chain security
/// (§2.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vendor {
    /// AMD/Xilinx devices (Virtex UltraScale(+), Zynq, Alveo boards).
    Xilinx,
    /// Intel/Altera devices (Agilex, Stratix, Arria).
    Intel,
    /// Custom in-house devices built around a commercial die but with a
    /// proprietary board, peripheral set and constraint flow.
    InHouse,
}

impl Vendor {
    /// All vendors, in display order.
    pub const ALL: [Vendor; 3] = [Vendor::Xilinx, Vendor::Intel, Vendor::InHouse];

    /// The vendor's CAD toolchain name, part of the vendor adapter's
    /// dependency key-value pairs (§3.2).
    pub fn cad_tool(self) -> &'static str {
        match self {
            Vendor::Xilinx => "vivado",
            Vendor::Intel => "quartus",
            Vendor::InHouse => "vivado",
        }
    }
}

impl fmt::Display for Vendor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Vendor::Xilinx => "Xilinx",
            Vendor::Intel => "Intel",
            Vendor::InHouse => "In-house",
        };
        f.write_str(s)
    }
}

/// A chip family with its process node, as enumerated in §3.3.1.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChipFamily {
    /// Virtex UltraScale+ (XCVU3P/9P/23P/35P), 14/16 nm.
    VirtexUltraScalePlus,
    /// Virtex UltraScale (XCVU125), 20 nm.
    VirtexUltraScale,
    /// Zynq 7000 SoC, 28 nm.
    Zynq7000,
    /// Agilex 5/7, 10 nm ("Intel 7").
    Agilex,
    /// Stratix 10, 14 nm.
    Stratix10,
    /// Arria 10, 20 nm.
    Arria10,
}

impl ChipFamily {
    /// All supported families.
    pub const ALL: [ChipFamily; 6] = [
        ChipFamily::VirtexUltraScalePlus,
        ChipFamily::VirtexUltraScale,
        ChipFamily::Zynq7000,
        ChipFamily::Agilex,
        ChipFamily::Stratix10,
        ChipFamily::Arria10,
    ];

    /// The silicon vendor of the family.
    pub fn vendor(self) -> Vendor {
        match self {
            ChipFamily::VirtexUltraScalePlus
            | ChipFamily::VirtexUltraScale
            | ChipFamily::Zynq7000 => Vendor::Xilinx,
            ChipFamily::Agilex | ChipFamily::Stratix10 | ChipFamily::Arria10 => Vendor::Intel,
        }
    }
}

impl fmt::Display for ChipFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ChipFamily::VirtexUltraScalePlus => "Virtex UltraScale+",
            ChipFamily::VirtexUltraScale => "Virtex UltraScale",
            ChipFamily::Zynq7000 => "Zynq 7000",
            ChipFamily::Agilex => "Agilex",
            ChipFamily::Stratix10 => "Stratix 10",
            ChipFamily::Arria10 => "Arria 10",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_vendor_mapping() {
        assert_eq!(ChipFamily::VirtexUltraScalePlus.vendor(), Vendor::Xilinx);
        assert_eq!(ChipFamily::Agilex.vendor(), Vendor::Intel);
        assert_eq!(ChipFamily::Zynq7000.vendor(), Vendor::Xilinx);
    }

    #[test]
    fn vendor_toolchains() {
        assert_eq!(Vendor::Xilinx.cad_tool(), "vivado");
        assert_eq!(Vendor::Intel.cad_tool(), "quartus");
    }

    #[test]
    fn all_lists_are_complete_and_unique() {
        let mut v = Vendor::ALL.to_vec();
        v.dedup();
        assert_eq!(v.len(), 3);
        let mut f = ChipFamily::ALL.to_vec();
        f.dedup();
        assert_eq!(f.len(), 6);
    }

    #[test]
    fn display_nonempty() {
        for f in ChipFamily::ALL {
            assert!(!f.to_string().is_empty());
        }
        for v in Vendor::ALL {
            assert!(!v.to_string().is_empty());
        }
    }
}
