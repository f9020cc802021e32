//! Vendor IP models.
//!
//! The specific-instance half of every RBB (§3.3.1) is a vendor IP: a MAC,
//! a PCIe DMA engine, a DDR controller or an HBM stack. Each model here
//! carries the four things the evaluation needs:
//!
//! 1. a **native interface** ([`InterfaceSpec`]) in the vendor's protocol —
//!    AXI for Xilinx dice, Avalon for Intel dice — whose differences drive
//!    Figure 3b;
//! 2. a **register map** and a vendor-specific **init sequence** — the
//!    ad-hoc software-modification source of Figures 3d and 13;
//! 3. a **resource footprint** for Figures 11/16/18a;
//! 4. a **performance model** (line rate, protocol overheads, DRAM timing)
//!    for Figures 10, 17 and 18b–d.

pub mod ddr;
pub mod dram;
pub mod hbm;
pub mod mac;
pub mod pcie;

pub use ddr::DdrIp;
pub use dram::{DramModel, DramTiming, MemOp};
pub use hbm::HbmIp;
pub use mac::MacIp;
pub use pcie::PcieDmaIp;

use crate::iface::InterfaceSpec;
use crate::regfile::{RegOp, RegisterFile};
use crate::resource::ResourceUsage;
use crate::vendor::Vendor;
use harmonia_sim::Freq;
use std::fmt;

/// The IP categories the paper analyzes (Figure 3b's x-axis plus HBM).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpKind {
    /// Ethernet MAC (packet-level network processing).
    Mac,
    /// PCIe hard IP (physical/link layers).
    Pcie,
    /// DMA engine on top of PCIe.
    Dma,
    /// Transaction-layer packet processing helper.
    Tlp,
    /// DDR3/DDR4 memory controller.
    Ddr,
    /// High-bandwidth-memory controller.
    Hbm,
}

impl IpKind {
    /// The five kinds charted in Figure 3b.
    pub const FIG3B: [IpKind; 5] = [
        IpKind::Ddr,
        IpKind::Tlp,
        IpKind::Dma,
        IpKind::Pcie,
        IpKind::Mac,
    ];
}

impl fmt::Display for IpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IpKind::Mac => "MAC",
            IpKind::Pcie => "PCIe",
            IpKind::Dma => "DMA",
            IpKind::Tlp => "TLP",
            IpKind::Ddr => "DDR",
            IpKind::Hbm => "HBM",
        };
        f.write_str(s)
    }
}

/// Common surface of every vendor IP model.
///
/// This trait is object-safe: RBBs hold `Box<dyn VendorIp>` instances
/// selected at shell-tailoring time.
pub trait VendorIp: fmt::Debug {
    /// The IP category.
    fn kind(&self) -> IpKind;

    /// The die vendor whose toolchain ships this IP.
    fn vendor(&self) -> Vendor;

    /// A unique instance name, e.g. `xilinx-cmac-100g`.
    fn instance_name(&self) -> String;

    /// The vendor-native datapath interface.
    fn native_interface(&self) -> InterfaceSpec;

    /// The IP's register map (fresh copy at reset values).
    fn register_map(&self) -> RegisterFile;

    /// The vendor-specific initialization sequence software must run
    /// (absent Harmonia's command interface).
    fn init_sequence(&self) -> Vec<RegOp>;

    /// On-chip resource footprint of the IP plus its mandatory glue.
    fn resources(&self) -> ResourceUsage;

    /// Native datapath width in bits.
    fn data_width_bits(&self) -> u32;

    /// The IP's core clock.
    fn core_clock(&self) -> Freq;
}

/// Verifies that an init sequence actually initializes the IP: running it
/// against a fresh register map must succeed once the hardware has raised
/// any polled status bits.
///
/// # Errors
///
/// Returns the failing op's index and error message.
#[cfg(test)]
fn check_init_sequence(ip: &dyn VendorIp) -> Result<(), (usize, String)> {
    let mut rf = ip.register_map();
    for (i, op) in ip.init_sequence().iter().enumerate() {
        // Model the hardware raising status bits before software polls.
        if let RegOp::WaitStatus { addr, mask, expect } = *op {
            let cur = rf.read(addr).map_err(|e| (i, e.to_string()))?;
            rf.hw_set(addr, (cur & !mask) | expect)
                .map_err(|e| (i, e.to_string()))?;
        }
        rf.apply(op).map_err(|e| (i, e.to_string()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3b_kind_list() {
        assert_eq!(IpKind::FIG3B.len(), 5);
        assert!(IpKind::FIG3B.contains(&IpKind::Mac));
        assert!(!IpKind::FIG3B.contains(&IpKind::Hbm));
    }

    #[test]
    fn kind_display() {
        assert_eq!(IpKind::Ddr.to_string(), "DDR");
        assert_eq!(IpKind::Tlp.to_string(), "TLP");
    }

    #[test]
    fn all_catalog_ips_have_valid_init_sequences() {
        let ips: Vec<Box<dyn VendorIp>> = vec![
            Box::new(MacIp::new(Vendor::Xilinx, 100)),
            Box::new(MacIp::new(Vendor::Intel, 100)),
            Box::new(MacIp::new(Vendor::Xilinx, 25)),
            Box::new(MacIp::new(Vendor::Intel, 400)),
            Box::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8)),
            Box::new(PcieDmaIp::new(Vendor::Intel, 4, 16)),
            Box::new(PcieDmaIp::new(Vendor::Xilinx, 3, 16)),
            Box::new(DdrIp::new(Vendor::Xilinx, 4)),
            Box::new(DdrIp::new(Vendor::Intel, 4)),
            Box::new(HbmIp::new(Vendor::Xilinx)),
        ];
        for ip in &ips {
            check_init_sequence(ip.as_ref())
                .unwrap_or_else(|(i, e)| panic!("{} init op {i}: {e}", ip.instance_name()));
            assert!(!ip.resources().is_zero(), "{}", ip.instance_name());
            assert!(ip.data_width_bits() % 8 == 0);
        }
    }

    #[test]
    fn instance_names_unique_across_vendors() {
        let a = MacIp::new(Vendor::Xilinx, 100).instance_name();
        let b = MacIp::new(Vendor::Intel, 100).instance_name();
        assert_ne!(a, b);
    }
}
