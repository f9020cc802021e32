//! HBM stack controller model (Xilinx HBM-enabled UltraScale+ parts).
//!
//! An 8 GiB HBM2 stack exposes 32 pseudo-channels behind an internal
//! crossbar; the aggregate bandwidth the paper quotes (460 GB/s, §3.3.1)
//! emerges from 32 × 14.4 GB/s channels. Only Xilinx dice in the catalog
//! carry HBM, so there is a single vendor flavour.

use crate::iface::{self, InterfaceSpec, SignalDir};
use crate::ip::dram::{DramModel, DramTiming};
use crate::ip::{IpKind, VendorIp};
use crate::regfile::{Access, RegOp, RegisterFile};
use crate::resource::ResourceUsage;
use crate::vendor::Vendor;
use harmonia_sim::Freq;

/// An HBM controller instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HbmIp {
    vendor: Vendor,
}

impl HbmIp {
    /// Number of pseudo-channels per stack.
    pub(crate) const CHANNELS: u32 = 32;

    /// Creates an HBM controller model.
    pub fn new(vendor: Vendor) -> Self {
        HbmIp { vendor }
    }

    /// Aggregate peak bandwidth across all channels, GB/s.
    pub fn aggregate_peak_gbs(&self) -> f64 {
        DramTiming::hbm2_channel().peak_gbs() * f64::from(Self::CHANNELS)
    }

    /// Creates the per-channel timing models.
    pub fn channels(&self) -> Vec<DramModel> {
        (0..Self::CHANNELS)
            .map(|_| DramModel::new(DramTiming::hbm2_channel()))
            .collect()
    }
}

impl VendorIp for HbmIp {
    fn kind(&self) -> IpKind {
        IpKind::Hbm
    }

    fn vendor(&self) -> Vendor {
        self.vendor
    }

    fn instance_name(&self) -> String {
        format!(
            "{}-hbm2",
            self.vendor.to_string().to_lowercase().replace('-', "")
        )
    }

    fn native_interface(&self) -> InterfaceSpec {
        iface::axi4_mm("hbm_axi", 256, 33)
            .signal("apb_complete", 1, SignalDir::Out)
            .signal("dram_stat_cattrip", 1, SignalDir::Out)
            .signal("dram_stat_temp", 7, SignalDir::Out)
            .config("STACK_COUNT", "1")
            .config("CHANNEL_ENABLE", "0xFFFFFFFF")
            .config("SWITCH_ENABLE", "true")
            .config("REORDER_EN", "true")
            .config("REFRESH_MODE", "single")
            .config("CLOCK_FREQ_MHZ", "900")
            .config("ECC_BYPASS", "false")
    }

    fn register_map(&self) -> RegisterFile {
        let mut rf = RegisterFile::new(self.instance_name());
        rf.define(0x000, "apb_status", Access::ReadOnly, 0);
        rf.define(0x004, "stack_ctrl", Access::ReadWrite, 0);
        rf.define(0x008, "temp", Access::ReadOnly, 35);
        rf.define(0x00C, "cattrip", Access::ReadOnly, 0);
        rf.define_block(0x100, "ch_enable_", 32, Access::ReadWrite, 1);
        rf.define_block(0x200, "ch_stat_", 32, Access::ReadOnly, 0);
        rf
    }

    fn init_sequence(&self) -> Vec<RegOp> {
        let mut ops = vec![
            RegOp::Write {
                addr: 0x004,
                value: 0x1,
            },
            RegOp::WaitStatus {
                addr: 0x000,
                mask: 0x1,
                expect: 0x1,
            },
        ];
        for ch in 0..8u32 {
            // Channels come up in groups of four.
            ops.push(RegOp::Write {
                addr: 0x100 + 16 * ch,
                value: 0xF,
            });
        }
        ops.push(RegOp::Read { addr: 0x008 });
        ops
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage::new(14_000, 17_500, 58, 0, 0)
    }

    fn data_width_bits(&self) -> u32 {
        256
    }

    fn core_clock(&self) -> Freq {
        Freq::mhz(450)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_bandwidth_matches_paper() {
        let hbm = HbmIp::new(Vendor::Xilinx);
        assert!((hbm.aggregate_peak_gbs() - 460.8).abs() < 1.0);
    }

    #[test]
    fn thirty_two_channels() {
        assert_eq!(HbmIp::new(Vendor::Xilinx).channels().len(), 32);
    }

    #[test]
    fn register_map_covers_channels() {
        let rf = HbmIp::new(Vendor::Xilinx).register_map();
        assert!(rf.addr_of("ch_enable_31").is_some());
        assert!(rf.addr_of("ch_stat_31").is_some());
    }
}
