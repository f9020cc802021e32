//! DDR3/DDR4 memory-controller IP models.
//!
//! Wraps the shared [`DramModel`] timing engine
//! with the vendor-specific controller shells: Xilinx MIG-style (AXI4-MM
//! user interface, a large generated configuration space) and Intel
//! EMIF-style (Avalon-MM, calibration-centric configuration).

use crate::iface::{self, InterfaceSpec, SignalDir};
use crate::ip::dram::{DramModel, DramTiming};
use crate::ip::{IpKind, VendorIp};
use crate::regfile::{Access, RegOp, RegisterFile};
use crate::resource::ResourceUsage;
use crate::vendor::Vendor;
use harmonia_sim::Freq;

/// A DDR controller instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DdrIp {
    vendor: Vendor,
    gen: u8,
}

impl DdrIp {
    /// Creates a DDR3 (`gen = 3`) or DDR4 (`gen = 4`) controller model.
    ///
    /// # Panics
    ///
    /// Panics if `gen` is not 3 or 4.
    pub fn new(vendor: Vendor, gen: u8) -> Self {
        assert!(gen == 3 || gen == 4, "unsupported DDR generation {gen}");
        DdrIp { vendor, gen }
    }

    /// The channel timing for this controller.
    pub(crate) fn timing(&self) -> DramTiming {
        if self.gen == 4 {
            DramTiming::ddr4_2400()
        } else {
            DramTiming::ddr3_1600()
        }
    }

    /// Creates a fresh channel timing model; [`DramModel::row_misses`]
    /// counts its row conflicts.
    pub fn channel(&self) -> DramModel {
        DramModel::new(self.timing())
    }

    /// Peak channel bandwidth in GB/s.
    pub fn peak_gbs(&self) -> f64 {
        self.timing().peak_gbs()
    }
}

impl VendorIp for DdrIp {
    fn kind(&self) -> IpKind {
        IpKind::Ddr
    }

    fn vendor(&self) -> Vendor {
        self.vendor
    }

    fn instance_name(&self) -> String {
        format!(
            "{}-ddr{}",
            self.vendor.to_string().to_lowercase().replace('-', ""),
            self.gen
        )
    }

    fn native_interface(&self) -> InterfaceSpec {
        match self.vendor {
            Vendor::Xilinx | Vendor::InHouse => iface::axi4_mm("ddr_axi", 512, 34)
                .signal("init_calib_complete", 1, SignalDir::Out)
                .signal("app_ref_req", 1, SignalDir::In)
                .signal("app_ref_ack", 1, SignalDir::Out)
                .signal("dbg_bus", 512, SignalDir::Out)
                .config("MEMORY_PART", format!("MT40A1G8-DDR{}", self.gen))
                .config("DATA_WIDTH", "64")
                .config("ECC", "ON")
                .config("CAS_LATENCY", "17")
                .config("MEMORY_FREQUENCY", "1200")
                .config("ADDR_MIRRORING", "OFF")
                .config("ORDERING", "NORM")
                .config("AUTO_PRECHARGE", "OFF")
                .config("PHY_RATIO", "4:1")
                .config("CLKOUT_PHASE", "337.5")
                .config("DQ_SLEW", "FAST")
                .config("OUTPUT_IMPEDANCE", "RZQ/7")
                .config("SELF_REFRESH", "ENABLE"),
            Vendor::Intel => iface::avalon_mm("ddr_avmm", 512, 31)
                .signal("amm_ready", 1, SignalDir::In)
                .signal("cal_success", 1, SignalDir::Out)
                .signal("cal_fail", 1, SignalDir::Out)
                .signal("pll_locked", 1, SignalDir::Out)
                .config("MEM_FORMAT", format!("DDR{}", self.gen))
                .config("SPEED_GRADE", "2400")
                .config("PHY_PING_PONG", "false")
                .config("CAL_MODE", "full")
                .config("MEM_CLK_FREQ_MHZ", "1200")
                .config("CTRL_AUTO_PRECHARGE_EN", "0")
                .config("REFRESH_BURST", "4")
                .config("EFFICIENCY_MONITOR", "disabled")
                .config("BOARD_SKEW_PS", "50")
                .config("IO_VOLTAGE", "1.2"),
        }
    }

    fn register_map(&self) -> RegisterFile {
        let mut rf = RegisterFile::new(self.instance_name());
        rf.define(0x000, "cal_status", Access::ReadOnly, 0);
        rf.define(0x004, "cal_ctrl", Access::ReadWrite, 0);
        rf.define(0x008, "refresh_ctrl", Access::ReadWrite, 0x40);
        rf.define(0x00C, "ecc_ctrl", Access::ReadWrite, 0x1);
        rf.define(0x010, "ecc_err_count", Access::ReadOnly, 0);
        rf.define(0x014, "temp_status", Access::ReadOnly, 0);
        rf.define(0x018, "interleave_ctrl", Access::ReadWrite, 0);
        rf.define(0x01C, "perf_rd_count", Access::ReadOnly, 0);
        rf.define(0x020, "perf_wr_count", Access::ReadOnly, 0);
        rf.define(0x024, "perf_stall_count", Access::ReadOnly, 0);
        rf.define_block(0x100, "mr_shadow_", 8, Access::ReadWrite, 0);
        rf
    }

    fn init_sequence(&self) -> Vec<RegOp> {
        match self.vendor {
            // MIG-style: trigger calibration, poll, program mode-register
            // shadows one by one.
            Vendor::Xilinx | Vendor::InHouse => {
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
                for i in 0..8u32 {
                    ops.push(RegOp::Write {
                        addr: 0x100 + 4 * i,
                        value: 0x0800 + i,
                    });
                }
                ops.push(RegOp::Write {
                    addr: 0x008,
                    value: 0x40,
                });
                ops.push(RegOp::Write {
                    addr: 0x00C,
                    value: 0x1,
                });
                ops.push(RegOp::Read { addr: 0x010 });
                ops
            }
            // EMIF-style: calibration autostarts; configure then verify.
            Vendor::Intel => vec![
                RegOp::Write {
                    addr: 0x008,
                    value: 0x80,
                },
                RegOp::Write {
                    addr: 0x00C,
                    value: 0x3,
                },
                RegOp::Write {
                    addr: 0x018,
                    value: 0x1,
                },
                RegOp::WaitStatus {
                    addr: 0x000,
                    mask: 0x3,
                    expect: 0x1,
                },
                RegOp::Read { addr: 0x014 },
            ],
        }
    }

    fn resources(&self) -> ResourceUsage {
        match self.vendor {
            Vendor::Xilinx | Vendor::InHouse => ResourceUsage::new(16_000, 21_000, 26, 0, 3),
            Vendor::Intel => ResourceUsage::new(13_000, 18_000, 45, 0, 0),
        }
    }

    fn data_width_bits(&self) -> u32 {
        512
    }

    fn core_clock(&self) -> Freq {
        Freq::mhz(300)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::dram::MemOp;

    #[test]
    fn ddr4_peak_is_19_2() {
        assert!((DdrIp::new(Vendor::Xilinx, 4).peak_gbs() - 19.2).abs() < 0.1);
        assert!((DdrIp::new(Vendor::Intel, 3).peak_gbs() - 12.8).abs() < 0.1);
    }

    #[test]
    fn channel_model_runs() {
        let ip = DdrIp::new(Vendor::Intel, 4);
        let mut ch = ip.channel();
        let (ps, bytes) = (0..1000u64)
            .map(|i| MemOp::read(i * 64, 64))
            .fold((0, 0), |(_, b), op| {
                (ch.access(0, op), b + u64::from(op.bytes))
            });
        assert!(ps > 0 && bytes == 64_000);
    }

    #[test]
    #[should_panic(expected = "unsupported DDR generation")]
    fn ddr5_not_modelled() {
        let _ = DdrIp::new(Vendor::Xilinx, 5);
    }

    #[test]
    fn vendor_configs_disjoint() {
        let x = DdrIp::new(Vendor::Xilinx, 4).native_interface();
        let i = DdrIp::new(Vendor::Intel, 4).native_interface();
        let d = x.diff(&i);
        assert!(d.configuration >= 20, "got {}", d.configuration);
    }

    #[test]
    fn init_sequences_both_calibrate() {
        for v in [Vendor::Xilinx, Vendor::Intel] {
            let ops = DdrIp::new(v, 4).init_sequence();
            assert!(ops.iter().any(|op| matches!(op, RegOp::WaitStatus { .. })));
        }
    }
}
