//! PCIe DMA engine IP models (Gen3/4/5, ×8/×16).
//!
//! Models the Xilinx QDMA-style engine (AXI4-MM + AXI4-Stream, descriptor
//! queues) and the Intel P-tile/R-tile MCDMA-style engine (Avalon-MM).
//! The performance model charges 128b/130b line coding, TLP header overhead
//! against the maximum payload size, and a flow-control efficiency factor —
//! which reproduces the Figure 10b shape: throughput that climbs with
//! request size to a plateau below the raw link rate.

use crate::iface::{self, InterfaceSpec, SignalDir};
use crate::ip::{IpKind, VendorIp};
use crate::regfile::{Access, RegOp, RegisterFile};
use crate::resource::ResourceUsage;
use crate::vendor::Vendor;
use harmonia_sim::{Freq, Picos};

/// TLP header + framing overhead per transaction-layer packet, bytes.
const TLP_OVERHEAD_BYTES: u32 = 24;
/// Maximum TLP payload size the deployment configures, bytes.
const MAX_PAYLOAD_BYTES: u32 = 256;
/// DLLP/flow-control/replay efficiency factor.
const LINK_EFFICIENCY: f64 = 0.95;

/// A PCIe DMA engine instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcieDmaIp {
    vendor: Vendor,
    gen: u8,
    lanes: u8,
}

impl PcieDmaIp {
    /// Number of DMA queues the engine exposes (the paper's Host RBB builds
    /// its 1K-queue isolation on top of these).
    pub const QUEUES: u32 = 1024;

    /// Creates a DMA engine model.
    ///
    /// # Panics
    ///
    /// Panics if `gen` is not 3–5 or `lanes` is not 8 or 16.
    pub fn new(vendor: Vendor, gen: u8, lanes: u8) -> Self {
        assert!((3..=5).contains(&gen), "unsupported PCIe generation {gen}");
        assert!(
            lanes == 8 || lanes == 16,
            "unsupported PCIe lane count {lanes}"
        );
        PcieDmaIp { vendor, gen, lanes }
    }

    /// PCIe generation (3, 4 or 5).
    pub fn gen(&self) -> u8 {
        self.gen
    }

    /// Lane count.
    pub fn lanes(&self) -> u8 {
        self.lanes
    }

    /// Raw link bandwidth in GB/s after line coding.
    pub fn raw_gbs(&self) -> f64 {
        let gt_per_lane = match self.gen {
            3 => 8.0,
            4 => 16.0,
            _ => 32.0,
        };
        // Gen3+ all use 128b/130b line coding (8b/10b ended with Gen2,
        // which the deployment never used).
        const CODING: f64 = 128.0 / 130.0;
        gt_per_lane * f64::from(self.lanes) * CODING / 8.0
    }

    /// Effective DMA throughput in GB/s for a given request size.
    pub fn throughput_gbs(&self, request_bytes: u32) -> f64 {
        assert!(request_bytes > 0, "zero-byte DMA request");
        // Each request splits into TLPs of at most MAX_PAYLOAD_BYTES.
        let payload = request_bytes.min(MAX_PAYLOAD_BYTES);
        let tlp_eff = f64::from(payload) / f64::from(payload + TLP_OVERHEAD_BYTES);
        // Small requests additionally pay per-request descriptor overhead.
        let desc_eff = f64::from(request_bytes) / (f64::from(request_bytes) + 64.0);
        self.raw_gbs() * tlp_eff * LINK_EFFICIENCY * desc_eff.min(1.0)
    }

    /// Round-trip latency of a DMA read of `request_bytes`, in ps: base
    /// request latency (host memory + root complex) plus transfer time.
    pub fn read_latency_ps(&self, request_bytes: u32) -> Picos {
        let base_ps: Picos = match self.gen {
            3 => 900_000,
            4 => 800_000,
            _ => 700_000,
        };
        let bw = self.throughput_gbs(request_bytes); // GB/s == B/ns
        base_ps + (f64::from(request_bytes) / bw * 1000.0) as Picos
    }

    /// User-side datapath width in bits (doubles per generation, §3.3.1).
    fn width_for(gen: u8, lanes: u8) -> u32 {
        match (gen, lanes) {
            (3, 8) => 256,
            (3, 16) | (4, 8) => 512,
            (4, 16) | (5, 8) => 1024,
            _ => 2048,
        }
    }
}

impl VendorIp for PcieDmaIp {
    fn kind(&self) -> IpKind {
        IpKind::Dma
    }

    fn vendor(&self) -> Vendor {
        self.vendor
    }

    fn instance_name(&self) -> String {
        format!(
            "{}-dma-gen{}x{}",
            self.vendor.to_string().to_lowercase().replace('-', ""),
            self.gen,
            self.lanes
        )
    }

    fn native_interface(&self) -> InterfaceSpec {
        let w = self.data_width_bits();
        match self.vendor {
            Vendor::Xilinx | Vendor::InHouse => {
                let mut spec = iface::axi4_mm("dma_axi_mm", w, 64);
                // QDMA-style descriptor bypass and completion interfaces.
                spec = spec
                    .signal("h2c_tdata", w, SignalDir::Out)
                    .signal("h2c_tvalid", 1, SignalDir::Out)
                    .signal("h2c_tready", 1, SignalDir::In)
                    .signal("h2c_tlast", 1, SignalDir::Out)
                    .signal("c2h_tdata", w, SignalDir::In)
                    .signal("c2h_tvalid", 1, SignalDir::In)
                    .signal("c2h_tready", 1, SignalDir::Out)
                    .signal("c2h_tlast", 1, SignalDir::In)
                    .signal("dsc_byp_load", 1, SignalDir::In)
                    .signal("dsc_byp_ready", 1, SignalDir::Out)
                    .signal("usr_irq_req", 16, SignalDir::In)
                    .signal("usr_irq_ack", 16, SignalDir::Out)
                    .config("MODE", "QDMA")
                    .config("PL_LINK_CAP_MAX_LINK_SPEED", format!("GEN{}", self.gen))
                    .config("PL_LINK_CAP_MAX_LINK_WIDTH", format!("X{}", self.lanes))
                    .config("AXI_DATA_WIDTH", w.to_string())
                    .config("MAX_PAYLOAD_SIZE", "256")
                    .config("MAX_READ_REQUEST_SIZE", "512")
                    .config("NUM_QUEUES", Self::QUEUES.to_string())
                    .config("SRIOV_CAP_ENABLE", "true")
                    .config("DESCRIPTOR_BYPASS", "true")
                    .config("MSIX_VECTORS", "32")
                    .config("BAR0_APERTURE", "64K")
                    .config("PCIE_BLOCK_LOCN", "X0Y1");
                spec
            }
            Vendor::Intel => iface::avalon_mm("dma_avmm", w, 64)
                .signal("rx_st_data", w, SignalDir::In)
                .signal("rx_st_valid", 1, SignalDir::In)
                .signal("rx_st_ready", 1, SignalDir::Out)
                .signal("tx_st_data", w, SignalDir::Out)
                .signal("tx_st_valid", 1, SignalDir::Out)
                .signal("tx_st_ready", 1, SignalDir::In)
                .signal("tx_cred", 8, SignalDir::In)
                .signal("msi_req", 1, SignalDir::Out)
                .config("HIP_MODE", "MCDMA")
                .config("PCIE_GEN", self.gen.to_string())
                .config("PCIE_LANES", self.lanes.to_string())
                .config("AVMM_WIDTH", w.to_string())
                .config("MAX_PAYLOAD", "256")
                .config("DMA_CHANNELS", Self::QUEUES.to_string())
                .config("ENABLE_SRIOV", "1")
                .config("COMPLETION_TIMEOUT", "ABCD")
                .config("VIRTUAL_FUNCTIONS", "16"),
        }
    }

    fn register_map(&self) -> RegisterFile {
        let mut rf = RegisterFile::new(self.instance_name());
        rf.define(0x000, "identifier", Access::ReadOnly, 0x1FD3_0001);
        rf.define(0x004, "global_ctrl", Access::ReadWrite, 0);
        rf.define(0x008, "global_status", Access::ReadOnly, 0);
        rf.define(0x00C, "ring_size", Access::ReadWrite, 512);
        rf.define(0x010, "wb_interval", Access::ReadWrite, 4);
        rf.define(0x014, "irq_vector", Access::ReadWrite, 0);
        rf.define(0x018, "func_map", Access::ReadWrite, 0);
        rf.define(0x01C, "queue_enable_base", Access::ReadWrite, 0);
        rf.define(0x020, "queue_arm", Access::WriteOnly, 0);
        rf.define(0x024, "link_status", Access::ReadOnly, 0);
        // Per-queue context registers (modelled for 16 queue blocks; real
        // engines index the rest indirectly through these).
        rf.define_block(0x100, "qctx_addr_lo_", 16, Access::ReadWrite, 0);
        rf.define_block(0x140, "qctx_addr_hi_", 16, Access::ReadWrite, 0);
        rf.define_block(0x180, "qctx_depth_", 16, Access::ReadWrite, 0);
        rf.define_block(0x1C0, "qstat_head_", 16, Access::ReadOnly, 0);
        rf.define_block(0x200, "qstat_tail_", 16, Access::ReadOnly, 0);
        rf
    }

    fn init_sequence(&self) -> Vec<RegOp> {
        let mut ops = Vec::new();
        match self.vendor {
            // QDMA-style: context programming per queue block with an arm +
            // status poll handshake.
            Vendor::Xilinx | Vendor::InHouse => {
                ops.push(RegOp::Write {
                    addr: 0x004,
                    value: 0x1,
                });
                ops.push(RegOp::WaitStatus {
                    addr: 0x024,
                    mask: 0x7,
                    expect: u32::from(self.gen),
                });
                ops.push(RegOp::Write {
                    addr: 0x00C,
                    value: 1024,
                });
                ops.push(RegOp::Write {
                    addr: 0x010,
                    value: 8,
                });
                for q in 0..8u32 {
                    ops.push(RegOp::Write {
                        addr: 0x100 + 4 * q,
                        value: 0x1000_0000 + q,
                    });
                    ops.push(RegOp::Write {
                        addr: 0x140 + 4 * q,
                        value: 0,
                    });
                    ops.push(RegOp::Write {
                        addr: 0x180 + 4 * q,
                        value: 512,
                    });
                    ops.push(RegOp::Write {
                        addr: 0x020,
                        value: q,
                    });
                    ops.push(RegOp::WaitStatus {
                        addr: 0x008,
                        mask: 0x1,
                        expect: 0x1,
                    });
                }
                ops.push(RegOp::Write {
                    addr: 0x014,
                    value: 0x20,
                });
                ops.push(RegOp::Read { addr: 0x000 });
            }
            // MCDMA-style: bulk writes, hardware sequences the contexts.
            Vendor::Intel => {
                ops.push(RegOp::Write {
                    addr: 0x004,
                    value: 0x3,
                });
                ops.push(RegOp::Write {
                    addr: 0x00C,
                    value: 2048,
                });
                ops.push(RegOp::Write {
                    addr: 0x018,
                    value: 0xFF,
                });
                for q in 0..8u32 {
                    ops.push(RegOp::Write {
                        addr: 0x100 + 4 * q,
                        value: 0x2000_0000 + q,
                    });
                    ops.push(RegOp::Write {
                        addr: 0x180 + 4 * q,
                        value: 1024,
                    });
                }
                ops.push(RegOp::Write {
                    addr: 0x01C,
                    value: 0xFF,
                });
                ops.push(RegOp::Read { addr: 0x024 });
            }
        }
        ops
    }

    fn resources(&self) -> ResourceUsage {
        let scale = u64::from(self.data_width_bits() / 256);
        match self.vendor {
            Vendor::Xilinx | Vendor::InHouse => ResourceUsage::new(
                30_000 + 8_000 * scale,
                45_000 + 10_000 * scale,
                60 + 20 * scale,
                8,
                0,
            ),
            Vendor::Intel => ResourceUsage::new(
                26_000 + 7_000 * scale,
                40_000 + 9_000 * scale,
                120 + 40 * scale,
                0,
                0,
            ),
        }
    }

    fn data_width_bits(&self) -> u32 {
        Self::width_for(self.gen, self.lanes)
    }

    fn core_clock(&self) -> Freq {
        match self.gen {
            3 => Freq::mhz(250),
            4 => Freq::mhz(250),
            _ => Freq::mhz(500),
        }
    }
}

/// The PCIe hard IP's own interface (PIPE/serial side plus configuration),
/// distinct from the DMA engine built on top of it — the Figure 3b "PCIe"
/// row.
pub fn pcie_hard_ip_spec(vendor: Vendor, gen: u8, lanes: u8) -> InterfaceSpec {
    match vendor {
        Vendor::Xilinx | Vendor::InHouse => {
            InterfaceSpec::new("pcie_hard_ip", crate::iface::Protocol::Proprietary)
                .signal_array("txp", u32::from(lanes), 1, SignalDir::Out)
                .signal_array("rxp", u32::from(lanes), 1, SignalDir::In)
                .signal("user_clk", 1, SignalDir::Out)
                .signal("user_reset", 1, SignalDir::Out)
                .signal("user_lnk_up", 1, SignalDir::Out)
                .signal("cfg_mgmt_addr", 10, SignalDir::In)
                .signal("cfg_mgmt_write_data", 32, SignalDir::In)
                .signal("cfg_mgmt_read_data", 32, SignalDir::Out)
                .signal("cfg_interrupt_int", 4, SignalDir::In)
                .signal("cfg_flr_done", 4, SignalDir::In)
                .config("PL_LINK_CAP_MAX_LINK_SPEED", format!("GEN{gen}"))
                .config("PL_LINK_CAP_MAX_LINK_WIDTH", format!("X{lanes}"))
                .config("AXISTEN_IF_EXT_512", "TRUE")
                .config("PF0_DEVICE_ID", "9038")
                .config("REF_CLK_FREQ", "100_MHz")
                .config("PCIE_BLK_LOCN", "X0Y1")
                .config("EXT_PIPE_SIM", "FALSE")
        }
        Vendor::Intel => InterfaceSpec::new("ptile_hip", crate::iface::Protocol::Proprietary)
            .signal_array("tx_out", u32::from(lanes), 1, SignalDir::Out)
            .signal_array("rx_in", u32::from(lanes), 1, SignalDir::In)
            .signal("coreclkout_hip", 1, SignalDir::Out)
            .signal("reset_status_n", 1, SignalDir::Out)
            .signal("link_up_o", 1, SignalDir::Out)
            .signal("tl_cfg_add", 5, SignalDir::Out)
            .signal("tl_cfg_ctl", 16, SignalDir::Out)
            .signal("app_int_sts", 1, SignalDir::In)
            .config("hip_reconfig", "disabled")
            .config("pld_clk_MHz", "250")
            .config("gen", gen.to_string())
            .config("lanes", lanes.to_string())
            .config("vsec_cap", "enabled")
            .config("slot_clock_config", "true"),
    }
}

/// The transaction-layer packet helper interface — the Figure 3b "TLP" row.
pub fn tlp_layer_spec(vendor: Vendor) -> InterfaceSpec {
    match vendor {
        Vendor::Xilinx | Vendor::InHouse => {
            InterfaceSpec::new("tlp_if", crate::iface::Protocol::Axi4Stream)
                .signal("rq_tdata", 512, SignalDir::Out)
                .signal("rq_tvalid", 1, SignalDir::Out)
                .signal("rq_tready", 1, SignalDir::In)
                .signal("rq_tuser", 137, SignalDir::Out)
                .signal("rc_tdata", 512, SignalDir::In)
                .signal("rc_tvalid", 1, SignalDir::In)
                .signal("rc_tuser", 161, SignalDir::In)
                .signal("cq_tdata", 512, SignalDir::In)
                .signal("cq_tuser", 183, SignalDir::In)
                .signal("cc_tdata", 512, SignalDir::Out)
                .signal("cc_tuser", 81, SignalDir::Out)
                .signal("pcie_tfc_nph_av", 4, SignalDir::In)
                .config("AXISTEN_IF_RQ_ALIGNMENT_MODE", "DWORD")
                .config("AXISTEN_IF_CC_ALIGNMENT_MODE", "DWORD")
                .config("AXISTEN_IF_ENABLE_CLIENT_TAG", "TRUE")
                .config("RQ_SEQ_NUM_ENABLE", "TRUE")
                .config("TPH_PRESENT", "FALSE")
        }
        Vendor::Intel => InterfaceSpec::new("tlp_avst", crate::iface::Protocol::AvalonStreaming)
            .signal("rx_st_data", 512, SignalDir::In)
            .signal("rx_st_sop", 2, SignalDir::In)
            .signal("rx_st_eop", 2, SignalDir::In)
            .signal("rx_st_empty", 6, SignalDir::In)
            .signal("rx_st_bar_range", 3, SignalDir::In)
            .signal("tx_st_data", 512, SignalDir::Out)
            .signal("tx_st_sop", 2, SignalDir::Out)
            .signal("tx_st_eop", 2, SignalDir::Out)
            .signal("tx_cred_hdr_fc", 8, SignalDir::In)
            .signal("tx_cred_data_fc", 12, SignalDir::In)
            .config("avst_width", "512")
            .config("sop_alignment", "any")
            .config("credit_mode", "header+data")
            .config("bar_check", "enabled"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_ip_and_tlp_specs_differ_across_vendors() {
        let d_hip =
            pcie_hard_ip_spec(Vendor::Xilinx, 4, 16).diff(&pcie_hard_ip_spec(Vendor::Intel, 4, 16));
        assert!(d_hip.total() > 20, "PCIe hard-IP diff {}", d_hip.total());
        let d_tlp = tlp_layer_spec(Vendor::Xilinx).diff(&tlp_layer_spec(Vendor::Intel));
        assert!(d_tlp.total() > 20, "TLP diff {}", d_tlp.total());
        // And the three PCIe-stack rows of Figure 3b are distinct metrics.
        let d_dma = PcieDmaIp::new(Vendor::Xilinx, 4, 16)
            .native_interface()
            .diff(&PcieDmaIp::new(Vendor::Intel, 4, 16).native_interface());
        assert_ne!(d_hip.total(), d_tlp.total());
        assert_ne!(d_dma.total(), d_tlp.total());
    }

    #[test]
    fn raw_bandwidth_by_generation() {
        assert!((PcieDmaIp::new(Vendor::Xilinx, 3, 16).raw_gbs() - 15.75).abs() < 0.1);
        assert!((PcieDmaIp::new(Vendor::Xilinx, 4, 8).raw_gbs() - 15.75).abs() < 0.1);
        assert!((PcieDmaIp::new(Vendor::Intel, 4, 16).raw_gbs() - 31.5).abs() < 0.2);
        assert!((PcieDmaIp::new(Vendor::Intel, 5, 16).raw_gbs() - 63.0).abs() < 0.5);
    }

    #[test]
    fn throughput_climbs_to_plateau() {
        let dma = PcieDmaIp::new(Vendor::Xilinx, 4, 8);
        let t1k = dma.throughput_gbs(1024);
        let t4k = dma.throughput_gbs(4096);
        let t16k = dma.throughput_gbs(16384);
        assert!(t1k < t4k && t4k < t16k);
        // Plateau below raw: TLP + link efficiency caps near 86%.
        assert!(t16k < dma.raw_gbs());
        assert!(t16k > 0.8 * dma.raw_gbs());
    }

    #[test]
    fn latency_grows_with_request_size() {
        let dma = PcieDmaIp::new(Vendor::Intel, 4, 16);
        let l1k = dma.read_latency_ps(1024);
        let l16k = dma.read_latency_ps(16384);
        assert!(l16k > l1k);
        assert!(l1k > 800_000); // ≥ base latency
    }

    #[test]
    fn newer_generations_are_faster_and_lower_latency() {
        let g3 = PcieDmaIp::new(Vendor::Xilinx, 3, 16);
        let g4 = PcieDmaIp::new(Vendor::Xilinx, 4, 16);
        assert!(g4.throughput_gbs(8192) > g3.throughput_gbs(8192));
        assert!(g4.read_latency_ps(8192) < g3.read_latency_ps(8192));
    }

    #[test]
    fn width_doubles_with_generation() {
        assert_eq!(PcieDmaIp::new(Vendor::Xilinx, 3, 8).data_width_bits(), 256);
        assert_eq!(PcieDmaIp::new(Vendor::Xilinx, 4, 8).data_width_bits(), 512);
        assert_eq!(PcieDmaIp::new(Vendor::Xilinx, 5, 8).data_width_bits(), 1024);
        assert_eq!(PcieDmaIp::new(Vendor::Intel, 5, 16).data_width_bits(), 2048);
    }

    #[test]
    #[should_panic(expected = "unsupported PCIe generation")]
    fn bad_generation_rejected() {
        let _ = PcieDmaIp::new(Vendor::Xilinx, 6, 16);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn bad_lanes_rejected() {
        let _ = PcieDmaIp::new(Vendor::Xilinx, 4, 4);
    }

    #[test]
    fn interface_diff_across_vendors_is_large() {
        let x = PcieDmaIp::new(Vendor::Xilinx, 4, 16).native_interface();
        let i = PcieDmaIp::new(Vendor::Intel, 4, 16).native_interface();
        let d = x.diff(&i);
        assert!(d.total() > 40, "got {}", d.total());
    }
}
