//! Ethernet MAC IP models (25/100/400G).
//!
//! Models both the Xilinx CMAC-style core (AXI4-Stream, 512-bit) and the
//! Intel E-tile-style core (Avalon-ST). Data width scales 128/512/2048 bits
//! with 25/100/400 Gbps, exactly the parameter progression §3.3.1 describes
//! for the Network RBB.

use crate::iface::{self, InterfaceSpec, SignalDir};
use crate::ip::{IpKind, VendorIp};
use crate::regfile::{Access, RegOp, RegisterFile};
use crate::resource::ResourceUsage;
use crate::vendor::Vendor;
use harmonia_sim::{FaultInjector, FaultKind, Freq, Picos, Probe, TraceEventKind};

/// Ethernet wire overhead per frame: 7 B preamble + 1 B SFD + 12 B IFG.
pub(crate) const WIRE_OVERHEAD_BYTES: u32 = 20;

/// An Ethernet MAC instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MacIp {
    vendor: Vendor,
    speed_gbps: u32,
}

impl MacIp {
    /// Creates a MAC model.
    ///
    /// # Panics
    ///
    /// Panics if `speed_gbps` is not one of 25, 100, 200, 400.
    pub fn new(vendor: Vendor, speed_gbps: u32) -> Self {
        assert!(
            matches!(speed_gbps, 25 | 100 | 200 | 400),
            "unsupported MAC speed {speed_gbps} Gbps"
        );
        MacIp { vendor, speed_gbps }
    }

    /// Line rate in Gbps.
    pub fn speed_gbps(&self) -> u32 {
        self.speed_gbps
    }

    /// Effective throughput in Gbps for a frame size (goodput: line rate
    /// scaled by the frame's share of wire time).
    pub fn throughput_gbps(&self, frame_bytes: u32) -> f64 {
        assert!(frame_bytes >= 64, "minimum Ethernet frame is 64 B");
        f64::from(self.speed_gbps) * f64::from(frame_bytes)
            / f64::from(frame_bytes + WIRE_OVERHEAD_BYTES)
    }

    /// Fixed datapath latency through the MAC (pipeline + gearbox), ps.
    pub(crate) fn pipeline_latency_ps(&self) -> Picos {
        // Hard-IP MACs sit near 80–120 ns; wider cores pay a little more
        // for alignment/gearboxing.
        match self.speed_gbps {
            25 => 90_000,
            100 => 100_000,
            200 => 110_000,
            _ => 120_000,
        }
    }

    /// Store-and-forward loopback latency for one frame, ps: serialization
    /// on the wire plus twice the datapath pipeline (TX + RX).
    pub fn loopback_latency_ps(&self, frame_bytes: u32) -> Picos {
        let wire_ps = (u64::from(frame_bytes) * 8 * 1000) / u64::from(self.speed_gbps); // bits / Gbps → ps
        wire_ps + 2 * self.pipeline_latency_ps()
    }

    /// Receives one frame at absolute time `now`: `Some(completion
    /// delay)` normally, `None` when the injector holds the link down
    /// (the frame is lost on the wire). A carried frame records a
    /// [`TraceEventKind::MacFrame`] span covering its loopback latency on
    /// `probe`; a lost frame records the [`TraceEventKind::FaultInjected`]
    /// that killed it plus a lost-frame instant. With the no-op injector
    /// this is exactly `Some(loopback_latency_ps(frame_bytes))`, whatever
    /// the probe.
    pub fn rx_frame(
        &self,
        frame_bytes: u32,
        now: Picos,
        faults: &FaultInjector,
        probe: &Probe,
    ) -> Option<Picos> {
        let trace = &probe.trace;
        if !faults.link_up(now) {
            let killed = TraceEventKind::FaultInjected {
                kind: FaultKind::LinkDown,
            };
            trace.instant(now, killed);
            let lost = TraceEventKind::MacFrame {
                bytes: frame_bytes,
                lost: true,
            };
            trace.instant(now, lost);
            return None;
        }
        let latency_ps = self.loopback_latency_ps(frame_bytes);
        let frame = TraceEventKind::MacFrame {
            bytes: frame_bytes,
            lost: false,
        };
        trace.span(now, latency_ps, frame);
        Some(latency_ps)
    }

    fn stat_counter_count(&self) -> u32 {
        // Production MACs expose dozens of RMON counters; the wider cores
        // add per-virtual-lane alignment counters.
        match self.speed_gbps {
            25 => 34,
            100 => 42,
            200 => 46,
            _ => 50,
        }
    }
}

impl VendorIp for MacIp {
    fn kind(&self) -> IpKind {
        IpKind::Mac
    }

    fn vendor(&self) -> Vendor {
        self.vendor
    }

    fn instance_name(&self) -> String {
        format!(
            "{}-mac-{}g",
            self.vendor.to_string().to_lowercase().replace('-', ""),
            self.speed_gbps
        )
    }

    fn native_interface(&self) -> InterfaceSpec {
        let w = self.data_width_bits();
        match self.vendor {
            Vendor::Xilinx | Vendor::InHouse => iface::axi4_stream("mac_axis", w)
                .signal("rx_preambleout", 56, SignalDir::Out)
                .signal("tx_preamblein", 56, SignalDir::In)
                .signal("stat_rx_aligned", 1, SignalDir::Out)
                .signal("ctl_tx_enable", 1, SignalDir::In)
                .signal("ctl_rx_enable", 1, SignalDir::In)
                .signal("tx_ovfout", 1, SignalDir::Out)
                .signal("tx_unfout", 1, SignalDir::Out)
                .config("CMAC_CORE_MODE", format!("CAUI{}", self.speed_gbps / 25))
                .config("RX_FLOW_CONTROL", "false")
                .config("TX_FLOW_CONTROL", "false")
                .config("INCLUDE_RS_FEC", "true")
                .config("GT_REF_CLK_FREQ", "161.1328125")
                .config("USER_INTERFACE", "AXIS")
                .config("TX_OTN_INTERFACE", "false")
                .config("INCLUDE_STATISTICS_COUNTERS", "true")
                .config("LANE_ALIGNMENT_MODE", "auto")
                .config("RUNT_FRAME_SIZE", "64"),
            Vendor::Intel => iface::avalon_st("mac_avst", w)
                .signal("rx_error", 6, SignalDir::Out)
                .signal("tx_error", 1, SignalDir::In)
                .signal("rx_fcs_valid", 1, SignalDir::Out)
                .signal("tx_skip_crc", 1, SignalDir::In)
                .signal("rx_pfc", 8, SignalDir::Out)
                .config("ETH_RATE", format!("{}G", self.speed_gbps))
                .config("FEC_TYPE", "KP-FEC")
                .config("FLOW_CONTROL_MODE", "none")
                .config("READY_LATENCY", "0")
                .config("PTP_ACCURACY_MODE", "off")
                .config("EHIP_MODE", "MAC+PCS")
                .config("REF_CLK_FREQ_MHZ", "156.25")
                .config("CRC_FORWARDING", "enabled"),
        }
    }

    fn register_map(&self) -> RegisterFile {
        let mut rf = RegisterFile::new(self.instance_name());
        rf.define(0x000, "revision", Access::ReadOnly, 0x0100);
        rf.define(0x004, "ctl_tx", Access::ReadWrite, 0);
        rf.define(0x008, "ctl_rx", Access::ReadWrite, 0);
        rf.define(0x00C, "reset", Access::ReadWrite, 0);
        rf.define(0x010, "loopback", Access::ReadWrite, 0);
        rf.define(0x014, "fec_ctrl", Access::ReadWrite, 0);
        rf.define(0x018, "pause_ctrl", Access::ReadWrite, 0);
        rf.define(0x01C, "stat_rx_status", Access::ReadOnly, 0);
        rf.define(0x020, "stat_tx_status", Access::ReadOnly, 0);
        rf.define(0x024, "stat_aligned", Access::ReadOnly, 0);
        rf.define(0x028, "tick", Access::WriteOnly, 0);
        rf.define_block(
            0x100,
            "stat_rx_",
            self.stat_counter_count(),
            Access::ReadOnly,
            0,
        );
        rf.define_block(
            0x400,
            "stat_tx_",
            self.stat_counter_count(),
            Access::ReadOnly,
            0,
        );
        rf
    }

    fn init_sequence(&self) -> Vec<RegOp> {
        let mut ops = Vec::new();
        match self.vendor {
            // Xilinx-style bring-up (Figure 3d's "shell A"): reset, poll for
            // alignment, then enable lane by lane with interleaved status
            // checks.
            Vendor::Xilinx | Vendor::InHouse => {
                ops.push(RegOp::Write {
                    addr: 0x00C,
                    value: 0x7,
                });
                ops.push(RegOp::Write {
                    addr: 0x00C,
                    value: 0x0,
                });
                ops.push(RegOp::WaitStatus {
                    addr: 0x024,
                    mask: 0x1,
                    expect: 0x1,
                });
                ops.push(RegOp::Write {
                    addr: 0x014,
                    value: 0x3,
                });
                for lane in 0..(self.speed_gbps / 25) {
                    ops.push(RegOp::Write {
                        addr: 0x004,
                        value: 0x10 | lane,
                    });
                    ops.push(RegOp::WaitStatus {
                        addr: 0x020,
                        mask: 0x2,
                        expect: 0x2,
                    });
                }
                ops.push(RegOp::Write {
                    addr: 0x008,
                    value: 0x1,
                });
                ops.push(RegOp::WaitStatus {
                    addr: 0x01C,
                    mask: 0x1,
                    expect: 0x1,
                });
                ops.push(RegOp::Write {
                    addr: 0x018,
                    value: 0x0,
                });
                ops.push(RegOp::Read { addr: 0x000 });
            }
            // Intel-style bring-up (Figure 3d's "shell B"): calibration is
            // automated in hardware — software writes configuration values
            // directly, different addresses and no polling.
            Vendor::Intel => {
                ops.push(RegOp::Write {
                    addr: 0x010,
                    value: 0x0,
                });
                ops.push(RegOp::Write {
                    addr: 0x014,
                    value: 0x1,
                });
                ops.push(RegOp::Write {
                    addr: 0x004,
                    value: 0x1,
                });
                ops.push(RegOp::Write {
                    addr: 0x008,
                    value: 0x1,
                });
                ops.push(RegOp::Write {
                    addr: 0x018,
                    value: 0x0,
                });
                ops.push(RegOp::Read { addr: 0x01C });
                ops.push(RegOp::Read { addr: 0x000 });
            }
        }
        ops
    }

    fn resources(&self) -> ResourceUsage {
        // Soft logic around the hard MAC: gearboxes, CDC, statistics.
        let scale = match self.speed_gbps {
            25 => 1,
            100 => 2,
            200 => 3,
            _ => 4,
        };
        match self.vendor {
            Vendor::Xilinx | Vendor::InHouse => {
                ResourceUsage::new(6_000 * scale, 9_000 * scale, 9 * scale, 0, 0)
            }
            Vendor::Intel => ResourceUsage::new(5_000 * scale, 8_000 * scale, 15 * scale, 0, 0),
        }
    }

    fn data_width_bits(&self) -> u32 {
        match self.speed_gbps {
            25 => 128,
            100 => 512,
            200 => 1024,
            _ => 2048,
        }
    }

    fn core_clock(&self) -> Freq {
        match self.speed_gbps {
            25 => Freq::mhz(250),
            100 => Freq::khz(322_265),
            200 => Freq::mhz(350),
            _ => Freq::mhz(402),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_shape_matches_line_rate() {
        let mac = MacIp::new(Vendor::Xilinx, 100);
        // 64 B frames: 64/84 of line rate ≈ 76.2 Gbps.
        assert!((mac.throughput_gbps(64) - 76.19).abs() < 0.1);
        // 1500 B frames: ≈ 98.7 Gbps.
        assert!(mac.throughput_gbps(1500) > 98.0);
        // Monotone in frame size.
        assert!(mac.throughput_gbps(256) > mac.throughput_gbps(128));
    }

    #[test]
    fn loopback_latency_grows_with_frame_size() {
        let mac = MacIp::new(Vendor::Xilinx, 100);
        assert!(mac.loopback_latency_ps(1024) > mac.loopback_latency_ps(64));
        // ~200 ns fixed part + serialization.
        assert!(mac.loopback_latency_ps(64) > 200_000);
    }

    #[test]
    fn width_scales_with_speed() {
        assert_eq!(MacIp::new(Vendor::Xilinx, 25).data_width_bits(), 128);
        assert_eq!(MacIp::new(Vendor::Xilinx, 100).data_width_bits(), 512);
        assert_eq!(MacIp::new(Vendor::Xilinx, 400).data_width_bits(), 2048);
    }

    #[test]
    fn vendor_interfaces_differ() {
        let x = MacIp::new(Vendor::Xilinx, 100).native_interface();
        let i = MacIp::new(Vendor::Intel, 100).native_interface();
        let d = x.diff(&i);
        assert!(d.interface > 10, "interface diffs {}", d.interface);
        assert!(d.configuration > 10, "config diffs {}", d.configuration);
    }

    #[test]
    fn xilinx_init_polls_intel_does_not() {
        let x = MacIp::new(Vendor::Xilinx, 100).init_sequence();
        let i = MacIp::new(Vendor::Intel, 100).init_sequence();
        assert!(x.iter().any(|op| matches!(op, RegOp::WaitStatus { .. })));
        assert!(!i.iter().any(|op| matches!(op, RegOp::WaitStatus { .. })));
        assert_ne!(x, i);
    }

    #[test]
    #[should_panic(expected = "unsupported MAC speed")]
    fn bad_speed_rejected() {
        let _ = MacIp::new(Vendor::Xilinx, 40);
    }

    #[test]
    #[should_panic(expected = "minimum Ethernet frame")]
    fn runt_frames_rejected() {
        let _ = MacIp::new(Vendor::Xilinx, 100).throughput_gbps(32);
    }

    #[test]
    fn register_map_has_stats_blocks() {
        let rf = MacIp::new(Vendor::Xilinx, 100).register_map();
        assert!(rf.len() > 80);
        assert!(rf.addr_of("stat_rx_0").is_some());
        assert!(rf.addr_of("stat_tx_41").is_some());
    }

    #[test]
    fn link_flap_loses_frames_in_the_window() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let mac = MacIp::new(Vendor::Xilinx, 100);
        let off = Probe::disabled();
        let inj = FaultPlan::new()
            .at(1_000_000, FaultKind::LinkDown)
            .at(2_000_000, FaultKind::LinkUp)
            .injector();
        assert_eq!(
            mac.rx_frame(1500, 0, &inj, &off),
            Some(mac.loopback_latency_ps(1500))
        );
        assert_eq!(mac.rx_frame(1500, 1_500_000, &inj, &off), None);
        assert!(mac.rx_frame(1500, 2_000_000, &inj, &off).is_some());
        // The no-op injector never drops.
        let none = FaultPlan::none().injector();
        assert!(mac.rx_frame(64, 1_500_000, &none, &off).is_some());
    }

    #[test]
    fn traced_frames_land_on_the_timeline() {
        use harmonia_sim::FaultPlan;
        let mac = MacIp::new(Vendor::Xilinx, 100);
        let plan = FaultPlan::new().at(1_000_000, FaultKind::LinkDown);
        let inj = plan.clone().injector();
        let probe = Probe::enabled();
        // Carried frame: one span covering the loopback latency.
        let lat = mac.rx_frame(1500, 0, &inj, &probe);
        assert_eq!(lat, Some(mac.loopback_latency_ps(1500)));
        // Lost frame: a fault instant plus a lost-frame instant.
        assert_eq!(mac.rx_frame(1500, 1_500_000, &inj, &probe), None);
        let trace = probe.trace.take();
        let names: Vec<_> = trace.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, ["mac-frame", "fault-injected", "mac-frame"]);
        assert_eq!(trace.events()[0].dur, mac.loopback_latency_ps(1500));
        assert!(trace.export_text().contains("lost=true"));
        // A disabled probe records nothing and changes nothing.
        let off = Probe::disabled();
        let inj = plan.injector();
        assert_eq!(mac.rx_frame(1500, 0, &inj, &off), lat);
        assert_eq!(mac.rx_frame(1500, 1_500_000, &inj, &off), None);
    }
}
