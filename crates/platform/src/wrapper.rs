//! Lightweight interface wrappers (§3.2).
//!
//! A wrapper encapsulates a vendor IP's native interface (AXI4/Avalon) into
//! the unified types, buffering output data and sideband signals in FIFOs
//! and running "fully pipelined sequential translation logic to convert
//! data with varying widths into the unified format. It operates without
//! generating bubbles in the processing and consumes a few fixed clock
//! cycles." Figure 10 verifies exactly those two properties — unchanged
//! throughput, a few cycles of added latency — and Figure 16 bounds the
//! resource overhead below 0.37% of the device.

use crate::unified::{UnifiedPort, UnifiedPortKind};
use harmonia_hw::ip::{IpKind, VendorIp};
use harmonia_hw::resource::ResourceUsage;
use harmonia_sim::stream::StreamBeat;
use harmonia_sim::Picos;
use std::collections::VecDeque;

/// A fully pipelined stream width converter.
///
/// Accepts beats of one width and re-emits the same bytes as beats of
/// another width, preserving packet boundaries. Bytes never appear or
/// vanish; a packet's final beat may be partial.
///
/// ```
/// use harmonia_platform::WidthConverter;
/// use harmonia_sim::stream::packet_to_beats;
///
/// let mut conv = WidthConverter::new(512, 128);
/// let mut out = Vec::new();
/// for beat in packet_to_beats(100, 512) {
///     conv.push(beat);
///     out.extend(std::iter::from_fn(|| conv.pop()));
/// }
/// let bytes: u32 = out.iter().map(|b| u32::from(b.valid_bytes)).sum();
/// assert_eq!(bytes, 100);
/// assert!(out.last().unwrap().eop);
/// ```
#[derive(Debug, Clone)]
pub struct WidthConverter {
    in_bytes: u32,
    out_bytes: u32,
    /// Bytes accumulated toward the next output beat.
    acc_bytes: u32,
    next_is_sop: bool,
    ready: VecDeque<StreamBeat>,
}

impl WidthConverter {
    /// Creates a converter between two interface widths (bits).
    ///
    /// # Panics
    ///
    /// Panics if either width is not a positive multiple of 8.
    pub fn new(in_bits: u32, out_bits: u32) -> Self {
        assert!(
            in_bits >= 8 && in_bits.is_multiple_of(8),
            "bad input width {in_bits}"
        );
        assert!(
            out_bits >= 8 && out_bits.is_multiple_of(8),
            "bad output width {out_bits}"
        );
        WidthConverter {
            in_bytes: in_bits / 8,
            out_bytes: out_bits / 8,
            acc_bytes: 0,
            next_is_sop: true,
            ready: VecDeque::new(),
        }
    }

    /// Feeds one input beat.
    ///
    /// # Panics
    ///
    /// Panics if the beat claims more valid bytes than the input width.
    pub fn push(&mut self, beat: StreamBeat) {
        assert!(
            u32::from(beat.valid_bytes) <= self.in_bytes,
            "beat of {} B on a {} B interface",
            beat.valid_bytes,
            self.in_bytes
        );
        self.acc_bytes += u32::from(beat.valid_bytes);
        // Emit complete output beats greedily; the final (possibly partial)
        // beat flushes on end-of-packet.
        while self.acc_bytes > self.out_bytes || (self.acc_bytes == self.out_bytes && !beat.eop) {
            self.emit(self.out_bytes, false);
        }
        if beat.eop && self.acc_bytes > 0 {
            self.emit(self.acc_bytes, true);
        }
    }

    fn emit(&mut self, bytes: u32, eop: bool) {
        let mut out = StreamBeat::body(bytes as u16);
        if self.next_is_sop {
            out = out.with_sop();
            self.next_is_sop = false;
        }
        if eop {
            out = out.with_eop();
            self.next_is_sop = true;
        }
        self.acc_bytes -= bytes;
        self.ready.push_back(out);
    }

    /// Pops one output beat.
    pub fn pop(&mut self) -> Option<StreamBeat> {
        self.ready.pop_front()
    }

    /// The fixed pipeline depth of the translation logic in cycles: one
    /// stage to register the input, one to shift/merge, one to drive the
    /// output, plus one more when the widths actually differ.
    pub(crate) fn latency_cycles(&self) -> u64 {
        if self.in_bytes == self.out_bytes {
            3
        } else {
            4
        }
    }
}

/// A lightweight interface wrapper around one vendor IP.
#[derive(Debug)]
pub struct InterfaceWrapper {
    native_width_bits: u32,
    unified_width_bits: u32,
    core_period_ps: Picos,
    ports: Vec<UnifiedPort>,
}

impl InterfaceWrapper {
    /// Wraps a vendor IP, exposing unified ports at `unified_width_bits`.
    pub fn wrap(ip: &dyn VendorIp, unified_width_bits: u32) -> Self {
        let mut ports = vec![
            UnifiedPort::new("clk", UnifiedPortKind::Clock),
            UnifiedPort::new("rst", UnifiedPortKind::Reset),
            UnifiedPort::new("ctrl", UnifiedPortKind::Reg),
        ];
        match ip.kind() {
            IpKind::Mac => {
                ports.push(UnifiedPort::new(
                    "rx",
                    UnifiedPortKind::Stream {
                        width_bits: unified_width_bits,
                    },
                ));
                ports.push(UnifiedPort::new(
                    "tx",
                    UnifiedPortKind::Stream {
                        width_bits: unified_width_bits,
                    },
                ));
            }
            IpKind::Dma | IpKind::Pcie | IpKind::Tlp => {
                ports.push(UnifiedPort::new(
                    "h2c",
                    UnifiedPortKind::Stream {
                        width_bits: unified_width_bits,
                    },
                ));
                ports.push(UnifiedPort::new(
                    "c2h",
                    UnifiedPortKind::Stream {
                        width_bits: unified_width_bits,
                    },
                ));
                ports.push(UnifiedPort::new(
                    "mm",
                    UnifiedPortKind::MemMap {
                        width_bits: unified_width_bits,
                        addr_bits: 64,
                    },
                ));
                ports.push(UnifiedPort::new("msi", UnifiedPortKind::Irq));
            }
            IpKind::Ddr | IpKind::Hbm => {
                ports.push(UnifiedPort::new(
                    "mem",
                    UnifiedPortKind::MemMap {
                        width_bits: unified_width_bits,
                        addr_bits: 34,
                    },
                ));
                ports.push(UnifiedPort::new("ecc_irq", UnifiedPortKind::Irq));
            }
        }
        InterfaceWrapper {
            native_width_bits: ip.data_width_bits(),
            unified_width_bits,
            core_period_ps: ip.core_clock().period_ps(),
            ports,
        }
    }

    /// The unified ports the wrapper exposes upward.
    pub fn ports(&self) -> &[UnifiedPort] {
        &self.ports
    }

    /// The translation pipeline depth in cycles.
    pub fn latency_cycles(&self) -> u64 {
        WidthConverter::new(self.native_width_bits, self.unified_width_bits).latency_cycles()
    }

    /// The fixed latency the wrapper adds to the datapath, in picoseconds —
    /// "a few fixed clock cycles" at the IP's core clock.
    pub fn added_latency_ps(&self) -> Picos {
        self.latency_cycles() * self.core_period_ps
    }

    /// Throughput after wrapping, given the native throughput: identical,
    /// because the translation logic is fully pipelined (one beat per cycle
    /// in, one beat per cycle out — verified by the tests below).
    pub fn wrapped_throughput(&self, native: f64) -> f64 {
        native
    }

    /// Resource overhead of the wrapper: registers for the pipeline stages,
    /// LUTs for the shift/merge network, a BRAM or two for the output FIFO.
    /// Scales with the wider of the two interfaces.
    pub fn resources(&self) -> ResourceUsage {
        let w = u64::from(self.native_width_bits.max(self.unified_width_bits));
        let data_ports = self
            .ports
            .iter()
            .filter(|p| p.kind.is_data())
            .count()
            .max(1) as u64;
        ResourceUsage::new(
            (120 + w / 2) * data_ports,
            (260 + w) * data_ports,
            data_ports,
            0,
            0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::device::catalog;
    use harmonia_hw::ip::{DdrIp, HbmIp, MacIp, PcieDmaIp};
    use harmonia_hw::Vendor;
    use harmonia_sim::stream::packet_to_beats;
    use harmonia_sim::Pipeline;

    /// Every output beat the converter holds, in order.
    fn popped(conv: &mut WidthConverter) -> Vec<StreamBeat> {
        std::iter::from_fn(|| conv.pop()).collect()
    }

    #[test]
    fn width_converter_preserves_bytes() {
        for (inw, outw) in [(512, 128), (128, 512), (512, 512), (2048, 512)] {
            let mut conv = WidthConverter::new(inw, outw);
            for pkt in [64u32, 65, 100, 1500, 9000] {
                for beat in packet_to_beats(pkt, inw) {
                    conv.push(beat);
                }
            }
            let out = popped(&mut conv);
            let bytes: u64 = out.iter().map(|b| u64::from(b.valid_bytes)).sum();
            assert_eq!(bytes, 64 + 65 + 100 + 1500 + 9000);
        }
    }

    #[test]
    fn width_converter_marks_packet_boundaries() {
        let mut conv = WidthConverter::new(512, 128);
        for beat in packet_to_beats(200, 512) {
            conv.push(beat);
        }
        let out = popped(&mut conv);
        // 200 B at 16 B/beat = 13 beats, last partial (8 B).
        assert_eq!(out.len(), 13);
        assert!(out[0].sop);
        assert!(out[12].eop);
        assert_eq!(out[12].valid_bytes, 8);
        assert!(out[1..12].iter().all(|b| !b.sop && !b.eop));
    }

    #[test]
    fn downsize_upsize_round_trip() {
        let mut down = WidthConverter::new(512, 128);
        let mut up = WidthConverter::new(128, 512);
        for beat in packet_to_beats(1000, 512) {
            down.push(beat);
        }
        for beat in popped(&mut down) {
            up.push(beat);
        }
        let out = popped(&mut up);
        let bytes: u64 = out.iter().map(|b| u64::from(b.valid_bytes)).sum();
        assert_eq!(bytes, 1000);
        assert!(out.last().unwrap().eop);
    }

    #[test]
    fn no_bubbles_at_full_rate() {
        // One 512-bit beat per cycle in must sustain four 128-bit beats per
        // cycle-quarter out: over N cycles, output beats == 4 × input beats.
        let mut conv = WidthConverter::new(512, 128);
        let mut out_beats = 0u64;
        for _ in 0..1000 {
            conv.push(StreamBeat::body(64)); // full mid-packet beats
            out_beats += popped(&mut conv).len() as u64;
        }
        assert_eq!(out_beats, 4 * 1000);
    }

    #[test]
    fn converter_latency_is_a_few_fixed_cycles() {
        assert_eq!(WidthConverter::new(512, 512).latency_cycles(), 3);
        assert_eq!(WidthConverter::new(512, 128).latency_cycles(), 4);
    }

    #[test]
    fn wrapper_pipeline_full_rate_through_fixed_latency() {
        // Compose the converter with the fixed-latency pipeline the wrapper
        // models and confirm the combination is still bubble-free.
        let mac = MacIp::new(Vendor::Xilinx, 100);
        let wrapper = InterfaceWrapper::wrap(&mac, 512);
        let mut pipe: Pipeline<StreamBeat> = Pipeline::new(wrapper.latency_cycles());
        let mut delivered = 0u64;
        for c in 0..10_000u64 {
            pipe.push(c, StreamBeat::body(64)).unwrap();
            while pipe.pop(c).is_some() {
                delivered += 1;
            }
        }
        let lat = wrapper.latency_cycles();
        for c in 10_000..10_000 + lat {
            while pipe.pop(c).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 10_000);
    }

    #[test]
    fn wrapped_throughput_unchanged() {
        let mac = MacIp::new(Vendor::Intel, 100);
        let wrapper = InterfaceWrapper::wrap(&mac, 512);
        let native = mac.throughput_gbps(256);
        assert_eq!(wrapper.wrapped_throughput(native), native);
    }

    #[test]
    fn added_latency_is_nanoseconds() {
        let mac = MacIp::new(Vendor::Xilinx, 100);
        let wrapper = InterfaceWrapper::wrap(&mac, 512);
        let ns = wrapper.added_latency_ps() as f64 / 1e3;
        assert!(
            ns < 20.0,
            "wrapper latency {ns:.1} ns is not 'a few cycles'"
        );
        assert!(ns > 1.0);
    }

    #[test]
    fn wrapper_overhead_below_fig16_bound() {
        let dev = catalog::device_a();
        let cap = dev.capacity();
        let ips: Vec<Box<dyn VendorIp>> = vec![
            Box::new(MacIp::new(Vendor::Xilinx, 100)),
            Box::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8)),
            Box::new(DdrIp::new(Vendor::Xilinx, 4)),
            Box::new(HbmIp::new(Vendor::Xilinx)),
        ];
        for ip in &ips {
            let w = InterfaceWrapper::wrap(ip.as_ref(), 512);
            let pct = w.resources().max_percent_of(cap);
            assert!(
                pct < 0.37,
                "{} wrapper uses {pct:.3}% — over the paper's 0.37% bound",
                ip.instance_name()
            );
        }
    }

    #[test]
    fn ports_by_ip_kind() {
        let mac_w = InterfaceWrapper::wrap(&MacIp::new(Vendor::Xilinx, 100), 512);
        assert!(mac_w.ports().iter().any(|p| p.name == "rx"));
        let dma_w = InterfaceWrapper::wrap(&PcieDmaIp::new(Vendor::Intel, 4, 16), 512);
        assert!(dma_w.ports().iter().any(|p| p.kind == UnifiedPortKind::Irq));
        let ddr_w = InterfaceWrapper::wrap(&DdrIp::new(Vendor::Intel, 4), 512);
        assert!(ddr_w
            .ports()
            .iter()
            .any(|p| matches!(p.kind, UnifiedPortKind::MemMap { .. })));
    }

    #[test]
    fn unified_ports_identical_across_vendors() {
        // The portability claim, checked structurally: wrapping the Xilinx
        // and Intel MACs yields byte-identical unified port lists.
        let x = InterfaceWrapper::wrap(&MacIp::new(Vendor::Xilinx, 100), 512);
        let i = InterfaceWrapper::wrap(&MacIp::new(Vendor::Intel, 100), 512);
        assert_eq!(x.ports(), i.ports());
    }

    #[test]
    #[should_panic(expected = "bad input width")]
    fn non_byte_width_rejected() {
        let _ = WidthConverter::new(100, 128);
    }

    #[test]
    #[should_panic(expected = "on a")]
    fn oversized_beat_rejected() {
        let mut conv = WidthConverter::new(128, 512);
        conv.push(StreamBeat::body(64));
    }
}
