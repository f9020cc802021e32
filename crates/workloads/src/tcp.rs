//! The TCP transmission benchmark (Figure 18d).
//!
//! "We deploy FPGAs on two servers and connect them via the device network
//! interfaces. The FPGAs directly forward the host's TCP traffic, measuring
//! end-to-end throughput and latency with varying packet sizes." The model
//! composes the path host-A → DMA → FPGA-A → wire → FPGA-B → DMA → host-B
//! with TCP header overhead.

use harmonia_sim::Picos;

/// TCP/IP/Ethernet header bytes per segment (Eth 14 + IP 20 + TCP 20 +
/// FCS 4).
pub(crate) const HEADER_BYTES: u32 = 58;

/// End-to-end TCP benchmark between two FPGA-equipped servers.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TcpWorkload {
    /// Network line rate between the FPGAs, Gbps.
    pub link_gbps: u32,
    /// Host link (DMA) bandwidth each side, GB/s.
    pub host_gbs: f64,
    /// Fixed per-side host-stack latency, ps.
    pub host_stack_ps: Picos,
    /// Fixed per-FPGA forwarding latency, ps.
    pub fpga_forward_ps: Picos,
}

impl TcpWorkload {
    /// The evaluation setup: 100G link, Gen4×8-class hosts.
    pub fn paper() -> Self {
        TcpWorkload {
            link_gbps: 100,
            host_gbs: 13.0,
            host_stack_ps: 8_000_000,   // 8 µs per host stack traversal
            fpga_forward_ps: 1_200_000, // 1.2 µs store-and-forward + pipeline
        }
    }

    /// Goodput in Gbps for a given payload size per segment.
    ///
    /// # Panics
    ///
    /// Panics if `payload_bytes` is zero.
    pub fn goodput_gbps(&self, payload_bytes: u32) -> f64 {
        assert!(payload_bytes > 0, "empty TCP segments");
        let frame = payload_bytes + HEADER_BYTES;
        let wire_eff = f64::from(payload_bytes) / f64::from(frame + 20); // + preamble/IFG
        let wire_gbps = f64::from(self.link_gbps) * wire_eff;
        // The host side must also carry the traffic (bytes/s → bits/s).
        let host_gbps = self.host_gbs * 8.0 * f64::from(payload_bytes) / f64::from(frame);
        wire_gbps.min(host_gbps)
    }

    /// One-way end-to-end latency for a segment, ps.
    pub fn latency_ps(&self, payload_bytes: u32) -> Picos {
        let frame = u64::from(payload_bytes + HEADER_BYTES);
        let wire_ps = frame * 8 * 1000 / u64::from(self.link_gbps);
        let dma_ps = (frame as f64 / self.host_gbs * 1e3) as Picos;
        2 * self.host_stack_ps + 2 * self.fpga_forward_ps + wire_ps + 2 * dma_ps
    }

    /// The packet sizes of Figure 18d.
    pub const PACKET_SIZES: [u32; 3] = [64, 512, 1500];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_grows_with_packet_size() {
        let w = TcpWorkload::paper();
        let t64 = w.goodput_gbps(64);
        let t512 = w.goodput_gbps(512);
        let t1500 = w.goodput_gbps(1500);
        assert!(t64 < t512 && t512 < t1500);
        // Large segments approach the wire limit but never exceed it.
        assert!(t1500 > 80.0 && t1500 < 100.0);
    }

    #[test]
    fn latency_grows_with_packet_size() {
        let w = TcpWorkload::paper();
        assert!(w.latency_ps(1500) > w.latency_ps(64));
        // Dominated by host stacks: ~16 µs floor, tens of µs total.
        let us = w.latency_ps(64) as f64 / 1e6;
        assert!((16.0..40.0).contains(&us), "latency {us:.1} µs");
    }

    #[test]
    fn small_segments_are_header_bound() {
        let w = TcpWorkload::paper();
        // 64 B payload in a 142 B wire frame: goodput well under half rate.
        assert!(w.goodput_gbps(64) < 50.0);
    }

    #[test]
    fn faster_links_help_until_host_bound() {
        let mut w = TcpWorkload::paper();
        let base = w.goodput_gbps(1500);
        w.link_gbps = 400;
        let faster = w.goodput_gbps(1500);
        // Host DMA (13 GB/s ≈ 104 Gbps) becomes the ceiling.
        assert!(faster > base);
        assert!(faster <= 13.0 * 8.0);
    }

    #[test]
    #[should_panic(expected = "empty TCP")]
    fn zero_payload_rejected() {
        let _ = TcpWorkload::paper().goodput_gbps(0);
    }
}
