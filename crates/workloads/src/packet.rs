//! Packet-stream generation.

use harmonia_testkit::DetRng;

/// A generated packet: header fields plus frame size.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WorkloadPacket {
    /// Destination MAC address.
    pub dst_mac: u64,
    /// IPv4 source.
    pub src_ip: u32,
    /// IPv4 destination.
    pub dst_ip: u32,
    /// L4 source port.
    pub src_port: u16,
    /// L4 destination port.
    pub dst_port: u16,
    /// IP protocol (6 = TCP).
    pub proto: u8,
    /// Frame size in bytes.
    pub bytes: u32,
}

/// Deterministic packet generator.
///
/// ```
/// use harmonia_workloads::PacketGen;
/// let mut g = PacketGen::new(7, 0x02_00_00_00_00_01);
/// let pkts = g.fixed_size(64, 10);
/// assert_eq!(pkts.len(), 10);
/// assert!(pkts.iter().all(|p| p.bytes == 64));
/// ```
#[derive(Debug)]
pub struct PacketGen {
    rng: DetRng,
    local_mac: u64,
    flows: u32,
}

impl PacketGen {
    /// Creates a generator targeting `local_mac` with 256 active flows.
    pub fn new(seed: u64, local_mac: u64) -> Self {
        PacketGen {
            rng: DetRng::new(seed),
            local_mac,
            flows: 256,
        }
    }

    /// Sets the number of distinct flows generated.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn with_flows(mut self, flows: u32) -> Self {
        assert!(flows > 0, "need at least one flow");
        self.flows = flows;
        self
    }

    fn packet(&mut self, bytes: u32) -> WorkloadPacket {
        let flow = self.rng.gen_range(0..self.flows);
        WorkloadPacket {
            dst_mac: self.local_mac,
            src_ip: 0x0A00_0000 | flow,
            dst_ip: 0x0A01_0001,
            src_port: 1024 + (flow % 60_000) as u16,
            dst_port: 443,
            proto: 6,
            bytes,
        }
    }

    /// Generates `count` packets of one frame size.
    pub fn fixed_size(&mut self, bytes: u32, count: usize) -> Vec<WorkloadPacket> {
        (0..count).map(|_| self.packet(bytes)).collect()
    }

    /// Generates an IMIX-like mix (7:4:1 of 64/576/1500 B).
    pub fn imix(&mut self, count: usize) -> Vec<WorkloadPacket> {
        (0..count)
            .map(|_| {
                let r = self.rng.gen_range(0u32..12);
                let bytes = if r < 7 {
                    64
                } else if r < 11 {
                    576
                } else {
                    1500
                };
                self.packet(bytes)
            })
            .collect()
    }

    /// Generates packets where a fraction `foreign` carry a non-local
    /// destination MAC (exercising the packet filter).
    pub fn with_foreign_traffic(
        &mut self,
        bytes: u32,
        count: usize,
        foreign: f64,
    ) -> Vec<WorkloadPacket> {
        (0..count)
            .map(|_| {
                let mut p = self.packet(bytes);
                if self.rng.gen_bool(foreign) {
                    p.dst_mac = 0x02_FF_FF_00_00_01;
                }
                p
            })
            .collect()
    }

    /// Generates packets whose flows follow a Zipf(s) popularity law —
    /// the skewed distribution real load balancers face (a few elephant
    /// flows, a long mice tail).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not positive.
    pub fn zipf(&mut self, s: f64, bytes: u32, count: usize) -> Vec<WorkloadPacket> {
        assert!(s > 0.0, "zipf exponent must be positive");
        // Precompute the CDF over the flow universe.
        let n = self.flows as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        (0..count)
            .map(|_| {
                let u = self.rng.gen_range(0.0..total);
                let flow = cdf.partition_point(|&c| c < u) as u32;
                let mut p = self.packet(bytes);
                p.src_ip = 0x0A00_0000 | flow;
                p.src_port = 1024 + (flow % 60_000) as u16;
                p
            })
            .collect()
    }

    /// Generates on/off bursty traffic: bursts of `burst_len` back-to-back
    /// packets separated by idle gaps, returned as `(gap_slots, packet)`
    /// pairs where `gap_slots` is the idle time preceding the packet in
    /// transmission-slot units.
    pub fn bursty(
        &mut self,
        bytes: u32,
        burst_len: usize,
        mean_gap_slots: u32,
        count: usize,
    ) -> Vec<(u32, WorkloadPacket)> {
        assert!(burst_len > 0, "bursts must contain packets");
        let mut out = Vec::with_capacity(count);
        let mut in_burst = 0usize;
        for _ in 0..count {
            let gap = if in_burst == 0 && mean_gap_slots > 0 {
                self.rng.gen_range(0..=2 * mean_gap_slots)
            } else {
                0
            };
            out.push((gap, self.packet(bytes)));
            in_burst = (in_burst + 1) % burst_len;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = PacketGen::new(1, 1).fixed_size(64, 50);
        let b = PacketGen::new(1, 1).fixed_size(64, 50);
        assert_eq!(a, b);
        let c = PacketGen::new(2, 1).fixed_size(64, 50);
        assert_ne!(a, c);
    }

    #[test]
    fn imix_mixes_sizes() {
        let pkts = PacketGen::new(3, 1).imix(1200);
        let small = pkts.iter().filter(|p| p.bytes == 64).count();
        let large = pkts.iter().filter(|p| p.bytes == 1500).count();
        assert!(small > large);
        assert!(large > 0);
    }

    #[test]
    fn foreign_fraction_respected() {
        let local = 0x02_00_00_00_00_01;
        let pkts = PacketGen::new(4, local).with_foreign_traffic(64, 2000, 0.25);
        let foreign = pkts.iter().filter(|p| p.dst_mac != local).count();
        assert!((300..700).contains(&foreign), "foreign = {foreign}");
    }

    #[test]
    fn flow_count_bounds_sources() {
        let pkts = PacketGen::new(5, 1).with_flows(4).fixed_size(64, 500);
        let mut ips: Vec<u32> = pkts.iter().map(|p| p.src_ip).collect();
        ips.sort_unstable();
        ips.dedup();
        assert!(ips.len() <= 4);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_rejected() {
        let _ = PacketGen::new(0, 1).with_flows(0);
    }

    #[test]
    fn zipf_concentrates_on_head_flows() {
        let mut g = PacketGen::new(11, 1).with_flows(1000);
        let pkts = g.zipf(1.1, 64, 20_000);
        // Count traffic of the single most popular flow.
        let mut counts = std::collections::HashMap::new();
        for p in &pkts {
            *counts.entry(p.src_ip).or_insert(0u32) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let uniform_share = 20_000 / 1000;
        assert!(
            max > 20 * uniform_share,
            "head flow got {max}, uniform would be {uniform_share}"
        );
        // But the tail still exists.
        assert!(counts.len() > 300, "only {} flows seen", counts.len());
    }

    #[test]
    fn zipf_is_deterministic() {
        let a = PacketGen::new(5, 1).with_flows(100).zipf(1.0, 64, 500);
        let b = PacketGen::new(5, 1).with_flows(100).zipf(1.0, 64, 500);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn zipf_rejects_nonpositive_exponent() {
        let _ = PacketGen::new(1, 1).zipf(0.0, 64, 10);
    }

    #[test]
    fn bursts_have_gaps_only_at_boundaries() {
        let mut g = PacketGen::new(6, 1);
        let stream = g.bursty(64, 8, 50, 80);
        for (i, (gap, _)) in stream.iter().enumerate() {
            if i % 8 != 0 {
                assert_eq!(*gap, 0, "gap inside a burst at {i}");
            }
        }
        // At least some inter-burst gaps are non-zero.
        let gaps: u32 = stream.iter().map(|(g, _)| *g).sum();
        assert!(gaps > 0);
    }
}
