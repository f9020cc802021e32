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
}
