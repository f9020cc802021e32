//! Layer-4 LB: stateful layer-4 load balancing (Tiara-style).
//!
//! The FPGA works as a SmartNIC distributing incoming flows to real
//! servers (§5.1): new flows pick a backend from a consistent-hash ring;
//! established flows stick to their backend through a connection table.

use crate::common::{App, BitwPath};
use harmonia_hw::ip::MacIp;
use harmonia_hw::Vendor;
use harmonia_shell::rbb::network::{FlowKey, PacketMeta};
use harmonia_shell::{MemoryDemand, RoleSpec};
use harmonia_sim::Freq;
use std::collections::HashMap;

/// A real-server backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Backend {
    /// Backend identifier (also its ring key).
    pub id: u16,
    /// Relative capacity weight.
    pub weight: u16,
}

/// Load-balancer statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LbStats {
    /// Packets on established connections.
    pub established_hits: u64,
    /// New connections admitted.
    pub new_connections: u64,
    /// Packets dropped because the connection table was full.
    pub table_full_drops: u64,
}

/// The stateful layer-4 load balancer.
#[derive(Clone, Debug)]
pub struct Layer4Lb {
    ring: Vec<u16>,
    /// Established connections and the backend each is pinned to.
    connections: HashMap<FlowKey, u16>,
    capacity: usize,
    stats: LbStats,
}

impl Layer4Lb {
    /// Ring slots per unit of backend weight.
    const SLOTS_PER_WEIGHT: usize = 16;

    /// Creates a balancer with the given connection-table capacity.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty or `capacity` is zero.
    pub fn new(backends: Vec<Backend>, capacity: usize) -> Self {
        assert!(!backends.is_empty(), "need at least one backend");
        assert!(capacity > 0, "connection table must have capacity");
        Layer4Lb {
            ring: Self::ring(&backends),
            connections: HashMap::new(),
            capacity,
            stats: LbStats::default(),
        }
    }

    fn ring(backends: &[Backend]) -> Vec<u16> {
        // Weighted rendezvous-style ring: slots interleaved deterministically
        // by hashing (backend, slot).
        let mut slots: Vec<(u64, u16)> = Vec::new();
        for b in backends {
            for s in 0..usize::from(b.weight) * Self::SLOTS_PER_WEIGHT {
                let mut h = (u64::from(b.id) << 32) | s as u64;
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h ^= h >> 33;
                slots.push((h, b.id));
            }
        }
        slots.sort_unstable();
        slots.into_iter().map(|(_, id)| id).collect()
    }

    /// Picks the backend for a packet, creating connection state for new
    /// flows. Returns `None` when the table is full and the flow is new.
    pub fn dispatch(&mut self, pkt: &PacketMeta) -> Option<u16> {
        let key = pkt.flow_key();
        if let Some(&backend) = self.connections.get(&key) {
            self.stats.established_hits += 1;
            return Some(backend);
        }
        if self.connections.len() >= self.capacity {
            self.stats.table_full_drops += 1;
            return None;
        }
        let slot = (key.hash() % self.ring.len() as u64) as usize;
        let backend = self.ring[slot];
        self.connections.insert(key, backend);
        self.stats.new_connections += 1;
        Some(backend)
    }

    /// Statistics.
    pub fn stats(&self) -> LbStats {
        self.stats
    }

    /// The LB's BITW datapath (hash + table lookup ≈ 18 cycles).
    pub fn datapath(&self) -> BitwPath {
        BitwPath::new(MacIp::new(Vendor::Xilinx, 100), 18, Freq::mhz(322))
    }
}

impl App for Layer4Lb {
    fn name(&self) -> &'static str {
        "Layer-4 LB"
    }

    fn role_spec(&self) -> RoleSpec {
        RoleSpec::builder("layer4-lb")
            .network_gbps(100)
            .network_ports(2)
            .memory(MemoryDemand::Ddr { channels: 1 }) // connection table spill
            .queues(128)
            .user_domain(Freq::mhz(322), 512)
            .build()
    }

    fn role_loc(&self) -> u64 {
        // Figure 3a: the shell is 79 % of the Layer-4 LB project.
        9_500
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src_port: u16) -> PacketMeta {
        PacketMeta {
            dst_mac: 1,
            src_ip: 0x0A00_0001,
            dst_ip: 0x0A00_00FE,
            src_port,
            dst_port: 80,
            proto: 6,
            bytes: 128,
        }
    }

    fn lb() -> Layer4Lb {
        Layer4Lb::new((0..8).map(|id| Backend { id, weight: 1 }).collect(), 10_000)
    }

    #[test]
    fn connections_are_sticky() {
        let mut lb = lb();
        let first = lb.dispatch(&pkt(1000)).unwrap();
        for _ in 0..100 {
            assert_eq!(lb.dispatch(&pkt(1000)), Some(first));
        }
        assert_eq!(lb.stats().new_connections, 1);
        assert_eq!(lb.stats().established_hits, 100);
    }

    #[test]
    fn flows_spread_across_backends() {
        let mut lb = lb();
        let mut counts = [0u32; 8];
        for port in 0..4_000 {
            let b = lb.dispatch(&pkt(port)).unwrap();
            counts[usize::from(b)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((250..=750).contains(c), "backend {i} got {c} of 4000 flows");
        }
    }

    #[test]
    fn weights_bias_distribution() {
        let mut lb = Layer4Lb::new(
            vec![Backend { id: 0, weight: 3 }, Backend { id: 1, weight: 1 }],
            100_000,
        );
        let mut heavy = 0u32;
        for port in 0..8_000 {
            if lb.dispatch(&pkt(port)) == Some(0) {
                heavy += 1;
            }
        }
        let share = f64::from(heavy) / 8_000.0;
        assert!((0.68..0.82).contains(&share), "weighted share {share:.2}");
    }

    #[test]
    fn table_capacity_drops_new_flows_only() {
        let mut lb = Layer4Lb::new(vec![Backend { id: 0, weight: 1 }], 10);
        for port in 0..10 {
            lb.dispatch(&pkt(port)).unwrap();
        }
        assert_eq!(lb.dispatch(&pkt(99)), None);
        assert_eq!(lb.stats().table_full_drops, 1);
        // Established flows still flow.
        assert_eq!(lb.dispatch(&pkt(5)), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_backend_set_rejected() {
        let _ = Layer4Lb::new(Vec::new(), 10);
    }

    #[test]
    fn datapath_line_rate() {
        let p = lb().datapath().perf(256);
        assert!(p.throughput > 80.0);
    }
}
