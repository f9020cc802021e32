//! Network RBB: packet-level and flow-level network processing (§3.3.1).
//!
//! Ex-functions: a **packet filter** that "intercepts packets with
//! destination addresses that do not belong to the local machine, thereby
//! supporting multicast scenarios", and a **flow director** that "directs
//! incoming flows to their corresponding host queues, ensuring network
//! isolation for multi-tenant environments". Monitoring tracks real-time
//! throughput, packet loss, queue usage and processing rate. Data moves on
//! the stream interface; control uses a 32-bit reg interface.

use crate::rbb::{LogicComponent, LogicPart, Portability, Rbb, RbbKind};
use harmonia_hw::ip::{MacIp, VendorIp};
use harmonia_hw::regfile::{Access, RegisterFile};
use harmonia_hw::resource::ResourceUsage;
use harmonia_hw::Vendor;
use harmonia_metrics::config::{ConfigClass, ConfigInventory};
use std::collections::BTreeSet;

/// A parsed packet header, as the RBB's ex-functions see it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct PacketMeta {
    /// Destination MAC address (48 bits used).
    pub dst_mac: u64,
    /// IPv4 source address.
    pub src_ip: u32,
    /// IPv4 destination address.
    pub dst_ip: u32,
    /// L4 source port.
    pub src_port: u16,
    /// L4 destination port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP, 17 = UDP).
    pub proto: u8,
    /// Frame size in bytes.
    pub bytes: u32,
}

impl PacketMeta {
    /// The flow key (5-tuple) of this packet.
    pub fn flow_key(&self) -> FlowKey {
        FlowKey {
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            src_port: self.src_port,
            dst_port: self.dst_port,
            proto: self.proto,
        }
    }

    /// Whether the destination MAC is an Ethernet multicast address.
    pub fn is_multicast(&self) -> bool {
        self.dst_mac & 0x0100_0000_0000 != 0
    }
}

/// A 5-tuple flow identifier.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// IPv4 source address.
    pub src_ip: u32,
    /// IPv4 destination address.
    pub dst_ip: u32,
    /// L4 source port.
    pub src_port: u16,
    /// L4 destination port.
    pub dst_port: u16,
    /// IP protocol.
    pub proto: u8,
}

impl FlowKey {
    /// A deterministic hash of the flow key (Toeplitz-flavoured mix).
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            u64::from(self.src_ip),
            u64::from(self.dst_ip),
            u64::from(self.src_port),
            u64::from(self.dst_port),
            u64::from(self.proto),
        ] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// The RX-path verdict for one packet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RxDecision {
    /// Deliver to the given host queue.
    Deliver {
        /// Target queue index.
        queue: u16,
    },
    /// Filtered out: destination not local and not an accepted multicast.
    Filtered,
}

/// Real-time traffic statistics (the monitoring part of Figure 6).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Packets delivered.
    pub rx_packets: u64,
    /// Bytes delivered.
    pub rx_bytes: u64,
    /// Packets filtered.
    pub filtered: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
}

/// The Network RBB.
#[derive(Debug)]
pub struct NetworkRbb {
    mac: MacIp,
    components: Vec<LogicComponent>,
    // Packet-filter state.
    local_macs: BTreeSet<u64>,
    accept_multicast: bool,
    // Flow-director state: it steers by flow hash.
    queue_count: u16,
    stats: TrafficStats,
}

impl NetworkRbb {
    /// Creates a Network RBB around the selected MAC instance with
    /// `queue_count` host queues for the flow director.
    ///
    /// # Panics
    ///
    /// Panics if `queue_count` is zero.
    pub fn new(mac: MacIp, queue_count: u16) -> Self {
        assert!(queue_count > 0, "flow director needs at least one queue");
        NetworkRbb {
            mac,
            components: Self::component_inventory(),
            local_macs: BTreeSet::new(),
            accept_multicast: false,
            queue_count,
            stats: TrafficStats::default(),
        }
    }

    /// Selects a MAC instance by speed for the device's die vendor — the
    /// "roles can select specific network instances" step.
    pub fn with_speed(die_vendor: Vendor, gbps: u32, queue_count: u16) -> Self {
        Self::new(MacIp::new(die_vendor, gbps), queue_count)
    }

    fn component_inventory() -> Vec<LogicComponent> {
        vec![
            LogicComponent {
                name: "packet-filter",
                part: LogicPart::ExFunction,
                portability: Portability::Universal,
                loc: 2_600,
                resources: ResourceUsage::new(2_400, 3_600, 4, 0, 0),
            },
            LogicComponent {
                name: "flow-director",
                part: LogicPart::ExFunction,
                portability: Portability::Universal,
                loc: 3_000,
                resources: ResourceUsage::new(2_800, 4_200, 12, 0, 0),
            },
            LogicComponent {
                name: "stat-core",
                part: LogicPart::Monitoring,
                portability: Portability::Universal,
                loc: 1_600,
                resources: ResourceUsage::new(1_400, 2_200, 2, 0, 0),
            },
            LogicComponent {
                name: "monitor-probes",
                part: LogicPart::Monitoring,
                portability: Portability::VendorBound,
                loc: 600,
                resources: ResourceUsage::new(500, 800, 0, 0, 0),
            },
            LogicComponent {
                name: "ctrl-sequencer",
                part: LogicPart::Control,
                portability: Portability::VendorBound,
                loc: 1_100,
                resources: ResourceUsage::new(800, 1_200, 0, 0, 0),
            },
            LogicComponent {
                name: "param-cdc",
                part: LogicPart::Cdc,
                portability: Portability::Universal,
                loc: 600,
                resources: ResourceUsage::new(600, 1_000, 2, 0, 0),
            },
            LogicComponent {
                name: "instance-glue",
                part: LogicPart::InstanceGlue,
                portability: Portability::ChipBound,
                loc: 900,
                resources: ResourceUsage::new(700, 1_100, 0, 0, 0),
            },
        ]
    }

    /// Registers a local MAC address the filter should accept.
    pub fn add_local_mac(&mut self, mac: u64) {
        self.local_macs.insert(mac & 0xFFFF_FFFF_FFFF);
    }

    /// Enables or disables multicast acceptance (the multicast scenario of
    /// §3.3.1).
    pub fn set_accept_multicast(&mut self, accept: bool) {
        self.accept_multicast = accept;
    }

    /// Processes one received packet through filter → director.
    pub fn process_rx(&mut self, pkt: &PacketMeta) -> RxDecision {
        let local = self.local_macs.contains(&(pkt.dst_mac & 0xFFFF_FFFF_FFFF));
        let multicast_ok = self.accept_multicast && pkt.is_multicast();
        if !local && !multicast_ok {
            self.stats.filtered += 1;
            return RxDecision::Filtered;
        }
        let queue = (pkt.flow_key().hash() % u64::from(self.queue_count)) as u16;
        self.stats.rx_packets += 1;
        self.stats.rx_bytes += u64::from(pkt.bytes);
        RxDecision::Deliver { queue }
    }

    /// Current traffic statistics.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Publishes the live counters into a register file laid out like
    /// [`Rbb::register_file`] — the hardware side of the monitoring logic
    /// (software then reads them via `StatsRead`).
    ///
    /// # Errors
    ///
    /// Fails only if `rf` does not carry this RBB's monitor block.
    pub fn publish_stats(
        &self,
        rf: &mut RegisterFile,
    ) -> Result<(), harmonia_hw::regfile::RegError> {
        let set = |rf: &mut RegisterFile, name: &str, v: u64| match rf.addr_of(name) {
            Some(addr) => rf.hw_set(addr, v as u32),
            None => Err(harmonia_hw::regfile::RegError::Unmapped { addr: 0 }),
        };
        set(rf, "mon_rx_0", self.stats.rx_packets)?;
        set(rf, "mon_rx_1", self.stats.rx_bytes)?;
        set(rf, "mon_rx_2", self.stats.rx_bytes >> 32)?;
        set(rf, "mon_rx_3", self.stats.filtered)?;
        set(rf, "mon_tx_0", self.stats.tx_packets)?;
        set(rf, "mon_tx_1", self.stats.tx_bytes)?;
        set(rf, "mon_q_0", u64::from(self.queue_count))?;
        // Exact-match flow-table occupancy: the model has no table.
        set(rf, "mon_q_1", 0)?;
        Ok(())
    }
}

impl Rbb for NetworkRbb {
    fn kind(&self) -> RbbKind {
        RbbKind::Network
    }

    fn instance(&self) -> &dyn VendorIp {
        &self.mac
    }

    fn components(&self) -> &[LogicComponent] {
        &self.components
    }

    fn register_file(&self) -> RegisterFile {
        let mut rf = RegisterFile::new("network-rbb");
        // Control registers.
        rf.define(0x000, "filter_ctrl", Access::ReadWrite, 1);
        rf.define(0x004, "multicast_ctrl", Access::ReadWrite, 0);
        rf.define(0x008, "director_ctrl", Access::ReadWrite, 1);
        rf.define(
            0x00C,
            "queue_count",
            Access::ReadWrite,
            u32::from(self.queue_count),
        );
        rf.define(0x010, "table_addr", Access::ReadWrite, 0);
        rf.define(0x014, "table_wdata_lo", Access::ReadWrite, 0);
        rf.define(0x018, "table_wdata_hi", Access::ReadWrite, 0);
        rf.define(0x01C, "table_cmd", Access::WriteOnly, 0);
        rf.define(0x020, "mac_sel", Access::ReadWrite, 0);
        rf.define(0x024, "status", Access::ReadOnly, 0);
        // Monitoring registers (28 counters: the Table 4 "monitoring"
        // surface contributed by the Network RBB).
        rf.define_block(0x100, "mon_rx_", 10, Access::ReadOnly, 0);
        rf.define_block(0x140, "mon_tx_", 10, Access::ReadOnly, 0);
        rf.define_block(0x180, "mon_q_", 8, Access::ReadOnly, 0);
        rf
    }

    fn config_inventory(&self) -> ConfigInventory {
        let mut inv = ConfigInventory::new("network-rbb");
        // Role-oriented: what §3.3.2 actually exposes.
        inv.add_all(
            ["instance_speed", "queue_count", "multicast_enable"],
            ConfigClass::RoleOriented,
        );
        // Shell-oriented: everything the vendor instance wanted configured.
        for c in self.mac.native_interface().configs() {
            inv.add(format!("mac.{}", c.name), ConfigClass::ShellOriented);
        }
        inv.add_all(
            [
                "gt_refclk_map",
                "lane_polarity",
                "fec_mode",
                "cdc_depth",
                "filter_table_depth",
                "director_hash_seed",
                "stat_window_cycles",
                "pause_quanta",
                "rx_fifo_depth",
                "tx_fifo_depth",
                "ptp_mode",
                "serdes_eq_preset",
                "board_skew_ps",
                "clock_source_idx",
                "reset_polarity",
                "mtu_max",
                "vlan_strip",
                "loopback_mode",
                "led_map",
                "sensor_poll_interval",
            ],
            ConfigClass::ShellOriented,
        );
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(dst_mac: u64, src_port: u16) -> PacketMeta {
        PacketMeta {
            dst_mac,
            src_ip: 0x0A00_0001,
            dst_ip: 0x0A00_0002,
            src_port,
            dst_port: 443,
            proto: 6,
            bytes: 128,
        }
    }

    const LOCAL: u64 = 0x02_11_22_33_44_55;

    fn rbb() -> NetworkRbb {
        let mut n = NetworkRbb::with_speed(Vendor::Xilinx, 100, 64);
        n.add_local_mac(LOCAL);
        n
    }

    #[test]
    fn filter_drops_foreign_unicast() {
        let mut n = rbb();
        assert_eq!(
            n.process_rx(&pkt(0x02_99_99_99_99_99, 1000)),
            RxDecision::Filtered
        );
        assert!(matches!(
            n.process_rx(&pkt(LOCAL, 1000)),
            RxDecision::Deliver { .. }
        ));
        assert_eq!(n.stats().filtered, 1);
        assert_eq!(n.stats().rx_packets, 1);
    }

    #[test]
    fn multicast_accepted_only_when_enabled() {
        let mut n = rbb();
        let mcast = pkt(0x0100_5E00_0001, 1);
        assert_eq!(n.process_rx(&mcast), RxDecision::Filtered);
        n.set_accept_multicast(true);
        assert!(matches!(n.process_rx(&mcast), RxDecision::Deliver { .. }));
    }

    #[test]
    fn director_is_deterministic_and_in_range() {
        let mut n = rbb();
        let p = pkt(LOCAL, 777);
        let q1 = n.process_rx(&p);
        let q2 = n.process_rx(&p);
        assert_eq!(q1, q2);
        if let RxDecision::Deliver { queue } = q1 {
            assert!(queue < 64);
        }
    }

    #[test]
    fn flows_spread_across_queues() {
        let mut n = rbb();
        let mut queues = BTreeSet::new();
        for port in 0..200 {
            if let RxDecision::Deliver { queue } = n.process_rx(&pkt(LOCAL, port)) {
                queues.insert(queue);
            }
        }
        assert!(queues.len() > 32, "only {} queues used", queues.len());
    }

    #[test]
    fn reuse_fractions_in_fig14_bands() {
        use crate::rbb::MigrationKind;
        let n = rbb();
        let xv = n.workload(MigrationKind::CrossVendor).reuse_fraction();
        let xc = n.workload(MigrationKind::CrossChip).reuse_fraction();
        assert!((0.69..=0.76).contains(&xv), "cross-vendor {xv:.3}");
        assert!((0.84..=0.93).contains(&xc), "cross-chip {xc:.3}");
        let same = n.workload(MigrationKind::SamePlatform).reuse_fraction();
        assert_eq!(same, 1.0);
    }

    #[test]
    fn config_split_reduces_role_burden() {
        let inv = rbb().config_inventory();
        let factor = inv.reduction_factor().unwrap();
        assert!(
            (8.8..=19.8).contains(&factor),
            "reduction factor {factor:.1} outside Figure 12's band"
        );
    }

    #[test]
    fn register_file_shape() {
        let rf = rbb().register_file();
        assert!(rf.addr_of("mon_rx_9").is_some());
        assert!(rf.addr_of("table_cmd").is_some());
        assert_eq!(rf.iter().filter(|(_, n)| n.starts_with("mon_")).count(), 28);
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queues_rejected() {
        let _ = NetworkRbb::with_speed(Vendor::Intel, 100, 0);
    }
}
