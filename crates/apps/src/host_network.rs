//! Host Network: network-function offloading (checksum, OVS-style flow
//! cache).
//!
//! The FPGA sits bump-in-the-wire in front of the host NIC path and
//! offloads per-packet work: RFC 1071 checksum computation/validation and
//! an exact-match flow cache applying forwarding actions (§5.1).

use crate::common::{App, BitwPath};
use harmonia_hw::ip::MacIp;
use harmonia_hw::Vendor;
use harmonia_shell::rbb::network::{FlowKey, PacketMeta};
use harmonia_shell::{MemoryDemand, RoleSpec};
use harmonia_sim::Freq;
use std::collections::HashMap;

/// Computes the RFC 1071 internet checksum over a byte slice.
///
/// ```
/// use harmonia_apps::host_network::internet_checksum;
/// // Classic RFC 1071 example data.
/// let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(internet_checksum(&data), !0xddf2u16);
/// ```
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Verifies a checksummed buffer (sum over data including the checksum
/// folds to zero).
pub fn checksum_valid(data_with_checksum: &[u8]) -> bool {
    internet_checksum(data_with_checksum) == 0
}

/// Forwarding actions the flow cache can apply.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FlowAction {
    /// Forward to a host queue.
    ToQueue(u16),
    /// Rewrite the VLAN then forward to a queue.
    SetVlan(u16, u16),
    /// Drop the packet.
    Drop,
}

/// A wildcard mask over the 5-tuple — one OVS "megaflow" tuple class.
///
/// Prefix lengths apply to the IP fields; the boolean flags select whether
/// ports/protocol participate in the match at all.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowMask {
    /// Source-IP prefix length (0–32).
    pub src_bits: u8,
    /// Destination-IP prefix length (0–32).
    pub dst_bits: u8,
    /// Match the source port exactly.
    pub src_port: bool,
    /// Match the destination port exactly.
    pub dst_port: bool,
    /// Match the protocol exactly.
    pub proto: bool,
}

impl FlowMask {
    /// The exact-match (microflow) mask.
    pub fn exact() -> Self {
        FlowMask {
            src_bits: 32,
            dst_bits: 32,
            src_port: true,
            dst_port: true,
            proto: true,
        }
    }

    fn mask_ip(ip: u32, bits: u8) -> u32 {
        if bits == 0 {
            0
        } else {
            ip & (u32::MAX << (32 - u32::from(bits.min(32))))
        }
    }

    /// Applies the mask to a flow key, zeroing wildcarded fields.
    pub(crate) fn apply(&self, key: &FlowKey) -> FlowKey {
        FlowKey {
            src_ip: Self::mask_ip(key.src_ip, self.src_bits),
            dst_ip: Self::mask_ip(key.dst_ip, self.dst_bits),
            src_port: if self.src_port { key.src_port } else { 0 },
            dst_port: if self.dst_port { key.dst_port } else { 0 },
            proto: if self.proto { key.proto } else { 0 },
        }
    }
}

/// An OVS-style megaflow cache: tuple-space search over wildcard masks.
///
/// Each distinct mask is one tuple class holding a hash table of masked
/// keys. Lookup probes the classes in priority order (insertion order of
/// masks) and returns the first hit — a software model of the TCAM-assisted
/// classifier the offload engine implements.
#[derive(Clone, Debug, Default)]
pub struct MegaflowCache {
    /// `(mask, entries)` in priority order.
    tuples: Vec<(FlowMask, HashMap<FlowKey, FlowAction>)>,
    entries: usize,
    capacity: usize,
    lookups: u64,
    probes: u64,
}

impl MegaflowCache {
    /// Creates a cache bounded to `capacity` total entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "megaflow cache needs capacity");
        MegaflowCache {
            capacity,
            ..Default::default()
        }
    }

    /// Total installed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct tuple classes (masks).
    #[cfg(test)]
    fn tuple_classes(&self) -> usize {
        self.tuples.len()
    }

    /// Mean tuple-class probes per lookup (the TSS cost metric).
    #[cfg(test)]
    fn probes_per_lookup(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.probes as f64 / self.lookups as f64
        }
    }

    /// Installs a megaflow: `key` is masked by `mask` before storage.
    ///
    /// # Errors
    ///
    /// Returns the key back when the cache is full (unless the masked key
    /// already exists, in which case the action is updated).
    pub fn install(
        &mut self,
        mask: FlowMask,
        key: FlowKey,
        action: FlowAction,
    ) -> Result<(), FlowKey> {
        let masked = mask.apply(&key);
        let table = match self.tuples.iter_mut().find(|(m, _)| *m == mask) {
            Some((_, t)) => t,
            None => {
                self.tuples.push((mask, HashMap::new()));
                &mut self.tuples.last_mut().expect("just pushed").1
            }
        };
        match table.entry(masked) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.insert(action);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                if self.entries >= self.capacity {
                    return Err(key);
                }
                v.insert(action);
                self.entries += 1;
            }
        }
        Ok(())
    }

    /// Looks a packet up across the tuple classes; first hit wins.
    pub fn lookup(&mut self, pkt: &PacketMeta) -> Option<FlowAction> {
        self.lookups += 1;
        let key = pkt.flow_key();
        for (mask, table) in &self.tuples {
            self.probes += 1;
            if let Some(&action) = table.get(&mask.apply(&key)) {
                return Some(action);
            }
        }
        None
    }
}

/// Flow-cache statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OffloadStats {
    /// Cache hits (fast path).
    pub cache_hits: u64,
    /// Cache misses punted to the host slow path.
    pub cache_misses: u64,
    /// Checksums computed.
    pub checksums: u64,
}

/// The host-network offload engine.
#[derive(Clone, Debug)]
pub struct HostNetwork {
    flow_cache: MegaflowCache,
    stats: OffloadStats,
}

impl HostNetwork {
    /// Creates an engine with the given flow-cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        HostNetwork {
            flow_cache: MegaflowCache::new(capacity),
            stats: OffloadStats::default(),
        }
    }

    /// Installs (or updates) an exact-match (microflow) entry, as the host
    /// slow path does after processing a miss.
    ///
    /// # Errors
    ///
    /// Returns the key when the cache is full.
    pub fn install(&mut self, key: FlowKey, action: FlowAction) -> Result<(), FlowKey> {
        self.flow_cache.install(FlowMask::exact(), key, action)
    }

    /// Looks a packet up on the fast path; `None` = slow-path punt.
    #[cfg(test)]
    fn fast_path(&mut self, pkt: &PacketMeta) -> Option<FlowAction> {
        match self.flow_cache.lookup(pkt) {
            Some(action) => {
                self.stats.cache_hits += 1;
                Some(action)
            }
            None => {
                self.stats.cache_misses += 1;
                None
            }
        }
    }

    /// Offloads a checksum computation for a payload.
    pub fn offload_checksum(&mut self, payload: &[u8]) -> u16 {
        self.stats.checksums += 1;
        internet_checksum(payload)
    }

    /// Cache occupancy.
    #[cfg(test)]
    fn cached_flows(&self) -> usize {
        self.flow_cache.len()
    }

    /// Statistics.
    pub fn stats(&self) -> OffloadStats {
        self.stats
    }

    /// The offload BITW datapath (parse + cache + checksum ≈ 26 cycles).
    pub fn datapath(&self) -> BitwPath {
        BitwPath::new(MacIp::new(Vendor::Intel, 100), 26, Freq::mhz(322))
    }
}

impl App for HostNetwork {
    fn name(&self) -> &'static str {
        "Host Network"
    }

    fn role_spec(&self) -> RoleSpec {
        RoleSpec::builder("host-network")
            .network_gbps(100)
            .network_ports(2)
            .memory(MemoryDemand::Ddr { channels: 1 }) // megaflow spill
            .queues(256)
            .multicast()
            .user_domain(Freq::mhz(322), 512)
            .build()
    }

    fn role_loc(&self) -> u64 {
        // Figure 3a: the shell is 66 % of the Host Network project — this
        // is the largest role of the five.
        18_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(port: u16) -> PacketMeta {
        PacketMeta {
            dst_mac: 2,
            src_ip: 10,
            dst_ip: 20,
            src_port: port,
            dst_port: 443,
            proto: 6,
            bytes: 512,
        }
    }

    #[test]
    fn checksum_known_vectors() {
        // All zeros → 0xFFFF.
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
        // Odd length pads with zero.
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00);
    }

    #[test]
    fn checksum_round_trip_validates() {
        let payload = b"harmonia offload engine test payload";
        let csum = internet_checksum(payload);
        let mut framed = payload.to_vec();
        // RFC 1071: inserting the checksum makes the total fold to zero.
        if framed.len() % 2 == 1 {
            framed.push(0);
        }
        framed.extend_from_slice(&csum.to_be_bytes());
        assert!(checksum_valid(&framed));
        // Corruption is detected.
        framed[3] ^= 0x10;
        assert!(!checksum_valid(&framed));
    }

    #[test]
    fn fast_path_hits_after_install() {
        let mut hn = HostNetwork::new(1024);
        assert_eq!(hn.fast_path(&pkt(1)), None); // miss → slow path
        hn.install(pkt(1).flow_key(), FlowAction::ToQueue(5))
            .unwrap();
        assert_eq!(hn.fast_path(&pkt(1)), Some(FlowAction::ToQueue(5)));
        let s = hn.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn cache_capacity_enforced_with_update_allowed() {
        let mut hn = HostNetwork::new(2);
        hn.install(pkt(1).flow_key(), FlowAction::Drop).unwrap();
        hn.install(pkt(2).flow_key(), FlowAction::Drop).unwrap();
        assert!(hn.install(pkt(3).flow_key(), FlowAction::Drop).is_err());
        // Updating an existing key is always fine.
        hn.install(pkt(2).flow_key(), FlowAction::ToQueue(1))
            .unwrap();
        assert_eq!(hn.cached_flows(), 2);
    }

    #[test]
    fn actions_differentiate() {
        let mut hn = HostNetwork::new(16);
        hn.install(pkt(1).flow_key(), FlowAction::SetVlan(100, 3))
            .unwrap();
        hn.install(pkt(2).flow_key(), FlowAction::Drop).unwrap();
        assert_eq!(hn.fast_path(&pkt(1)), Some(FlowAction::SetVlan(100, 3)));
        assert_eq!(hn.fast_path(&pkt(2)), Some(FlowAction::Drop));
    }

    #[test]
    fn checksum_offload_counts() {
        let mut hn = HostNetwork::new(4);
        hn.offload_checksum(&[1, 2, 3, 4]);
        hn.offload_checksum(&[5, 6]);
        assert_eq!(hn.stats().checksums, 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = HostNetwork::new(0);
    }

    #[test]
    fn megaflow_wildcards_cover_whole_subnets() {
        let mut mf = MegaflowCache::new(64);
        // One /16 megaflow instead of thousands of microflows.
        let mask = FlowMask {
            src_bits: 16,
            dst_bits: 0,
            src_port: false,
            dst_port: true,
            proto: true,
        };
        let template = pkt(443).flow_key();
        let template = harmonia_shell::rbb::network::FlowKey {
            src_ip: 0x0A14_0000, // 10.20.0.0
            dst_port: 443,
            ..template
        };
        mf.install(mask, template, FlowAction::ToQueue(9)).unwrap();
        // Any source in 10.20/16 to port 443 hits the single entry.
        for host in [0x0A14_0001u32, 0x0A14_FFFE, 0x0A14_1234] {
            let mut p = pkt(9999);
            p.src_ip = host;
            p.dst_port = 443;
            assert_eq!(mf.lookup(&p), Some(FlowAction::ToQueue(9)), "{host:#x}");
        }
        // Outside the subnet or another port: miss.
        let mut outside = pkt(9999);
        outside.src_ip = 0x0A15_0001;
        outside.dst_port = 443;
        assert_eq!(mf.lookup(&outside), None);
        let mut wrong_port = pkt(9999);
        wrong_port.src_ip = 0x0A14_0001;
        wrong_port.dst_port = 80;
        assert_eq!(mf.lookup(&wrong_port), None);
        assert_eq!(mf.len(), 1);
    }

    #[test]
    fn megaflow_first_mask_wins_on_overlap() {
        let mut mf = MegaflowCache::new(8);
        let exact_key = pkt(7).flow_key();
        mf.install(FlowMask::exact(), exact_key, FlowAction::Drop)
            .unwrap();
        let broad = FlowMask {
            src_bits: 0,
            dst_bits: 0,
            src_port: false,
            dst_port: false,
            proto: true,
        };
        mf.install(broad, exact_key, FlowAction::ToQueue(1)).unwrap();
        // Exact class was installed first → wins for the exact packet.
        assert_eq!(mf.lookup(&pkt(7)), Some(FlowAction::Drop));
        // Other packets fall to the broad class.
        assert_eq!(mf.lookup(&pkt(8)), Some(FlowAction::ToQueue(1)));
        assert_eq!(mf.tuple_classes(), 2);
    }

    #[test]
    fn megaflow_capacity_and_update_semantics() {
        let mut mf = MegaflowCache::new(2);
        mf.install(FlowMask::exact(), pkt(1).flow_key(), FlowAction::Drop)
            .unwrap();
        mf.install(FlowMask::exact(), pkt(2).flow_key(), FlowAction::Drop)
            .unwrap();
        assert!(mf
            .install(FlowMask::exact(), pkt(3).flow_key(), FlowAction::Drop)
            .is_err());
        // Updating an existing megaflow is not a new entry.
        mf.install(FlowMask::exact(), pkt(1).flow_key(), FlowAction::ToQueue(4))
            .unwrap();
        assert_eq!(mf.lookup(&pkt(1)), Some(FlowAction::ToQueue(4)));
        assert_eq!(mf.len(), 2);
    }

    #[test]
    fn megaflow_probe_cost_tracks_tuple_classes() {
        let mut mf = MegaflowCache::new(128);
        for bits in [8u8, 16, 24, 32] {
            let mask = FlowMask {
                src_bits: bits,
                dst_bits: 0,
                src_port: false,
                dst_port: false,
                proto: false,
            };
            let mut k = pkt(1).flow_key();
            k.src_ip = 0x0B00_0000;
            mf.install(mask, k, FlowAction::Drop).unwrap();
        }
        // A missing packet probes every class.
        let mut p = pkt(1);
        p.src_ip = 0xC0A8_0001;
        assert_eq!(mf.lookup(&p), None);
        assert_eq!(mf.probes_per_lookup(), 4.0);
    }

    #[test]
    fn datapath_line_rate() {
        let p = HostNetwork::new(16).datapath().perf(1024);
        assert!(p.throughput > 95.0);
    }
}
