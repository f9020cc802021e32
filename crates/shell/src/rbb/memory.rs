//! Memory RBB: FPGA external-memory management (§3.3.1).
//!
//! Ex-functions: **address interleaving** that "maps data into different
//! bank groups [and channels] to improve the efficiency of read/write
//! operations", and a **hot cache** that "stores consecutively accessed
//! data on-chip for fast access, avoiding situations where interleaved
//! access is impossible". Data moves on a 512-bit mem-map interface;
//! control uses a 32-bit reg interface. The channel count parameter follows
//! the device: 2 channels for DDR, 32 for HBM.

use crate::rbb::{LogicComponent, LogicPart, Portability, Rbb, RbbKind};
use harmonia_hw::ip::dram::{Divisor, DramModel, MemOp};
use harmonia_hw::ip::{DdrIp, HbmIp, VendorIp};
use harmonia_hw::regfile::{Access, RegisterFile};
use harmonia_hw::resource::ResourceUsage;
use harmonia_hw::Vendor;
use harmonia_metrics::config::{ConfigClass, ConfigInventory};
use harmonia_sim::Picos;

/// Which storage instance backs the RBB — "roles should select the
/// appropriate storage instance (HBM/DDR) based on their demands".
#[derive(Debug)]
enum StorageInstance {
    /// DDR with the given channel count.
    Ddr(DdrIp, u32),
    /// One HBM stack (32 pseudo-channels).
    Hbm(HbmIp),
}

/// A direct-mapped on-chip cache over memory lines.
#[derive(Debug, Clone)]
pub struct HotCache {
    /// Tag per line slot; `None` = invalid.
    tags: Vec<Option<u64>>,
    /// Line size and slot count, as divisors.
    line_bytes: Divisor,
    slots: Divisor,
    hits: u64,
    misses: u64,
}

impl HotCache {
    /// Creates a cache of `lines` slots of `line_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(lines: usize, line_bytes: u64) -> Self {
        assert!(lines > 0 && line_bytes > 0, "cache geometry must be non-zero");
        HotCache {
            tags: vec![None; lines],
            line_bytes: Divisor::new(line_bytes),
            slots: Divisor::new(lines as u64),
            hits: 0,
            misses: 0,
        }
    }

    fn slot_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        ((line % self.slots) as usize, line)
    }

    /// Looks up a read; fills the line on miss. Returns hit/miss.
    pub fn lookup_fill(&mut self, addr: u64) -> bool {
        let (slot, tag) = self.slot_and_tag(addr);
        if self.tags[slot] == Some(tag) {
            self.hits += 1;
            true
        } else {
            self.tags[slot] = Some(tag);
            self.misses += 1;
            false
        }
    }

    /// Invalidates the line containing `addr` (write-through policy).
    pub fn invalidate(&mut self, addr: u64) {
        let (slot, tag) = self.slot_and_tag(addr);
        if self.tags[slot] == Some(tag) {
            self.tags[slot] = None;
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Result of running a memory trace through the RBB.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MemTraceResult {
    /// Wall-clock makespan of the trace.
    pub makespan_ps: Picos,
    /// Total bytes moved (cache + DRAM).
    pub bytes: u64,
    /// Bytes that reached DRAM.
    pub dram_bytes: u64,
    /// Reads served by the hot cache.
    pub cache_hits: u64,
}

impl MemTraceResult {
    /// Achieved bandwidth in GB/s.
    pub fn bandwidth_gbs(&self) -> f64 {
        if self.makespan_ps == 0 {
            0.0
        } else {
            self.bytes as f64 / (self.makespan_ps as f64 / 1e3)
        }
    }

    /// Operations per second given the op count.
    pub fn ops_per_sec(&self, ops: u64) -> f64 {
        if self.makespan_ps == 0 {
            0.0
        } else {
            ops as f64 / (self.makespan_ps as f64 / 1e12)
        }
    }
}

/// The Memory RBB.
#[derive(Debug)]
pub struct MemoryRbb {
    storage: StorageInstance,
    components: Vec<LogicComponent>,
    channels: Vec<DramModel>,
    interleave_enabled: bool,
    cache_enabled: bool,
    cache: HotCache,
    /// Interleave stripe in bytes.
    stripe_bytes: Divisor,
    /// Capacity per channel for contiguous (non-interleaved) mapping.
    channel_span_bytes: Divisor,
    /// `channels.len()`, as a divisor.
    channel_count: Divisor,
    /// Service time per cache-hit access on the on-chip port.
    cache_port_ps: Picos,
}

impl MemoryRbb {
    /// Default cache geometry: 256 lines × 4 KiB = 1 MiB of on-chip RAM.
    pub const CACHE_LINES: usize = 256;
    /// Cache line size in bytes.
    pub const CACHE_LINE_BYTES: u64 = 4096;

    /// Creates a DDR-backed Memory RBB with `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn ddr(die_vendor: Vendor, gen: u8, channels: u32) -> Self {
        assert!(channels > 0, "memory RBB needs at least one channel");
        let ip = DdrIp::new(die_vendor, gen);
        let models = (0..channels).map(|_| ip.channel()).collect();
        Self::build(StorageInstance::Ddr(ip, channels), models)
    }

    /// Creates an HBM-backed Memory RBB (32 pseudo-channels).
    pub fn hbm(die_vendor: Vendor) -> Self {
        let ip = HbmIp::new(die_vendor);
        let models = ip.channels();
        Self::build(StorageInstance::Hbm(ip), models)
    }

    fn build(storage: StorageInstance, channels: Vec<DramModel>) -> Self {
        MemoryRbb {
            channel_count: Divisor::new(channels.len() as u64),
            storage,
            components: Self::component_inventory(),
            channels,
            interleave_enabled: true,
            cache_enabled: true,
            cache: HotCache::new(Self::CACHE_LINES, Self::CACHE_LINE_BYTES),
            stripe_bytes: Divisor::new(4096),
            // 256 MiB contiguous regions.
            channel_span_bytes: Divisor::new(1 << 28),
            cache_port_ps: 1_500, // ≈42 GB/s on-chip port for 64 B ops
        }
    }

    fn component_inventory() -> Vec<LogicComponent> {
        vec![
            LogicComponent {
                name: "addr-interleaver",
                part: LogicPart::ExFunction,
                portability: Portability::Universal,
                loc: 2_700,
                resources: ResourceUsage::new(2_400, 3_400, 0, 0, 0),
            },
            LogicComponent {
                name: "hot-cache",
                part: LogicPart::ExFunction,
                portability: Portability::Universal,
                loc: 3_200,
                resources: ResourceUsage::new(2_600, 3_600, 0, 32, 0),
            },
            LogicComponent {
                name: "stat-core",
                part: LogicPart::Monitoring,
                portability: Portability::Universal,
                loc: 1_300,
                resources: ResourceUsage::new(1_200, 1_800, 2, 0, 0),
            },
            LogicComponent {
                name: "cal-ctrl",
                part: LogicPart::Control,
                portability: Portability::VendorBound,
                loc: 1_200,
                resources: ResourceUsage::new(1_000, 1_500, 0, 0, 0),
            },
            LogicComponent {
                name: "phy-glue",
                part: LogicPart::InstanceGlue,
                portability: Portability::ChipBound,
                loc: 1_600,
                resources: ResourceUsage::new(1_400, 2_200, 0, 0, 0),
            },
        ]
    }

    /// Enables/disables the address-interleaving ex-function.
    pub fn set_interleave(&mut self, enabled: bool) {
        self.interleave_enabled = enabled;
    }

    /// Enables/disables the hot cache.
    pub fn set_cache(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// Number of memory channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Aggregate peak bandwidth across channels, GB/s.
    pub fn peak_gbs(&self) -> f64 {
        self.channels
            .iter()
            .map(|c| c.timing().peak_gbs())
            .sum()
    }

    /// Runs a trace of memory operations; the queue is kept saturated
    /// (issue time 0) so the result reflects steady-state bandwidth.
    pub fn run_trace<I: IntoIterator<Item = MemOp>>(&mut self, ops: I) -> MemTraceResult {
        // Channels keep absolute time across calls; measure this trace
        // relative to where they already were.
        let t0: Picos = self
            .channels
            .iter()
            .map(DramModel::busy_until)
            .max()
            .unwrap_or(0);
        let mut cache_port_busy: Picos = 0;
        let mut dram_done: Picos = t0;
        let mut bytes = 0u64;
        let mut dram_bytes = 0u64;
        let mut cache_hits = 0u64;
        // Channel of an op: its stripe (interleaved) or region
        // (contiguous), modulo the channel count.
        let region = if self.interleave_enabled {
            self.stripe_bytes
        } else {
            self.channel_span_bytes
        };
        let cache_enabled = self.cache_enabled;
        for op in ops {
            bytes += u64::from(op.bytes);
            if cache_enabled {
                if op.is_write {
                    self.cache.invalidate(op.addr);
                } else if self.cache.lookup_fill(op.addr) {
                    cache_hits += 1;
                    cache_port_busy += self.cache_port_ps
                        * u64::from(op.bytes.div_ceil(64));
                    continue;
                }
            }
            let ch = ((op.addr / region) % self.channel_count) as usize;
            dram_done = dram_done.max(self.channels[ch].access(0, op));
            dram_bytes += u64::from(op.bytes);
        }
        MemTraceResult {
            makespan_ps: (dram_done - t0).max(cache_port_busy),
            bytes,
            dram_bytes,
            cache_hits,
        }
    }

    /// The hot cache's statistics.
    pub fn cache(&self) -> &HotCache {
        &self.cache
    }

    /// Publishes cache/channel aggregates into a register file laid out
    /// like [`Rbb::register_file`].
    ///
    /// # Errors
    ///
    /// Fails only if `rf` lacks this RBB's monitor block.
    pub fn publish_stats(
        &self,
        rf: &mut RegisterFile,
    ) -> Result<(), harmonia_hw::regfile::RegError> {
        let set = |rf: &mut RegisterFile, name: &str, v: u64| match rf.addr_of(name) {
            Some(addr) => rf.hw_set(addr, v as u32),
            None => Err(harmonia_hw::regfile::RegError::Unmapped { addr: 0 }),
        };
        let hits: u64 = self.channels.iter().map(DramModel::row_hits).sum();
        let misses: u64 = self.channels.iter().map(DramModel::row_misses).sum();
        set(rf, "mon_rd_0", hits)?;
        set(rf, "mon_rd_1", misses)?;
        set(rf, "mon_cache_0", self.cache.hits())?;
        set(rf, "mon_cache_1", self.cache.misses())?;
        set(rf, "mon_cache_2", u64::from(self.interleave_enabled))?;
        set(rf, "mon_cache_3", u64::from(self.cache_enabled))?;
        Ok(())
    }
}

impl Rbb for MemoryRbb {
    fn kind(&self) -> RbbKind {
        RbbKind::Memory
    }

    fn instance(&self) -> &dyn VendorIp {
        match &self.storage {
            StorageInstance::Ddr(ip, _) => ip,
            StorageInstance::Hbm(ip) => ip,
        }
    }

    fn components(&self) -> &[LogicComponent] {
        &self.components
    }

    fn resources(&self) -> ResourceUsage {
        let logic: ResourceUsage = self.components.iter().map(|c| c.resources).sum();
        let per_instance = self.instance().resources();
        // DDR replicates the controller per channel; HBM ships one stack
        // controller for all 32 pseudo-channels.
        match &self.storage {
            StorageInstance::Ddr(_, ch) => per_instance * u64::from(*ch) + logic,
            StorageInstance::Hbm(_) => per_instance + logic,
        }
    }

    fn register_file(&self) -> RegisterFile {
        let mut rf = RegisterFile::new("memory-rbb");
        rf.define(0x000, "interleave_ctrl", Access::ReadWrite, 1);
        rf.define(0x004, "cache_ctrl", Access::ReadWrite, 1);
        rf.define(0x008, "stripe_log2", Access::ReadWrite, 12);
        rf.define(0x00C, "channel_mask", Access::ReadWrite, 0xFFFF_FFFF);
        rf.define(0x010, "cal_trigger", Access::WriteOnly, 0);
        rf.define(0x014, "status", Access::ReadOnly, 0);
        // 24 monitoring counters.
        rf.define_block(0x100, "mon_rd_", 8, Access::ReadOnly, 0);
        rf.define_block(0x140, "mon_wr_", 8, Access::ReadOnly, 0);
        rf.define_block(0x180, "mon_cache_", 8, Access::ReadOnly, 0);
        rf
    }

    fn config_inventory(&self) -> ConfigInventory {
        let mut inv = ConfigInventory::new("memory-rbb");
        inv.add_all(
            ["instance_kind", "occupied_channels", "cache_enable"],
            ConfigClass::RoleOriented,
        );
        for c in self.instance().native_interface().configs() {
            inv.add(format!("mem.{}", c.name), ConfigClass::ShellOriented);
        }
        inv.add_all(
            [
                "interleave_stripe",
                "cache_lines",
                "cache_line_bytes",
                "refresh_interval",
                "ecc_mode",
                "cal_vref",
                "io_standard",
                "dq_map",
                "dbi_mode",
                "clamshell_mode",
                "thermal_poll_ms",
                "bank_hash_seed",
                "wr_merge_window",
                "rd_reorder_depth",
                "axi_outstanding",
                "pin_swizzle",
                "dfi_ratio",
            ],
            ConfigClass::ShellOriented,
        );
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rbb::MigrationKind;
    use harmonia_testkit::prelude::*;

    forall! {
        /// Channel and cache-slot mapping equal the division mapping on
        /// random addresses (an op replays on its channel and no other):
        /// for 1, 2 and 3 DDR channels and 32 HBM channels with interleave
        /// on and off, and for the default cache geometry and one that is
        /// not a power of two.
        #[test]
        fn address_mapping_matches_division(
            addr in any::<u64>(),
            which in 0usize..4,
            interleave in any::<bool>(),
        ) {
            let mut m = match which {
                3 => MemoryRbb::hbm(Vendor::Xilinx),
                ch => MemoryRbb::ddr(Vendor::Xilinx, 4, ch as u32 + 1),
            };
            m.set_interleave(interleave);
            m.set_cache(false);
            // The 4 KiB stripe and 256 MiB span `build` sets.
            let region = if interleave { addr / 4096 } else { addr / (1 << 28) };
            let want = (region % m.channel_count() as u64) as usize;
            m.run_trace([MemOp::read(addr, 64)]);
            for (ch, channel) in m.channels.iter().enumerate() {
                prop_assert_eq!(channel.busy_until() > 0, ch == want, "channel {ch}");
            }
            let default = (MemoryRbb::CACHE_LINES, MemoryRbb::CACHE_LINE_BYTES);
            for (lines, line_bytes) in [default, (100, 3000)] {
                let line = addr / line_bytes;
                prop_assert_eq!(
                    HotCache::new(lines, line_bytes).slot_and_tag(addr),
                    ((line % lines as u64) as usize, line)
                );
            }
        }

        /// A one-channel, cache-off RBB replays a trace exactly as folding
        /// `DramModel::access(0, op)` over it on a fresh channel: every op
        /// lands on channel 0 and completions never decrease, so the RBB's
        /// latest completion is the fold's last one. The second run checks
        /// that a makespan is measured from where the channel already was.
        #[test]
        fn one_channel_replay_matches_access_fold(
            gen in 3u8..=4,
            first in collection::vec((any::<u64>(), 0u32..=4096, any::<bool>()), 0..48),
            second in collection::vec((any::<u64>(), 0u32..=4096, any::<bool>()), 0..48),
        ) {
            let mut rbb = MemoryRbb::ddr(Vendor::Xilinx, gen, 1);
            rbb.set_cache(false);
            let mut channel = DdrIp::new(Vendor::Xilinx, gen).channel();
            for run in [first, second] {
                let ops: Vec<MemOp> = run
                    .into_iter()
                    .map(|(addr, bytes, is_write)| MemOp { addr, bytes, is_write })
                    .collect();
                let start = channel.busy_until();
                let end = ops.iter().fold(start, |_, &op| channel.access(0, op));
                let r = rbb.run_trace(ops.iter().copied());
                prop_assert_eq!(r.makespan_ps, end - start);
                prop_assert_eq!(r.bytes, ops.iter().map(|op| u64::from(op.bytes)).sum::<u64>());
            }
        }
    }

    fn seq_ops(n: u64, size: u32) -> impl Iterator<Item = MemOp> {
        (0..n).map(move |i| MemOp::read(i * u64::from(size), size))
    }

    fn rand_ops(n: u64, size: u32) -> impl Iterator<Item = MemOp> {
        let mut a = 0xDEAD_BEEFu64;
        (0..n).map(move |_| {
            a = a.wrapping_mul(6364136223846793005).wrapping_add(1);
            MemOp::read((a >> 7) % (1 << 33), size)
        })
    }

    #[test]
    fn ddr_two_channels_double_bandwidth() {
        let mut one = MemoryRbb::ddr(Vendor::Xilinx, 4, 1);
        let mut two = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        one.set_cache(false);
        two.set_cache(false);
        let r1 = one.run_trace(seq_ops(40_000, 64));
        let r2 = two.run_trace(seq_ops(40_000, 64));
        let ratio = r2.bandwidth_gbs() / r1.bandwidth_gbs();
        assert!(
            (1.8..=2.05).contains(&ratio),
            "2-channel speedup {ratio:.2} not ≈2x"
        );
    }

    #[test]
    fn hbm_aggregate_far_exceeds_ddr() {
        let mut hbm = MemoryRbb::hbm(Vendor::Xilinx);
        let mut ddr = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        hbm.set_cache(false);
        ddr.set_cache(false);
        let rh = hbm.run_trace(seq_ops(200_000, 64));
        let rd = ddr.run_trace(seq_ops(200_000, 64));
        assert!(rh.bandwidth_gbs() > 5.0 * rd.bandwidth_gbs());
        assert!((hbm.peak_gbs() - 460.8).abs() < 1.0);
    }

    #[test]
    fn interleaving_rescues_sequential_streams() {
        // Without interleaving, a contiguous stream hammers one channel;
        // with it, stripes spread across both DDR channels or all 32 HBM
        // pseudo-channels.
        let backends: [(fn() -> MemoryRbb, f64); 2] = [
            (|| MemoryRbb::ddr(Vendor::Intel, 4, 2), 1.7),
            (|| MemoryRbb::hbm(Vendor::Xilinx), 4.0),
        ];
        for (make, speedup) in backends {
            let mut on = make();
            let mut off = make();
            on.set_cache(false);
            off.set_cache(false);
            off.set_interleave(false);
            let r_on = on.run_trace(seq_ops(40_000, 64));
            let r_off = off.run_trace(seq_ops(40_000, 64));
            assert!(
                r_on.bandwidth_gbs() > speedup * r_off.bandwidth_gbs(),
                "{} channels: interleave {:.1} vs contiguous {:.1} GB/s",
                on.channel_count(),
                r_on.bandwidth_gbs(),
                r_off.bandwidth_gbs()
            );
        }
    }

    #[test]
    fn hot_cache_serves_repeated_reads() {
        let mut m = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        // Working set: 64 KiB, far smaller than the 1 MiB cache — second
        // pass onward hits on chip.
        let pass = |m: &mut MemoryRbb| {
            m.run_trace((0..1024u64).map(|i| MemOp::read(i * 64, 64)))
        };
        let first = pass(&mut m);
        let second = pass(&mut m);
        assert_eq!(first.cache_hits, 1008, "only line-granular misses expected");
        assert_eq!(second.cache_hits, 1024);
        assert!(second.dram_bytes == 0);
    }

    #[test]
    fn writes_invalidate_cache_lines() {
        let mut m = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        m.run_trace([MemOp::read(0, 64)]); // fill
        m.run_trace([MemOp::write(0, 64)]); // invalidate
        let r = m.run_trace([MemOp::read(0, 64)]);
        assert_eq!(r.cache_hits, 0, "stale line served after write");
    }

    #[test]
    fn random_below_sequential_with_exfunctions_off() {
        let mut m = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        m.set_cache(false);
        let seq = m.run_trace(seq_ops(20_000, 64));
        let mut m2 = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        m2.set_cache(false);
        let rnd = m2.run_trace(rand_ops(20_000, 64));
        assert!(seq.bandwidth_gbs() > 1.5 * rnd.bandwidth_gbs());
    }

    #[test]
    fn reuse_fractions_in_fig14_bands() {
        let m = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        let xv = m.workload(MigrationKind::CrossVendor).reuse_fraction();
        let xc = m.workload(MigrationKind::CrossChip).reuse_fraction();
        assert!((0.64..=0.76).contains(&xv), "cross-vendor {xv:.3}");
        assert!((0.80..=0.93).contains(&xc), "cross-chip {xc:.3}");
    }

    #[test]
    fn config_reduction_in_band() {
        let m = MemoryRbb::hbm(Vendor::Xilinx);
        let f = m.config_inventory().reduction_factor().unwrap();
        assert!((6.0..=19.8).contains(&f), "factor {f:.1}");
    }

    #[test]
    fn ddr_resources_scale_with_channels() {
        let one = MemoryRbb::ddr(Vendor::Xilinx, 4, 1);
        let two = MemoryRbb::ddr(Vendor::Xilinx, 4, 2);
        assert!(two.resources().lut > one.resources().lut);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = MemoryRbb::ddr(Vendor::Xilinx, 4, 0);
    }

    #[test]
    fn trace_result_math() {
        let r = MemTraceResult {
            makespan_ps: 1_000_000, // 1 µs
            bytes: 64_000,
            dram_bytes: 64_000,
            cache_hits: 0,
        };
        assert!((r.bandwidth_gbs() - 64.0).abs() < 1e-9);
        assert!((r.ops_per_sec(1000) - 1e9).abs() < 1.0);
    }
}
