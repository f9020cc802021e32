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
use harmonia_hw::ip::dram::{DivMode, Division, Divisor, DramModel, MemOp, ShiftMask};
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

    /// Whether [`ShiftMask`] may map this cache's addresses.
    fn shifts(&self) -> bool {
        self.line_bytes.is_power_of_two() && self.slots.is_power_of_two()
    }

    #[inline(always)]
    fn slot_and_tag<M: DivMode>(&self, addr: u64) -> (usize, u64) {
        let line = M::div(addr, self.line_bytes);
        (M::rem(line, self.slots) as usize, line)
    }

    /// Looks up a read; fills the line on miss. Returns hit/miss.
    pub fn lookup_fill(&mut self, addr: u64) -> bool {
        if self.shifts() {
            self.lookup_fill_in::<ShiftMask>(addr)
        } else {
            self.lookup_fill_in::<Division>(addr)
        }
    }

    #[inline(always)]
    fn lookup_fill_in<M: DivMode>(&mut self, addr: u64) -> bool {
        let (slot, tag) = self.slot_and_tag::<M>(addr);
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
        if self.shifts() {
            self.invalidate_in::<ShiftMask>(addr)
        } else {
            self.invalidate_in::<Division>(addr)
        }
    }

    #[inline(always)]
    fn invalidate_in<M: DivMode>(&mut self, addr: u64) {
        let (slot, tag) = self.slot_and_tag::<M>(addr);
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
    /// Ops a channel collects in `run_trace` before it replays them.
    const REPLAY_CHUNK: usize = 64;

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
    ///
    /// A two-stage pipeline. Ops pass the hot cache in trace order, and
    /// each DRAM-bound op is routed to its channel's chunk, in order. A
    /// channel replays its chunk with [`DramModel::replay`] once it is
    /// full, and at the end of the trace. This is exactly the per-op
    /// replay: channels share no state, and the cache never reads DRAM
    /// timing.
    pub fn run_trace<I: IntoIterator<Item = MemOp>>(&mut self, ops: I) -> MemTraceResult {
        let shifts = self.cache.shifts()
            && self.region().is_power_of_two()
            && self.channel_count.is_power_of_two();
        if shifts {
            self.run_trace_in::<ShiftMask>(ops.into_iter())
        } else {
            self.run_trace_in::<Division>(ops.into_iter())
        }
    }

    /// Channel of an op: its stripe (interleaved) or region (contiguous),
    /// modulo the channel count.
    fn region(&self) -> Divisor {
        if self.interleave_enabled {
            self.stripe_bytes
        } else {
            self.channel_span_bytes
        }
    }

    fn run_trace_in<M: DivMode>(&mut self, ops: impl Iterator<Item = MemOp>) -> MemTraceResult {
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
        let region = self.region();
        let cache_enabled = self.cache_enabled;
        // Channel `ch`'s chunk is `chunks[ch * CHUNK..][..lens[ch]]`.
        const CHUNK: usize = MemoryRbb::REPLAY_CHUNK;
        let mut chunks = vec![MemOp::read(0, 0); self.channels.len() * CHUNK];
        let mut lens = vec![0usize; self.channels.len()];
        for op in ops {
            bytes += u64::from(op.bytes);
            if cache_enabled {
                if op.is_write {
                    self.cache.invalidate_in::<M>(op.addr);
                } else if self.cache.lookup_fill_in::<M>(op.addr) {
                    cache_hits += 1;
                    cache_port_busy += self.cache_port_ps * u64::from(op.bytes.div_ceil(64));
                    continue;
                }
            }
            dram_bytes += u64::from(op.bytes);
            let ch = M::rem(M::div(op.addr, region), self.channel_count) as usize;
            let chunk = &mut chunks[ch * CHUNK..][..CHUNK];
            let len = &mut lens[ch];
            chunk[*len] = op;
            *len += 1;
            if *len == CHUNK {
                dram_done = dram_done.max(self.channels[ch].replay(chunk));
                *len = 0;
            }
        }
        for ((channel, chunk), &len) in self
            .channels
            .iter_mut()
            .zip(chunks.chunks(CHUNK))
            .zip(&lens)
        {
            if len > 0 {
                dram_done = dram_done.max(channel.replay(&chunk[..len]));
            }
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

    /// The Memory RBB's replay loop as it was before the chunk pipeline:
    /// each op passes the cache, then `access(0, op)` on its channel.
    /// The oracle for `run_trace`.
    fn per_op_replay(
        channels: &mut [DramModel],
        mut cache: Option<&mut HotCache>,
        region: u64,
        ops: &[MemOp],
    ) -> MemTraceResult {
        let t0 = channels
            .iter()
            .map(DramModel::busy_until)
            .max()
            .unwrap_or(0);
        let mut r = MemTraceResult::default();
        let (mut cache_port_busy, mut dram_done) = (0, t0);
        for &op in ops {
            r.bytes += u64::from(op.bytes);
            if let Some(cache) = cache.as_deref_mut() {
                if op.is_write {
                    cache.invalidate(op.addr);
                } else if cache.lookup_fill(op.addr) {
                    r.cache_hits += 1;
                    cache_port_busy += 1_500 * u64::from(op.bytes.div_ceil(64));
                    continue;
                }
            }
            let ch = ((op.addr / region) % channels.len() as u64) as usize;
            dram_done = dram_done.max(channels[ch].access(0, op));
            r.dram_bytes += u64::from(op.bytes);
        }
        r.makespan_ps = (dram_done - t0).max(cache_port_busy);
        r
    }

    /// Ops from `(addr, bytes, is_write, local)` draws; a local op stays
    /// in the low 4 MiB, where the 1 MiB cache and open rows can hit.
    fn draw_ops(draws: Vec<(u64, u32, bool, bool)>) -> Vec<MemOp> {
        draws
            .into_iter()
            .map(|(addr, bytes, is_write, local)| MemOp {
                addr: if local { addr % (4 << 20) } else { addr },
                bytes,
                is_write,
            })
            .collect()
    }

    forall! {
        /// Channel and cache-slot mapping equal the division mapping on
        /// random addresses (an op replays on its channel and no other):
        /// for 1, 2 and 3 DDR channels and 32 HBM channels with interleave
        /// on and off, and for the default cache geometry and one that is
        /// not a power of two, each in the mode it picks.
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
                let cache = HotCache::new(lines, line_bytes);
                prop_assert_eq!(cache.shifts(), lines == MemoryRbb::CACHE_LINES);
                let got = if cache.shifts() {
                    cache.slot_and_tag::<ShiftMask>(addr)
                } else {
                    cache.slot_and_tag::<Division>(addr)
                };
                prop_assert_eq!(got, ((line % lines as u64) as usize, line));
            }
        }

        /// `run_trace` gives exactly what the per-op loop gives, for 1, 2
        /// and 3 DDR channels and 32 HBM channels, cache and interleave
        /// each on and off, on traces that span several chunks: the same
        /// result, and every channel and the cache left in the same state.
        /// The second run checks that a makespan is measured from where the
        /// channels already were.
        #[test]
        fn run_trace_matches_the_per_op_loop(
            which in 0usize..4,
            gen in 3u8..=4,
            cache in any::<bool>(),
            interleave in any::<bool>(),
            first in collection::vec((any::<u64>(), prop_oneof![0u32..=128, 0u32..=4096], any::<bool>(), any::<bool>()), 0..700),
            second in collection::vec((any::<u64>(), prop_oneof![0u32..=128, 0u32..=4096], any::<bool>(), any::<bool>()), 0..700),
        ) {
            let (mut rbb, mut channels) = match which {
                3 => (MemoryRbb::hbm(Vendor::Xilinx), HbmIp::new(Vendor::Xilinx).channels()),
                n => {
                    let ip = DdrIp::new(Vendor::Xilinx, gen);
                    (MemoryRbb::ddr(Vendor::Xilinx, gen, n as u32 + 1), vec![ip.channel(); n + 1])
                }
            };
            rbb.set_cache(cache);
            rbb.set_interleave(interleave);
            let mut hot = HotCache::new(MemoryRbb::CACHE_LINES, MemoryRbb::CACHE_LINE_BYTES);
            let region = if interleave { 4096 } else { 1 << 28 };
            for (run, draws) in [first, second].into_iter().enumerate() {
                let ops = draw_ops(draws);
                let want = per_op_replay(&mut channels, cache.then_some(&mut hot), region, &ops);
                prop_assert_eq!(rbb.run_trace(ops.iter().copied()), want, "run {run}");
                for (ch, (got, want)) in rbb.channels.iter().zip(&channels).enumerate() {
                    prop_assert_eq!(got.busy_until(), want.busy_until(), "run {run}, channel {ch}");
                    prop_assert_eq!(got.row_hits(), want.row_hits(), "run {run}, channel {ch}");
                    prop_assert_eq!(got.row_misses(), want.row_misses(), "run {run}, channel {ch}");
                }
                prop_assert_eq!(rbb.cache.hits(), hot.hits(), "run {run}");
                prop_assert_eq!(rbb.cache.misses(), hot.misses(), "run {run}");
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
