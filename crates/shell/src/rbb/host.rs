//! Host RBB: PCIe/DMA host connectivity (§3.3.1).
//!
//! Ex-function: **multi-queue isolation** — 1K DMA queues isolating
//! transmitted data from different tenants, with an active/inactive state
//! per queue so the scheduler "only schedules active queues to improve the
//! scheduling rate". Monitoring tracks per-queue depth, transmitted packets
//! and speed. Data moves on mem-map + stream interfaces; control uses a
//! 32-bit reg interface. Data width and clock double with each PCIe
//! generation, handled by the parameterized CDC.

use crate::rbb::{LogicComponent, LogicPart, Portability, Rbb, RbbKind};
use harmonia_hw::ip::{PcieDmaIp, VendorIp};
use harmonia_hw::regfile::{Access, RegisterFile};
use harmonia_hw::resource::ResourceUsage;
use harmonia_hw::Vendor;
use harmonia_metrics::config::{ConfigClass, ConfigInventory};
use harmonia_sim::SyncFifo;
use std::error::Error;
use std::fmt;

/// Per-queue statistics (the monitoring part: depth, packets, speed).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries accepted.
    pub enqueued: u64,
    /// Entries scheduled out.
    pub dequeued: u64,
    /// Bytes scheduled out.
    pub bytes: u64,
    /// Entries rejected (inactive queue or full buffer).
    pub dropped: u64,
}

/// Errors from queue operations.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HostQueueError {
    /// Queue index ≥ queue count.
    OutOfRange {
        /// Offending index.
        queue: u16,
    },
    /// The queue is inactive; tenants must activate before sending.
    Inactive {
        /// Offending index.
        queue: u16,
    },
    /// The queue's buffer is full (per-tenant backpressure).
    Full {
        /// Offending index.
        queue: u16,
    },
}

impl fmt::Display for HostQueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostQueueError::OutOfRange { queue } => write!(f, "queue {queue} out of range"),
            HostQueueError::Inactive { queue } => write!(f, "queue {queue} is inactive"),
            HostQueueError::Full { queue } => write!(f, "queue {queue} is full"),
        }
    }
}

impl Error for HostQueueError {}

#[derive(Debug)]
struct HostQueue {
    active: bool,
    buf: SyncFifo<u32>, // entry = payload size in bytes
    stats: QueueStats,
}

impl HostQueue {
    fn idle() -> Self {
        HostQueue {
            active: false,
            buf: SyncFifo::new(HostRbb::QUEUE_DEPTH),
            stats: QueueStats::default(),
        }
    }
}

/// The Host RBB.
#[derive(Debug)]
pub struct HostRbb {
    dma: PcieDmaIp,
    components: Vec<LogicComponent>,
    /// Queues the role asked to have exposed (≤ QUEUES); drives how many
    /// contexts host software programs.
    advertised_queues: u16,
    /// Per-queue state, materialized on first touch: entry `q` exists once
    /// queue `q`, or one above it, was activated or offered an entry. The
    /// queues beyond are idle, empty and hold no storage.
    queues: Vec<HostQueue>,
    /// Indices of active queues, in activation order (scheduler ring).
    active_ring: Vec<u16>,
    ring_pos: usize,
    /// Slots the scheduler examined (for the scheduling-rate ablation).
    sched_visits: u64,
}

impl HostRbb {
    /// Number of DMA queues (the paper's "1K DMA queues").
    pub const QUEUES: u16 = 1024;
    /// Per-queue buffer depth.
    pub const QUEUE_DEPTH: usize = 256;

    /// Creates a Host RBB around the selected DMA instance.
    pub fn new(dma: PcieDmaIp) -> Self {
        Self::with_advertised_queues(dma, Self::QUEUES)
    }

    /// Creates a Host RBB advertising only `queues` queues to the role
    /// (property-level tailoring of the queue surface). All
    /// [`Self::QUEUES`] queues are addressable; each one's state is
    /// allocated when it is first touched.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero or exceeds [`Self::QUEUES`].
    pub(crate) fn with_advertised_queues(dma: PcieDmaIp, queues: u16) -> Self {
        assert!(
            (1..=Self::QUEUES).contains(&queues),
            "advertised queues {queues} out of range"
        );
        HostRbb {
            dma,
            advertised_queues: queues,
            components: Self::component_inventory(),
            queues: Vec::new(),
            active_ring: Vec::new(),
            ring_pos: 0,
            sched_visits: 0,
        }
    }

    /// Selects a PCIe instance matching the device's host link — "roles
    /// should select specific PCIe instances that align with their host
    /// communication demands".
    pub fn with_link(die_vendor: Vendor, gen: u8, lanes: u8) -> Self {
        Self::new(PcieDmaIp::new(die_vendor, gen, lanes))
    }

    fn component_inventory() -> Vec<LogicComponent> {
        vec![
            LogicComponent {
                name: "mq-isolation",
                part: LogicPart::ExFunction,
                portability: Portability::Universal,
                loc: 3_500,
                resources: ResourceUsage::new(5_200, 7_800, 64, 16, 0),
            },
            LogicComponent {
                name: "active-scheduler",
                part: LogicPart::ExFunction,
                portability: Portability::Universal,
                loc: 2_400,
                resources: ResourceUsage::new(3_100, 4_400, 4, 0, 0),
            },
            LogicComponent {
                name: "stat-core",
                part: LogicPart::Monitoring,
                portability: Portability::Universal,
                loc: 1_000,
                resources: ResourceUsage::new(1_400, 2_100, 8, 0, 0),
            },
            LogicComponent {
                name: "dsc-ctrl",
                part: LogicPart::Control,
                portability: Portability::VendorBound,
                loc: 1_700,
                resources: ResourceUsage::new(2_300, 3_200, 2, 0, 0),
            },
            LogicComponent {
                name: "irq-glue",
                part: LogicPart::Monitoring,
                portability: Portability::VendorBound,
                loc: 700,
                resources: ResourceUsage::new(900, 1_300, 0, 0, 0),
            },
            LogicComponent {
                name: "instance-glue",
                part: LogicPart::InstanceGlue,
                portability: Portability::ChipBound,
                loc: 700,
                resources: ResourceUsage::new(1_000, 1_500, 0, 0, 0),
            },
        ]
    }

    fn check_range(queue: u16) -> Result<usize, HostQueueError> {
        if queue >= Self::QUEUES {
            Err(HostQueueError::OutOfRange { queue })
        } else {
            Ok(usize::from(queue))
        }
    }

    /// Queue `idx`'s state, materializing idle queues up to it.
    fn touch(&mut self, idx: usize) -> &mut HostQueue {
        if idx >= self.queues.len() {
            self.queues.resize_with(idx + 1, HostQueue::idle);
        }
        &mut self.queues[idx]
    }

    /// Queue `queue`'s state, or `None` while it was never touched.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    fn touched(&self, queue: u16) -> Option<&HostQueue> {
        assert!(queue < Self::QUEUES, "queue {queue} out of range");
        self.queues.get(usize::from(queue))
    }

    /// Activates a queue (tenant attach).
    ///
    /// # Errors
    ///
    /// [`HostQueueError::OutOfRange`].
    pub fn activate(&mut self, queue: u16) -> Result<(), HostQueueError> {
        let q = self.touch(Self::check_range(queue)?);
        if !q.active {
            q.active = true;
            self.active_ring.push(queue);
        }
        Ok(())
    }

    /// Enqueues one entry of `bytes` to a tenant queue.
    ///
    /// # Errors
    ///
    /// Out-of-range, inactive or full queues reject the entry (isolation:
    /// one tenant's overflow never spills into another's queue).
    pub fn enqueue(&mut self, queue: u16, bytes: u32) -> Result<(), HostQueueError> {
        let q = self.touch(Self::check_range(queue)?);
        if !q.active {
            q.stats.dropped += 1;
            return Err(HostQueueError::Inactive { queue });
        }
        match q.buf.push(bytes) {
            Ok(()) => {
                q.stats.enqueued += 1;
                Ok(())
            }
            Err(_) => {
                q.stats.dropped += 1;
                Err(HostQueueError::Full { queue })
            }
        }
    }

    /// Schedules the next entry round-robin **over active queues only** —
    /// the paper's scheduling-rate optimization.
    pub fn schedule(&mut self) -> Option<(u16, u32)> {
        let n = self.active_ring.len();
        for _ in 0..n {
            self.sched_visits += 1;
            let queue = self.active_ring[self.ring_pos];
            self.ring_pos = (self.ring_pos + 1) % n;
            let q = &mut self.queues[usize::from(queue)];
            if let Some(bytes) = q.buf.pop() {
                q.stats.dequeued += 1;
                q.stats.bytes += u64::from(bytes);
                return Some((queue, bytes));
            }
        }
        None
    }

    /// Baseline scheduler scanning **all** queues regardless of state —
    /// the ablation comparator for the active-ring design.
    pub fn schedule_naive(&mut self) -> Option<(u16, u32)> {
        let n = usize::from(Self::QUEUES);
        for i in 0..n {
            self.sched_visits += 1;
            let queue = ((self.ring_pos + i) % n) as u16;
            let Some(q) = self.queues.get_mut(usize::from(queue)) else {
                continue; // never touched, so inactive
            };
            if q.active {
                if let Some(bytes) = q.buf.pop() {
                    self.ring_pos = (usize::from(queue) + 1) % n;
                    q.stats.dequeued += 1;
                    q.stats.bytes += u64::from(bytes);
                    return Some((queue, bytes));
                }
            }
        }
        None
    }

    /// Scheduler slots examined so far (lower = higher scheduling rate).
    pub fn sched_visits(&self) -> u64 {
        self.sched_visits
    }

    /// A queue's statistics.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    #[cfg(test)]
    fn queue_stats(&self, queue: u16) -> QueueStats {
        self.touched(queue)
            .map_or_else(QueueStats::default, |q| q.stats)
    }

    /// A queue's current depth.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    pub fn queue_depth(&self, queue: u16) -> usize {
        self.touched(queue).map_or(0, |q| q.buf.len())
    }

    /// Publishes live per-queue aggregates into a register file laid out
    /// like [`Rbb::register_file`].
    ///
    /// # Errors
    ///
    /// Fails only if `rf` lacks this RBB's monitor block.
    pub fn publish_stats(
        &self,
        rf: &mut RegisterFile,
    ) -> Result<(), harmonia_hw::regfile::RegError> {
        let totals = self.queues.iter().fold((0u64, 0u64, 0u64, 0u64), |a, q| {
            (
                a.0 + q.buf.len() as u64,
                a.1 + q.stats.dequeued,
                a.2 + q.stats.bytes,
                a.3 + q.stats.dropped,
            )
        });
        let set = |rf: &mut RegisterFile, name: &str, v: u64| match rf.addr_of(name) {
            Some(addr) => rf.hw_set(addr, v as u32),
            None => Err(harmonia_hw::regfile::RegError::Unmapped { addr: 0 }),
        };
        set(rf, "mon_qdepth_0", totals.0)?;
        set(rf, "mon_qpkts_0", totals.1)?;
        set(rf, "mon_qbytes_0", totals.2)?;
        set(rf, "mon_qbytes_1", totals.2 >> 32)?;
        set(rf, "mon_sched_0", self.sched_visits)?;
        set(rf, "mon_sched_1", self.active_ring.len() as u64)?;
        set(rf, "mon_qdepth_1", totals.3)?;
        Ok(())
    }
}

impl Rbb for HostRbb {
    fn kind(&self) -> RbbKind {
        RbbKind::Host
    }

    fn host_queue_hint(&self) -> Option<u16> {
        Some(self.advertised_queues)
    }

    fn instance(&self) -> &dyn VendorIp {
        &self.dma
    }

    fn components(&self) -> &[LogicComponent] {
        &self.components
    }

    fn register_file(&self) -> RegisterFile {
        let mut rf = RegisterFile::new("host-rbb");
        rf.define(0x000, "dma_ctrl", Access::ReadWrite, 0);
        rf.define(0x004, "queue_sel", Access::ReadWrite, 0);
        rf.define(0x008, "queue_ctrl", Access::ReadWrite, 0);
        rf.define(0x00C, "ring_base_lo", Access::ReadWrite, 0);
        rf.define(0x010, "ring_base_hi", Access::ReadWrite, 0);
        rf.define(0x014, "ring_size", Access::ReadWrite, 512);
        rf.define(0x018, "doorbell", Access::WriteOnly, 0);
        rf.define(0x01C, "irq_cfg", Access::ReadWrite, 0);
        rf.define(0x020, "status", Access::ReadOnly, 0);
        // 32 monitoring counters (per-queue depth/packets/speed windows).
        rf.define_block(0x100, "mon_qdepth_", 8, Access::ReadOnly, 0);
        rf.define_block(0x140, "mon_qpkts_", 8, Access::ReadOnly, 0);
        rf.define_block(0x180, "mon_qbytes_", 8, Access::ReadOnly, 0);
        rf.define_block(0x1C0, "mon_sched_", 8, Access::ReadOnly, 0);
        rf
    }

    fn config_inventory(&self) -> ConfigInventory {
        let mut inv = ConfigInventory::new("host-rbb");
        inv.add_all(
            ["pcie_instance", "desired_queues", "irq_mode"],
            ConfigClass::RoleOriented,
        );
        for c in self.dma.native_interface().configs() {
            inv.add(format!("dma.{}", c.name), ConfigClass::ShellOriented);
        }
        inv.add_all(
            [
                "bar_layout",
                "msix_table_size",
                "dsc_prefetch_depth",
                "wb_coalesce",
                "cdc_depth",
                "sriov_vf_map",
                "tlp_ordering",
                "completion_buf_depth",
                "link_eq_preset",
                "refclk_source",
                "reset_topology",
                "p2p_enable",
                "atomics_enable",
                "relaxed_ordering",
                "tag_width",
                "poison_handling",
                "flr_timeout",
                "doorbell_stride",
                "qext_mem_backing",
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

    fn rbb() -> HostRbb {
        HostRbb::with_link(Vendor::Xilinx, 4, 8)
    }

    #[test]
    fn enqueue_requires_activation() {
        let mut h = rbb();
        assert_eq!(
            h.enqueue(5, 100),
            Err(HostQueueError::Inactive { queue: 5 })
        );
        h.activate(5).unwrap();
        h.enqueue(5, 100).unwrap();
        assert_eq!(h.queue_depth(5), 1);
        assert_eq!(h.queue_stats(5).dropped, 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut h = rbb();
        assert_eq!(
            h.activate(HostRbb::QUEUES),
            Err(HostQueueError::OutOfRange {
                queue: HostRbb::QUEUES
            })
        );
    }

    #[test]
    fn per_queue_isolation_under_overflow() {
        let mut h = rbb();
        h.activate(1).unwrap();
        h.activate(2).unwrap();
        // Tenant 1 floods its queue far past capacity.
        let mut rejected = 0;
        for _ in 0..(HostRbb::QUEUE_DEPTH + 50) {
            if h.enqueue(1, 64).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 50);
        // Tenant 2 is unaffected.
        h.enqueue(2, 64).unwrap();
        assert_eq!(h.queue_depth(2), 1);
        assert_eq!(h.queue_stats(2).dropped, 0);
    }

    #[test]
    fn round_robin_is_fair_across_active_queues() {
        let mut h = rbb();
        for q in [3u16, 7, 11] {
            h.activate(q).unwrap();
            for _ in 0..10 {
                h.enqueue(q, 100).unwrap();
            }
        }
        let mut order = Vec::new();
        while let Some((q, _)) = h.schedule() {
            order.push(q);
        }
        assert_eq!(order.len(), 30);
        // Perfect interleaving in ring order.
        assert_eq!(&order[0..6], &[3, 7, 11, 3, 7, 11]);
        assert_eq!(h.queue_stats(7).dequeued, 10);
    }

    #[test]
    fn active_ring_schedules_faster_than_naive_scan() {
        let mut fast = rbb();
        let mut slow = rbb();
        for h in [&mut fast, &mut slow] {
            for q in [100u16, 900] {
                h.activate(q).unwrap();
                for _ in 0..50 {
                    h.enqueue(q, 64).unwrap();
                }
            }
        }
        while fast.schedule().is_some() {}
        while slow.schedule_naive().is_some() {}
        assert!(
            fast.sched_visits() * 10 < slow.sched_visits(),
            "active-ring {} visits vs naive {}",
            fast.sched_visits(),
            slow.sched_visits()
        );
    }

    #[test]
    fn untouched_queues_read_idle_and_still_cost_a_naive_visit() {
        let mut h = rbb();
        let last = HostRbb::QUEUES - 1;
        assert_eq!(h.queue_stats(last), QueueStats::default());
        assert_eq!(h.queue_depth(last), 0);
        assert_eq!(h.schedule_naive(), None);
        assert_eq!(h.sched_visits(), u64::from(HostRbb::QUEUES));
        // An entry offered to an untouched, inactive queue is a drop.
        assert_eq!(
            h.enqueue(last, 64),
            Err(HostQueueError::Inactive { queue: last })
        );
        assert_eq!(h.queue_stats(last).dropped, 1);
        assert_eq!(h.queue_stats(last - 1), QueueStats::default());
    }

    #[test]
    fn reuse_fractions_in_fig14_bands() {
        let h = rbb();
        let xv = h.workload(MigrationKind::CrossVendor).reuse_fraction();
        let xc = h.workload(MigrationKind::CrossChip).reuse_fraction();
        assert!((0.66..=0.72).contains(&xv), "cross-vendor {xv:.3}");
        assert!((0.90..=0.95).contains(&xc), "cross-chip {xc:.3}");
    }

    #[test]
    fn config_reduction_in_band() {
        let f = rbb().config_inventory().reduction_factor().unwrap();
        assert!((8.8..=19.8).contains(&f), "factor {f:.1}");
    }

    #[test]
    fn stats_track_bytes() {
        let mut h = rbb();
        h.activate(0).unwrap();
        h.enqueue(0, 1500).unwrap();
        h.enqueue(0, 500).unwrap();
        h.schedule();
        h.schedule();
        let s = h.queue_stats(0);
        assert_eq!(s.bytes, 2000);
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.dequeued, 2);
    }
}
