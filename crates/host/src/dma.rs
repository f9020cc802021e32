//! DMA engine model with control-queue isolation.
//!
//! §3.3.3: "Harmonia integrates a separate control queue in the DMA engine
//! to ensure performance isolation from the data path." This model charges
//! data transfers against the PCIe link model and lets commands either ride
//! the isolated control queue (constant latency) or — for the ablation —
//! share the data queues, where they wait behind buffered data.

use harmonia_hw::ip::PcieDmaIp;
use harmonia_sim::{
    FaultInjector, FaultKind, MetricsRegistry, Picos, Throughput, TraceCollector, TraceEventKind,
};

/// Outcome of shipping one command packet through the control queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CommandDelivery {
    /// The packet reached the device buffer after `latency_ps`.
    Delivered {
        /// Time spent on the wire (including any injected credit stall).
        latency_ps: Picos,
    },
    /// The packet was lost in flight (link down or an injected drop); the
    /// driver learns nothing until its deadline expires.
    Lost {
        /// Time spent before the loss (charged to the driver's clock).
        latency_ps: Picos,
    },
}

/// The host-side DMA engine.
#[derive(Debug)]
pub struct DmaEngine {
    dma: PcieDmaIp,
    ctrl_isolated: bool,
    /// Data bytes currently queued ahead of any shared-queue command.
    data_backlog_bytes: u64,
    data_sent: Throughput,
    commands_sent: u64,
    doorbells: u64,
    faults: FaultInjector,
    trace: TraceCollector,
    metrics: MetricsRegistry,
}

impl DmaEngine {
    /// Creates an engine over a PCIe DMA instance with an isolated control
    /// queue (the Harmonia default).
    pub fn new(dma: PcieDmaIp) -> Self {
        DmaEngine {
            dma,
            ctrl_isolated: true,
            data_backlog_bytes: 0,
            data_sent: Throughput::new(),
            commands_sent: 0,
            doorbells: 0,
            faults: FaultInjector::none(),
            trace: TraceCollector::disabled(),
            metrics: MetricsRegistry::disabled(),
        }
    }

    /// Attaches an observability collector: every
    /// [`DmaEngine::command_delivery`] emits a
    /// [`TraceEventKind::CmdDelivery`] span, and injected credit stalls
    /// emit [`TraceEventKind::FaultInjected`] instants.
    pub fn set_trace_collector(&mut self, trace: TraceCollector) {
        self.trace = trace;
    }

    /// Attaches a metrics registry: deliveries bump
    /// `harmonia_dma_cmds_total`/`harmonia_dma_bursts_total` and injected
    /// credit stalls bump the stall counters. Disabled registries cost
    /// one branch per hook.
    pub fn set_metrics_registry(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// Attaches a fault injector to the control queue (clones share the
    /// plan's state, so one schedule drives every layer consistently).
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// The attached fault injector (no-op by default).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Disables control-queue isolation (ablation baseline: commands share
    /// the data queues).
    pub fn set_ctrl_isolated(&mut self, isolated: bool) {
        self.ctrl_isolated = isolated;
    }

    /// Whether the control queue is isolated.
    pub fn ctrl_isolated(&self) -> bool {
        self.ctrl_isolated
    }

    /// The underlying link model.
    pub fn link(&self) -> &PcieDmaIp {
        &self.dma
    }

    /// Queues `bytes` of data-path traffic (builds backlog).
    pub fn enqueue_data(&mut self, bytes: u64) {
        self.data_backlog_bytes += bytes;
        self.data_sent.record(bytes, 1);
    }

    /// Drains `bytes` of backlog (the device consumed them).
    pub fn drain_data(&mut self, bytes: u64) {
        self.data_backlog_bytes = self.data_backlog_bytes.saturating_sub(bytes);
    }

    /// Current data backlog in bytes.
    pub fn data_backlog(&self) -> u64 {
        self.data_backlog_bytes
    }

    /// Latency for a DMA data transfer of `bytes`.
    pub fn data_latency_ps(&self, bytes: u32) -> Picos {
        self.dma.read_latency_ps(bytes)
    }

    /// Data throughput for a given request size, GB/s.
    pub fn data_throughput_gbs(&self, request_bytes: u32) -> f64 {
        self.dma.throughput_gbs(request_bytes)
    }

    /// Delivery latency for a command packet of `cmd_bytes`.
    ///
    /// With isolation: link base latency plus the (tiny) serialization of
    /// the packet. Without: the command also waits for the data backlog to
    /// drain through the shared queue.
    pub fn command_latency_ps(&mut self, cmd_bytes: u32) -> Picos {
        self.commands_sent += 1;
        self.metrics.counter_inc("harmonia_dma_cmds_total", &[]);
        self.queue_latency_ps(cmd_bytes)
    }

    /// Control-queue wire latency for `bytes` (no send accounting).
    fn queue_latency_ps(&self, bytes: u32) -> Picos {
        let base = self.dma.read_latency_ps(bytes);
        if self.ctrl_isolated {
            base
        } else {
            let bw = self.dma.throughput_gbs(4096); // backlog drains at bulk rate
            let wait = (self.data_backlog_bytes as f64 / bw * 1e3) as Picos;
            base + wait
        }
    }

    /// Commands sent so far.
    pub fn commands_sent(&self) -> u64 {
        self.commands_sent
    }

    /// DMA sends rung so far: one per [`DmaEngine::command_delivery`]
    /// and one per [`DmaEngine::batch_delivery`] burst.
    pub fn doorbells(&self) -> u64 {
        self.doorbells
    }

    /// Ships one command through the fault plane at simulation time
    /// `now`: an injected PCIe credit stall stretches the latency; a
    /// down link or an injected drop loses the packet outright. With the
    /// no-op injector the latency is [`DmaEngine::command_latency_ps`]
    /// wrapped in [`CommandDelivery::Delivered`] — bit-identical timing.
    pub fn command_delivery(&mut self, cmd_bytes: u32, now: Picos) -> CommandDelivery {
        self.deliver(cmd_bytes, 1, now, true)
    }

    /// Ships one doorbell burst of `descriptors` command packets totalling
    /// `total_bytes` through the control queue: the whole chunk pays ONE
    /// base link latency instead of one per packet — the amortization the
    /// SQ/CQ path exists for.
    ///
    /// Burst-level faults apply here: an injected credit stall stretches
    /// the latency and a down link loses the entire burst. Per-descriptor
    /// `CmdDrop`/`CmdCorrupt` faults are *not* consulted — the driver
    /// applies those per entry, so replay recovers only the lost
    /// descriptors.
    pub fn batch_delivery(
        &mut self,
        total_bytes: u32,
        descriptors: u32,
        now: Picos,
    ) -> CommandDelivery {
        self.deliver(total_bytes, descriptors, now, false)
    }

    /// One doorbell: send accounting, the credit-stall charge, the link
    /// check (plus the per-packet drop when `drop_check` is set) and the
    /// delivery span.
    fn deliver(
        &mut self,
        bytes: u32,
        descriptors: u32,
        now: Picos,
        drop_check: bool,
    ) -> CommandDelivery {
        self.doorbells += 1;
        self.commands_sent += u64::from(descriptors);
        self.metrics.counter_inc("harmonia_dma_bursts_total", &[]);
        self.metrics
            .counter_add("harmonia_dma_cmds_total", &[], u64::from(descriptors));
        let mut latency_ps = self.queue_latency_ps(bytes);
        let mut lost = false;
        if self.faults.is_active() {
            let stall = self.faults.take_stall_beats(now);
            if stall > 0 {
                latency_ps += stall * self.credit_beat_ps();
                self.metrics
                    .counter_inc("harmonia_dma_credit_stalls_total", &[]);
                self.metrics
                    .counter_add("harmonia_dma_credit_stall_beats_total", &[], stall);
                self.trace.instant(
                    now,
                    TraceEventKind::FaultInjected {
                        kind: FaultKind::PcieCreditStall { beats: stall },
                    },
                );
            }
            lost = !self.faults.link_up(now) || (drop_check && self.faults.drop_command(now));
        }
        self.trace
            .span(now, latency_ps, TraceEventKind::CmdDelivery { bytes, lost });
        if lost {
            CommandDelivery::Lost { latency_ps }
        } else {
            CommandDelivery::Delivered { latency_ps }
        }
    }

    /// Wire time of one 32-byte credit beat at the bulk transfer rate —
    /// the unit an injected `PcieCreditStall` is priced in.
    fn credit_beat_ps(&self) -> Picos {
        let bw = self.dma.throughput_gbs(4096); // GB/s == B/ns
        (32.0 / bw * 1e3) as Picos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_hw::Vendor;

    fn engine() -> DmaEngine {
        DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, 4, 8))
    }

    #[test]
    fn isolated_commands_unaffected_by_backlog() {
        let mut e = engine();
        let quiet = e.command_latency_ps(64);
        e.enqueue_data(100_000_000); // 100 MB backlog
        let busy = e.command_latency_ps(64);
        assert_eq!(quiet, busy);
    }

    #[test]
    fn shared_queue_commands_wait_behind_data() {
        let mut e = engine();
        e.set_ctrl_isolated(false);
        let quiet = e.command_latency_ps(64);
        e.enqueue_data(100_000_000);
        let busy = e.command_latency_ps(64);
        assert!(
            busy > quiet * 100,
            "shared-queue latency {busy} ps barely above quiet {quiet} ps"
        );
    }

    #[test]
    fn backlog_drains() {
        let mut e = engine();
        e.enqueue_data(1000);
        e.drain_data(400);
        assert_eq!(e.data_backlog(), 600);
        e.drain_data(10_000);
        assert_eq!(e.data_backlog(), 0);
    }

    #[test]
    fn data_path_uses_link_model() {
        let e = engine();
        assert!(e.data_throughput_gbs(16384) > 10.0);
        assert!(e.data_latency_ps(16384) > e.data_latency_ps(1024));
    }

    #[test]
    fn command_counter() {
        let mut e = engine();
        e.command_latency_ps(64);
        e.command_latency_ps(64);
        assert_eq!(e.commands_sent(), 2);
    }

    #[test]
    fn faultless_delivery_matches_plain_latency() {
        let mut plain = engine();
        let mut faulty = engine();
        let expect = plain.command_latency_ps(64);
        assert_eq!(
            faulty.command_delivery(64, 0),
            CommandDelivery::Delivered { latency_ps: expect }
        );
    }

    #[test]
    fn batch_delivery_amortizes_base_latency() {
        let mut e = engine();
        let single = e.command_latency_ps(64);
        let burst = match e.batch_delivery(64 * 16, 16, 0) {
            CommandDelivery::Delivered { latency_ps } => latency_ps,
            lost => panic!("no faults attached: {lost:?}"),
        };
        assert!(
            burst < single * 8,
            "16-descriptor burst at {burst} ps is not amortized vs {single} ps/cmd"
        );
        assert_eq!(e.doorbells(), 1);
        assert_eq!(e.commands_sent(), 17);
    }

    #[test]
    fn batch_delivery_lost_only_on_burst_level_faults() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let mut e = engine();
        e.set_fault_injector(
            FaultPlan::new()
                .at(0, FaultKind::CmdDrop)
                .at(100, FaultKind::LinkDown)
                .injector(),
        );
        // An armed per-descriptor drop must NOT lose the whole burst —
        // that consult belongs to the driver, per entry.
        assert!(matches!(
            e.batch_delivery(256, 4, 0),
            CommandDelivery::Delivered { .. }
        ));
        // A down link loses the burst outright.
        assert!(matches!(
            e.batch_delivery(256, 4, 150),
            CommandDelivery::Lost { .. }
        ));
    }

    #[test]
    fn stall_drop_and_link_faults_shape_delivery() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let mut e = engine();
        e.set_fault_injector(
            FaultPlan::new()
                .at(0, FaultKind::PcieCreditStall { beats: 1000 })
                .at(100, FaultKind::CmdDrop)
                .at(200, FaultKind::LinkDown)
                .injector(),
        );
        let clean = engine().command_latency_ps(64);
        // Stall: delivered, but slower.
        match e.command_delivery(64, 0) {
            CommandDelivery::Delivered { latency_ps } => assert!(latency_ps > clean),
            lost => panic!("stall must not lose the packet: {lost:?}"),
        }
        // Armed drop: lost.
        assert!(matches!(
            e.command_delivery(64, 100),
            CommandDelivery::Lost { .. }
        ));
        // Link down: every packet lost until LinkUp.
        assert!(matches!(
            e.command_delivery(64, 250),
            CommandDelivery::Lost { .. }
        ));
        assert_eq!(e.faults().report().cmd_drops, 1);
    }
}
