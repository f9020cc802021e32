//! Harmonia's command-interface driver (`cmd_read` / `cmd_write`).
//!
//! The walkthrough of Figure 8: the driver builds command packets, ships
//! them through the DMA engine's dedicated control queue, the unified
//! control kernel executes them, and responses return tagged with the
//! originating `SrcId`. High-level operations (initialize everything, read
//! all statistics) are one command per module regardless of the platform
//! underneath — that is the whole Figure 13 story.
//!
//! [`CommandDriver`] is the one command driver, with two transports:
//!
//! * **serial** — [`CommandDriver::cmd_raw_resilient`] (and the helpers
//!   over it), and [`CommandDriver::submit`] at batch size 1: one DMA
//!   send, one kernel step and one completion per command. It is the only
//!   way a single command reaches the kernel;
//! * **ring** — [`CommandDriver::submit`] at batch size > 1 (see
//!   [`crate::batch`]): up to `batch` descriptors per SQ/CQ doorbell.
//!
//! Both transports drive one per-command record through the same issue,
//! ack, nack, time-out and retry-or-give-up steps, so the resilience
//! contract — deadlines, bounded retries with deterministic backoff,
//! idempotent replay, [`DriverReport`] accounting and the give-up
//! post-mortem — is written once. Completions of either transport feed
//! one [`IrqModerator`] whose batch threshold is the batch size.

use crate::batch::{CmdResult, CmdSpec};
use crate::dma::{CommandDelivery, DmaEngine};
use crate::irq::{IrqModeration, IrqModerator, IrqReport};
use crate::resilience::{DriverError, DriverReport, RetryPolicy};
use harmonia_cmd::queue::{CompletionQueue, SubmissionQueue};
use harmonia_cmd::{CommandCode, CommandPacket, SrcId, UnifiedControlKernel};
use harmonia_shell::rbb::RbbKind;
use harmonia_shell::TailoredShell;
use harmonia_sim::{
    FaultInjector, FlightRecorder, LogHistogram, MetricsRegistry, Picos, Pipeline, Probe,
    TraceCollector, TraceEventKind,
};
use std::collections::BTreeSet;

/// Status-register value published for a module the driver took out of
/// service (visible through `ModuleStatusRead`/stats afterwards).
pub const DEGRADED_STATUS: u32 = 0xDEAD;

/// An abstract command issued by the driver — the unit Figure 13 counts
/// when diffing software across platforms.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IssuedCommand {
    /// Target RBB id.
    pub rbb_id: u8,
    /// Target instance.
    pub instance_id: u8,
    /// Command code.
    pub code: u16,
}

/// One resilient command between issue and convergence, on either
/// transport.
pub(crate) struct Inflight {
    /// Result slot in the caller's submission order.
    pub(crate) idx: usize,
    /// Idempotency tag (also the SQ descriptor / CQ record pairing key).
    pub(crate) tag: u32,
    pub(crate) packet: CommandPacket,
    /// Retries performed so far (0 = first transmission pending).
    pub(crate) attempt: u32,
    /// Clock at the first transmission (the ack span's origin).
    pub(crate) issued_at: Picos,
}

/// The command-interface driver, bound to one FPGA (kernel) via DMA.
#[derive(Debug)]
pub struct CommandDriver {
    pub(crate) src: SrcId,
    pub(crate) engine: DmaEngine,
    pub(crate) kernel: UnifiedControlKernel,
    pub(crate) issued: Vec<IssuedCommand>,
    pub(crate) total_latency_ps: Picos,
    pub(crate) policy: RetryPolicy,
    pub(crate) report: DriverReport,
    pub(crate) faults: FaultInjector,
    pub(crate) next_tag: u32,
    /// Response-upload path: a zero-bubble pipeline whose scheduling
    /// errors surface as [`DriverError::ResponsePath`], never a panic.
    pub(crate) resp_pipe: Pipeline<u32>,
    /// Tags in completion order, per driver — retries must never reorder
    /// responses within one `SrcId`.
    pub(crate) acked_log: Vec<u32>,
    pub(crate) clock_ps: Picos,
    /// Issue→ack latency of every completed command, log-bucketed.
    pub(crate) latency_histo: LogHistogram,
    /// Observability planes shared with the engine, kernel and interrupt
    /// moderator (disabled unless attached). Its flight recorder is
    /// dumped as a post-mortem on [`DriverError::GaveUp`].
    pub(crate) probe: Probe,
    /// The post-mortem composed by the most recent give-up (None until a
    /// give-up happens with the flight recorder enabled).
    pub(crate) last_post_mortem: Option<String>,
    /// Commands per doorbell; 1 selects the serial transport.
    pub(crate) batch: usize,
    pub(crate) sq: SubmissionQueue,
    pub(crate) cq: CompletionQueue,
    /// Completion-interrupt moderation (`batch_threshold` = `batch`).
    pub(crate) irq: IrqModerator,
}

impl CommandDriver {
    /// Creates a driver for an application controller.
    pub fn new(engine: DmaEngine, kernel: UnifiedControlKernel) -> Self {
        Self::with_src(SrcId::Application, engine, kernel)
    }

    /// Creates a driver for a specific controller type (serial
    /// transport, batch size 1).
    pub fn with_src(src: SrcId, engine: DmaEngine, kernel: UnifiedControlKernel) -> Self {
        Self::build(src, engine, kernel, 1, 1)
    }

    /// Creates an application driver that submits `batch` commands per
    /// doorbell (minimum 1) over SQ/CQ rings of `depth` slots (rounded up
    /// to a power of two; SQ and CQ are sized together so a full drain
    /// can always post its completions).
    pub fn with_depth(
        engine: DmaEngine,
        kernel: UnifiedControlKernel,
        batch: usize,
        depth: usize,
    ) -> Self {
        Self::build(SrcId::Application, engine, kernel, batch.max(1), depth)
    }

    fn build(
        src: SrcId,
        engine: DmaEngine,
        kernel: UnifiedControlKernel,
        batch: usize,
        depth: usize,
    ) -> Self {
        CommandDriver {
            src,
            engine,
            kernel,
            issued: Vec::new(),
            total_latency_ps: 0,
            policy: RetryPolicy::default(),
            report: DriverReport::default(),
            faults: FaultInjector::none(),
            next_tag: 0,
            resp_pipe: Pipeline::new(0),
            acked_log: Vec::new(),
            clock_ps: 0,
            latency_histo: LogHistogram::new(),
            probe: Probe::disabled(),
            last_post_mortem: None,
            batch,
            sq: SubmissionQueue::new(depth),
            cq: CompletionQueue::new(depth),
            irq: IrqModerator::new(IrqModeration {
                max_wait_ps: 50_000_000,
                batch_threshold: batch.min(u32::MAX as usize) as u32,
            }),
        }
    }

    /// Commands per doorbell (1 = the serial transport).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Completion-interrupt moderation statistics: `coalescing()`
    /// approaches the batch size.
    pub fn irq_report(&self) -> IrqReport {
        self.irq.report()
    }

    /// Attaches an observability probe to this driver *and* its DMA
    /// engine, kernel and interrupt moderator (clones share every
    /// plane's store, so the whole command path lands on one timeline,
    /// in one registry and in one flight recorder).
    pub fn set_probe(&mut self, probe: Probe) {
        self.engine.set_probe(probe.clone());
        self.kernel.set_probe(probe.clone());
        self.irq.set_probe(probe.clone());
        self.probe = probe;
    }

    /// The driver's observability planes (disabled unless attached).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// [`CommandDriver::set_probe`] replacing only the trace collector.
    /// This and the next two delegates serve the wall-clock benchmark
    /// crate, which attaches its handles one at a time.
    pub fn set_trace_collector(&mut self, trace: TraceCollector) {
        self.set_probe(Probe { trace, ..self.probe.clone() });
    }

    /// [`CommandDriver::set_probe`] replacing only the metrics registry.
    pub fn set_metrics_registry(&mut self, metrics: MetricsRegistry) {
        self.set_probe(Probe { metrics, ..self.probe.clone() });
    }

    /// [`CommandDriver::set_probe`] replacing only the flight recorder.
    pub fn set_flight_recorder(&mut self, flight: FlightRecorder) {
        self.set_probe(Probe { flight, ..self.probe.clone() });
    }

    /// The post-mortem composed by the most recent
    /// [`DriverError::GaveUp`]: a header identifying the failing command
    /// followed by the flight-recorder dump (its retries, timeouts and
    /// backoffs). `None` until a give-up happens with the flight recorder
    /// enabled.
    pub fn last_post_mortem(&self) -> Option<&str> {
        self.last_post_mortem.as_deref()
    }

    /// Issue→ack latency histogram over every completed command (on
    /// either transport).
    pub fn latency_histogram(&self) -> &LogHistogram {
        &self.latency_histo
    }

    /// Attaches a fault injector to this driver *and* its DMA engine
    /// (clones share the plan state, so the schedule is consistent across
    /// the wire and the completion path).
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.engine.set_fault_injector(faults.clone());
        self.faults = faults;
    }

    /// Replaces the retry/timeout policy.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The active retry/timeout policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Failure/recovery accounting so far.
    pub fn report(&self) -> &DriverReport {
        &self.report
    }

    /// Idempotency tags in completion order (the per-`SrcId` response
    /// ordering that retries must preserve).
    pub fn acked_log(&self) -> &[u32] {
        &self.acked_log
    }

    /// The driver's simulation clock (advanced by deliveries, execution,
    /// timeouts and backoff).
    pub fn clock_ps(&self) -> Picos {
        self.clock_ps
    }

    /// The controller type this driver reports as.
    pub fn src(&self) -> SrcId {
        self.src
    }

    /// Access to the DMA engine (e.g. to toggle control isolation).
    pub fn engine_mut(&mut self) -> &mut DmaEngine {
        &mut self.engine
    }

    /// The DMA engine, for inspection (send/doorbell counters).
    pub fn engine_ref(&self) -> &DmaEngine {
        &self.engine
    }

    /// Issues one command and waits for its response (cmd_write/cmd_read
    /// collapse to this in the model; reads are commands whose response
    /// carries data). Fault-tolerant: per-command deadline, bounded
    /// retries with deterministic exponential backoff, idempotency
    /// tagging so a retried command is replayed rather than re-executed.
    ///
    /// Every call converges: `Ok(response)` or a typed [`DriverError`] —
    /// never a panic, never an un-accounted command.
    ///
    /// # Errors
    ///
    /// [`DriverError::Kernel`] for non-transient execution errors,
    /// [`DriverError::GaveUp`] when the retry budget runs out,
    /// [`DriverError::ResponsePath`] if the upload pipeline rejects a beat.
    pub fn cmd_resilient(
        &mut self,
        rbb: RbbKind,
        instance: u8,
        code: CommandCode,
        data: Vec<u32>,
    ) -> Result<CommandPacket, DriverError> {
        self.cmd_raw_resilient(rbb.id(), instance, code, data)
    }

    /// [`CommandDriver::cmd_resilient`] addressed by raw RBB id (0 =
    /// device-level).
    ///
    /// # Errors
    ///
    /// See [`CommandDriver::cmd_resilient`].
    pub fn cmd_raw_resilient(
        &mut self,
        rbb_id: u8,
        instance: u8,
        code: CommandCode,
        data: Vec<u32>,
    ) -> Result<CommandPacket, DriverError> {
        let cmd = self.issue(0, (rbb_id, instance, code, data));
        let result = self.send(cmd);
        // A wider moderator may hold the completion; the call returns
        // with nothing pending.
        self.irq.flush(self.clock_ps);
        result
    }

    /// The serial transport: one DMA send, one kernel step and one
    /// completion per attempt until `cmd` converges.
    fn send(&mut self, mut cmd: Inflight) -> CmdResult {
        loop {
            let attempt_start = self.clock_ps;
            self.transmit(&mut cmd, attempt_start);
            let mut bytes = cmd.packet.encode();
            match self
                .engine
                .command_delivery(bytes.len() as u32, attempt_start)
            {
                CommandDelivery::Delivered { latency_ps } => {
                    self.clock_ps += latency_ps;
                    self.total_latency_ps += latency_ps;
                }
                CommandDelivery::Lost { latency_ps } => {
                    // Nothing will ever arrive; wait out the deadline.
                    self.clock_ps += latency_ps;
                    self.time_out(std::slice::from_ref(&cmd), attempt_start);
                    self.retry(&mut cmd)?;
                    continue;
                }
            }
            // Wire corruption between the DMA engine and the kernel
            // buffer: the kernel must NACK, not panic.
            self.faults.corrupt_command(self.clock_ps, &mut bytes);
            self.kernel.sync_clock(self.clock_ps);
            match self.kernel.submit_bytes_or_nack(&bytes, self.src) {
                Err(e) => return Err(DriverError::Kernel(e)),
                Ok(Some(nack)) => {
                    self.irq.event(self.clock_ps);
                    self.nack(nack.data[0]);
                    self.retry(&mut cmd)?;
                    continue;
                }
                Ok(None) => {}
            }
            let before = self.kernel.reg_ops_executed();
            let resp = match self.kernel.step() {
                Err(e) => {
                    self.irq.event(self.clock_ps);
                    return Err(DriverError::Kernel(e));
                }
                // The command was accepted into an otherwise-drained
                // buffer, so a response is structurally guaranteed.
                Ok(r) => r.expect("command was just submitted"),
            };
            let ops = self.kernel.reg_ops_executed() - before;
            let exec_ps = UnifiedControlKernel::command_latency_ps(ops);
            self.clock_ps += exec_ps;
            self.total_latency_ps += exec_ps;
            // A lost completion interrupt: the command executed but the
            // host never hears about it. The idempotency tag makes the
            // retry safe — the kernel replays the cached response.
            if self.faults.irq_lost(self.clock_ps) {
                self.time_out(std::slice::from_ref(&cmd), attempt_start);
                self.retry(&mut cmd)?;
                continue;
            }
            self.irq.event(self.clock_ps);
            return self.ack(&cmd, self.clock_ps, resp);
        }
    }

    /// Serial retry: give up, or wait out this command's own backoff.
    fn retry(&mut self, cmd: &mut Inflight) -> Result<(), DriverError> {
        let backoff = self.retry_or_give_up(cmd)?;
        self.back_off(backoff, std::slice::from_ref(cmd));
        Ok(())
    }

    /// Tags and accounts a new resilient command for result slot `idx`.
    pub(crate) fn issue(
        &mut self,
        idx: usize,
        (rbb_id, instance_id, code, data): CmdSpec,
    ) -> Inflight {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.report.issued += 1;
        self.probe.metrics.counter_inc("harmonia_cmd_issued_total", &[]);
        self.issued.push(IssuedCommand {
            rbb_id,
            instance_id,
            code: code.to_u16(),
        });
        Inflight {
            idx,
            tag,
            packet: CommandPacket::new(self.src, rbb_id, instance_id, code)
                .with_data(data)
                .with_idempotency_tag(tag),
            attempt: 0,
            issued_at: 0,
        }
    }

    /// Records one transmission of `cmd` starting at `at`; the first one
    /// is where its ack span begins.
    pub(crate) fn transmit(&mut self, cmd: &mut Inflight, at: Picos) {
        if cmd.attempt == 0 {
            cmd.issued_at = at;
        }
        let issue = TraceEventKind::CmdIssue {
            code: cmd.packet.code.to_u16(),
            rbb_id: cmd.packet.rbb_id,
            instance_id: cmd.packet.instance_id,
        };
        self.probe.record(at, 0, issue);
    }

    /// The kernel NACKed an attempt (its bytes failed to decode).
    pub(crate) fn nack(&mut self, error_code: u32) {
        self.report.nacks += 1;
        self.probe.metrics.counter_inc("harmonia_cmd_nacks_total", &[]);
        self.probe.flight
            .record(self.clock_ps, 0, TraceEventKind::CmdNack { error_code });
    }

    /// No response will arrive for `lost`: one shared wait until the
    /// deadline of the attempt that started at `since`, one timeout each.
    pub(crate) fn time_out(&mut self, lost: &[Inflight], since: Picos) {
        self.report.timeouts += lost.len() as u64;
        self.probe.metrics
            .counter_add("harmonia_cmd_timeouts_total", &[], lost.len() as u64);
        self.clock_ps = self.clock_ps.max(since + self.policy.deadline_ps);
        for cmd in lost {
            let timeout = TraceEventKind::CmdTimeout {
                code: cmd.packet.code.to_u16(),
            };
            self.probe.record(self.clock_ps, 0, timeout);
        }
    }

    /// Retry bookkeeping for a failed attempt. With the budget spent the
    /// command gives up: typed error, plus the flight-recorder
    /// post-mortem. Otherwise its attempt count advances and the backoff
    /// it asks for is returned, to be charged by
    /// [`CommandDriver::back_off`].
    pub(crate) fn retry_or_give_up(&mut self, cmd: &mut Inflight) -> Result<Picos, DriverError> {
        let packet = &cmd.packet;
        if cmd.attempt >= self.policy.max_retries {
            self.report.gave_up += 1;
            self.probe.metrics.counter_inc("harmonia_cmd_gave_up_total", &[]);
            let give_up = TraceEventKind::CmdGiveUp {
                code: packet.code.to_u16(),
                attempts: cmd.attempt + 1,
            };
            self.probe.record(self.clock_ps, 0, give_up);
            if self.probe.flight.is_enabled() {
                self.last_post_mortem = Some(format!(
                    "post-mortem: gave up on cmd {:#06x} (rbb {} inst {}) after {} attempt(s), \
                     deadline {} ps\n{}",
                    packet.code.to_u16(),
                    packet.rbb_id,
                    packet.instance_id,
                    cmd.attempt + 1,
                    self.policy.deadline_ps,
                    self.probe.flight.dump()
                ));
            }
            return Err(DriverError::GaveUp {
                rbb_id: packet.rbb_id,
                instance_id: packet.instance_id,
                code: packet.code.to_u16(),
                attempts: cmd.attempt + 1,
                deadline_ps: self.policy.deadline_ps,
            });
        }
        let backoff = self.policy.backoff_ps(cmd.attempt);
        cmd.attempt += 1;
        self.report.retries += 1;
        self.probe.metrics.counter_inc("harmonia_cmd_retries_total", &[]);
        Ok(backoff)
    }

    /// Waits `backoff` before `retried` go out again.
    pub(crate) fn back_off(&mut self, backoff: Picos, retried: &[Inflight]) {
        self.clock_ps += backoff;
        self.probe.metrics
            .counter_add("harmonia_cmd_backoff_ps_total", &[], backoff);
        for cmd in retried {
            let retry = TraceEventKind::CmdRetry {
                code: cmd.packet.code.to_u16(),
                attempt: cmd.attempt,
            };
            self.probe.record(self.clock_ps, 0, retry);
        }
    }

    /// `cmd`'s response uploads at `upload_at` and the command converges
    /// acked.
    pub(crate) fn ack(
        &mut self,
        cmd: &Inflight,
        upload_at: Picos,
        resp: CommandPacket,
    ) -> CmdResult {
        self.resp_pipe.push(upload_at, cmd.tag)?;
        let uploaded = self.resp_pipe.pop(upload_at);
        debug_assert_eq!(uploaded, Some(cmd.tag));
        self.acked_log.push(cmd.tag);
        self.report.acked += 1;
        self.probe.metrics.counter_inc("harmonia_cmd_acked_total", &[]);
        let latency = self.clock_ps - cmd.issued_at;
        self.probe.metrics
            .observe("harmonia_cmd_latency_ps", &[], latency);
        let ack = TraceEventKind::CmdAck {
            code: cmd.packet.code.to_u16(),
            attempts: cmd.attempt + 1,
        };
        self.probe.record(cmd.issued_at, latency, ack);
        self.latency_histo.record(latency);
        Ok(resp)
    }

    /// Initializes every module of a shell — exactly one idempotency-tagged
    /// `ModuleInit` per module, platform details handled by the kernel —
    /// with graceful degradation. A module whose retry budget runs out is marked
    /// [`harmonia_shell::RbbHealth::Degraded`] in the shell's health
    /// ledger and its status register is set to [`DEGRADED_STATUS`]; the
    /// remaining modules are still initialized — one dead MAC must not
    /// take the whole shell down.
    ///
    /// Returns the number of modules successfully initialized.
    ///
    /// # Errors
    ///
    /// Only non-transient failures ([`DriverError::Kernel`],
    /// [`DriverError::ResponsePath`]) propagate; give-ups degrade.
    pub fn init_shell_resilient(
        &mut self,
        shell: &mut TailoredShell,
    ) -> Result<usize, DriverError> {
        // Degradations recorded by the ledger land on this driver's
        // timeline and registry (disabled handles clone for free).
        shell.health_mut().set_probe(self.probe.clone());
        let modules: Vec<(u8, u8)> = shell.modules().collect();
        let mut initialized = 0;
        for (id, inst) in modules {
            match self.cmd_raw_resilient(id, inst, CommandCode::ModuleInit, Vec::new()) {
                Ok(_) => initialized += 1,
                Err(DriverError::GaveUp { .. }) => {
                    shell.health_mut().mark_degraded(id, inst, self.clock_ps);
                    // Publish the transition where stats readers see it.
                    if let Ok(regs) = self.kernel.module_regs_mut(id, inst) {
                        if let Some(addr) = regs.addr_of("status") {
                            let _ = regs.hw_set(addr, DEGRADED_STATUS);
                        }
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Ok(initialized)
    }

    /// Reads all statistics: one `StatsRead` per *serving* module
    /// (degraded modules are skipped — their last published status word
    /// says why) plus one board `HealthRead`.
    ///
    /// # Errors
    ///
    /// See [`CommandDriver::cmd_resilient`].
    pub fn read_all_stats_resilient(
        &mut self,
        shell: &TailoredShell,
    ) -> Result<Vec<u32>, DriverError> {
        let mut out = Vec::new();
        for (id, inst) in shell.modules() {
            if shell.health().is_degraded(id, inst) {
                continue;
            }
            let resp = self.cmd_raw_resilient(id, inst, CommandCode::StatsRead, Vec::new())?;
            out.extend(resp.data);
        }
        let health = self.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())?;
        out.extend(health.data);
        Ok(out)
    }

    /// Every command issued so far, in order — the command-interface
    /// "script" diffed by the migration analysis.
    pub fn issued(&self) -> &[IssuedCommand] {
        &self.issued
    }

    /// Distinct commands used (the Table 4 "Commands" count).
    pub fn distinct_commands(&self) -> usize {
        self.issued
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Accumulated control-path latency.
    pub fn total_latency_ps(&self) -> Picos {
        self.total_latency_ps
    }

    /// The kernel, for inspection.
    pub fn kernel(&self) -> &UnifiedControlKernel {
        &self.kernel
    }

    /// Mutable kernel access (hardware-side sensor/test injection).
    pub fn kernel_mut(&mut self) -> &mut UnifiedControlKernel {
        &mut self.kernel
    }
}

/// The command sequence an application issues to bring up and operate a
/// shell — computed without running a kernel, for migration diffing.
pub fn command_script(shell: &TailoredShell) -> Vec<IssuedCommand> {
    let mut script = Vec::new();
    for (rbb, (rbb_id, instance_id)) in shell.rbbs().iter().zip(shell.modules()) {
        let codes: &[CommandCode] = match rbb.kind() {
            RbbKind::Network => &[
                CommandCode::ModuleReset,
                CommandCode::ModuleInit,
                CommandCode::ModuleStatusWrite,
                CommandCode::TableWrite,
                CommandCode::ModuleStatusRead,
            ],
            RbbKind::Memory => &[CommandCode::ModuleInit, CommandCode::ModuleStatusWrite],
            RbbKind::Host => &[
                CommandCode::ModuleReset,
                CommandCode::ModuleInit,
                CommandCode::ModuleStatusWrite,
                CommandCode::ModuleStatusRead,
            ],
        };
        for &code in codes {
            script.push(IssuedCommand {
                rbb_id,
                instance_id,
                code: code.to_u16(),
            });
        }
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmonia_cmd::KernelError;
    use harmonia_hw::device::catalog;
    use harmonia_hw::ip::PcieDmaIp;
    use harmonia_hw::Vendor;
    use harmonia_shell::{MemoryDemand, RoleSpec, UnifiedShell};

    fn setup() -> (CommandDriver, TailoredShell) {
        let dev = catalog::device_a();
        let unified = UnifiedShell::for_device(&dev);
        let role = RoleSpec::builder("t")
            .network_gbps(100)
            .network_ports(1)
            .memory(MemoryDemand::Ddr { channels: 1 })
            .build();
        let shell = TailoredShell::tailor(&unified, &role).unwrap();
        let mut kernel = UnifiedControlKernel::new(64);
        kernel.attach_shell(shell.rbbs().iter().map(|r| r.as_ref()));
        let (gen, lanes) = dev.pcie().unwrap();
        let engine = DmaEngine::new(PcieDmaIp::new(Vendor::Xilinx, gen, lanes));
        (CommandDriver::new(engine, kernel), shell)
    }

    #[test]
    fn init_shell_is_one_command_per_module() {
        let (mut drv, mut shell) = setup();
        assert_eq!(drv.init_shell_resilient(&mut shell).unwrap(), 3);
        assert_eq!(drv.issued().len(), 3); // net + mem + host
        assert!(drv.kernel().reg_ops_executed() > 20, "kernel did the work");
    }

    #[test]
    fn table4_monitoring_is_4_commands() {
        let (mut drv, shell) = setup();
        let stats = drv.read_all_stats_resilient(&shell).unwrap();
        assert_eq!(drv.issued().len(), 4); // 3 StatsRead + HealthRead
        assert_eq!(stats.len(), 84 + 4); // all monitor regs + 4 health words
    }

    #[test]
    fn command_script_shapes_match_table4() {
        let (_, shell) = setup();
        let script = command_script(&shell);
        let net: Vec<_> = script.iter().filter(|c| c.rbb_id == 1).collect();
        assert_eq!(net.len(), 5); // network init = 5 commands
        let host: Vec<_> = script.iter().filter(|c| c.rbb_id == 3).collect();
        assert_eq!(host.len(), 4); // host interaction = 4 commands
    }

    #[test]
    fn control_latency_accumulates() {
        let (mut drv, mut shell) = setup();
        drv.init_shell_resilient(&mut shell).unwrap();
        let lat = drv.total_latency_ps();
        assert!(lat > 0);
        // Each command is sub-10 µs: DMA base latency dominated.
        assert!(lat < 10_000_000 * drv.issued().len() as u64);
    }

    #[test]
    fn distinct_commands_deduplicates() {
        let (mut drv, _) = setup();
        for _ in 0..5 {
            drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
                .unwrap();
        }
        assert_eq!(drv.issued().len(), 5);
        assert_eq!(drv.distinct_commands(), 1);
    }

    #[test]
    fn errors_propagate_from_kernel() {
        let (mut drv, _) = setup();
        let err = drv
            .cmd_resilient(RbbKind::Memory, 9, CommandCode::ModuleInit, Vec::new())
            .unwrap_err();
        assert!(matches!(
            err,
            DriverError::Kernel(KernelError::UnknownModule { .. })
        ));
    }

    #[test]
    fn lost_commands_retry_and_converge() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let (mut drv, _) = setup();
        // First two transmissions are dropped; the third gets through.
        drv.set_fault_injector(
            FaultPlan::new()
                .at(0, FaultKind::CmdDrop)
                .at(1, FaultKind::CmdDrop)
                .injector(),
        );
        let resp = drv
            .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
            .unwrap();
        assert_eq!(resp.data.len(), 4);
        let r = drv.report();
        assert!(r.retries >= 1, "{r}");
        assert!(r.timeouts >= 1, "{r}");
        assert!(r.converged(), "{r}");
    }

    #[test]
    fn exhausted_retries_give_up_with_accounting() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let (mut drv, _) = setup();
        // Link goes down and never comes back.
        drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::LinkDown).injector());
        let err = drv
            .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
            .unwrap_err();
        match err {
            DriverError::GaveUp { attempts, .. } => {
                assert_eq!(attempts, drv.policy().max_retries + 1);
            }
            other => panic!("expected GaveUp, got {other:?}"),
        }
        let r = drv.report();
        assert_eq!(r.gave_up, 1);
        assert_eq!(r.timeouts, u64::from(drv.policy().max_retries) + 1);
        assert!(r.converged(), "{r}");
        // The clock advanced through every deadline and backoff.
        assert!(drv.clock_ps() >= drv.policy().deadline_ps * 5);
    }

    #[test]
    fn corrupted_wire_nacks_then_succeeds() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let (mut drv, _) = setup();
        drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::CmdCorrupt).injector());
        let resp = drv
            .cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
            .unwrap();
        assert_eq!(resp.data.len(), 4);
        let r = drv.report();
        assert_eq!(r.nacks, 1, "{r}");
        assert_eq!(r.retries, 1, "{r}");
        assert_eq!(drv.kernel().decode_errors(), 1);
    }

    #[test]
    fn lost_irq_replays_instead_of_double_applying() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let (mut drv, _) = setup();
        drv.set_fault_injector(FaultPlan::new().at(0, FaultKind::IrqLost).injector());
        // ModuleInit is the side-effecting command the idempotency tags
        // exist for.
        let resp = drv
            .cmd_resilient(RbbKind::Network, 0, CommandCode::ModuleInit, Vec::new())
            .unwrap();
        assert!(!resp.data.is_empty());
        assert_eq!(drv.kernel().replays(), 1, "retry must replay, not re-run");
        assert_eq!(drv.kernel().commands_executed(), 1);
        assert_eq!(drv.report().timeouts, 1);
    }

    #[test]
    fn traced_retry_storm_lands_on_one_timeline() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let (mut drv, _) = setup();
        drv.set_probe(Probe::enabled());
        drv.set_fault_injector(
            FaultPlan::new()
                .at(0, FaultKind::CmdDrop)
                .at(1, FaultKind::CmdCorrupt)
                .injector(),
        );
        drv.cmd_raw_resilient(0, 0, CommandCode::HealthRead, Vec::new())
            .unwrap();
        let trace = drv.probe().trace.take();
        let names: Vec<&str> = trace.events().iter().map(|e| e.kind.name()).collect();
        // Driver, DMA engine and kernel all report into the same buffer.
        for expected in [
            "cmd-issue",
            "cmd-delivery",
            "cmd-timeout",
            "cmd-retry",
            "cmd-nack",
            "kernel-exec",
            "cmd-ack",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // Events arrive time-ordered; the ack span covers the whole run.
        let times: Vec<u64> = trace.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(drv.latency_histogram().count(), 1);
        assert!(drv.latency_histogram().max() >= drv.policy().deadline_ps);
    }

    #[test]
    fn tracing_never_changes_behavior() {
        use harmonia_sim::{FaultKind, FaultPlan};
        // A give-up (five drops in a row degrade the first module), a
        // corrupted wire and a lost interrupt: every result must match
        // with all three planes on or off.
        let run = |probe: Probe| {
            let (mut drv, mut shell) = setup();
            drv.set_probe(probe);
            let mut plan = FaultPlan::new();
            for i in 0..5 {
                plan = plan.at(i, FaultKind::CmdDrop);
            }
            plan = plan
                .at(100, FaultKind::CmdCorrupt)
                .at(200, FaultKind::IrqLost);
            drv.set_fault_injector(plan.injector());
            let initialized = drv.init_shell_resilient(&mut shell).unwrap();
            let stats = drv.read_all_stats_resilient(&shell).unwrap();
            (
                (initialized, stats, drv.report().clone(), drv.clock_ps()),
                (drv.acked_log().to_vec(), drv.issued().to_vec()),
                (drv.latency_histogram().clone(), drv.irq_report()),
                shell.health().to_string(),
            )
        };
        let off = run(Probe::disabled());
        assert_eq!(off.0 .2.gave_up, 1, "the plan must reach a give-up");
        assert_eq!(off, run(Probe::enabled()));
    }

    #[test]
    fn degraded_module_does_not_block_the_rest() {
        use harmonia_sim::{FaultKind, FaultPlan};
        let (mut drv, mut shell) = setup();
        // Drop every transmission of the first module's init (5 attempts)
        // then recover: module 1 degrades, modules 2 and 3 come up.
        let mut plan = FaultPlan::new();
        for i in 0..5 {
            plan = plan.at(i, FaultKind::CmdDrop);
        }
        drv.set_fault_injector(plan.injector());
        let initialized = drv.init_shell_resilient(&mut shell).unwrap();
        assert_eq!(initialized, 2);
        assert_eq!(shell.health().degraded_count(), 1);
        assert_eq!(shell.serving_rbbs(), 2);
        assert!(shell.to_string().contains("(1 degraded)"));
        // The transition is visible through the normal stats path: the
        // degraded module is skipped, the rest still report.
        let stats = drv.read_all_stats_resilient(&shell).unwrap();
        assert!(!stats.is_empty());
        // And its status register says why.
        let net_id = RbbKind::Network.id();
        let regs = drv.kernel_mut().module_regs_mut(net_id, 0).unwrap();
        let addr = regs.addr_of("status").unwrap();
        assert_eq!(regs.read(addr).unwrap(), DEGRADED_STATUS);
    }
}
